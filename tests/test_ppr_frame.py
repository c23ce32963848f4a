"""Equivalence of the Clifford-frame PPR transpiler with the prefix walk.

:func:`reference_transpile` is Litinski's procedure done the direct way:
every rotation axis is conjugated back through the whole Clifford prefix,
one gate at a time, with :meth:`PauliString.conjugated_by`.  It costs
O(rotations x Cliffords) and serves only as the oracle here;
:func:`transpile_to_ppr` must produce an equal :class:`PprProgram` (axes,
signs, angles, denominators, measurements, absorbed-Clifford count) and
raise the same errors.
"""

import math
import random
from typing import List

import pytest

from repro.fuzz.generators import KINDS, generate_scenario
from repro.ir import gates as g
from repro.ir.circuit import Circuit
from repro.ir.gates import Gate
from repro.synthesis.pauli import PauliString
from repro.synthesis.ppr import (
    PauliMeasurement,
    PauliRotation,
    PprProgram,
    _clifford_sequence,
    _rotation_for_gate,
    transpile_to_ppr,
)
from repro.workloads.registry import benchmark_names, load_benchmark


def reference_transpile(circuit: Circuit, measure_all: bool = True) -> PprProgram:
    """Conjugate each axis through the reversed Clifford prefix."""
    program = PprProgram(num_qubits=circuit.num_qubits)
    clifford_prefix: List[Gate] = []

    for gate in circuit:
        if gate.name in (g.BARRIER, g.MEASURE):
            continue
        rotation = _rotation_for_gate(gate, circuit.num_qubits)
        if rotation is None:
            for named in _clifford_sequence(gate):
                clifford_prefix.append(named)
                program.absorbed_cliffords += 1
            continue
        # moving the rotation left past C turns exp(-i t P) C into
        # C exp(-i t C†PC)
        axis = rotation.pauli
        for clifford in reversed(clifford_prefix):
            axis = axis.conjugated_by(clifford.dagger())
        sign = -1.0 if axis.phase == 2 else 1.0
        if axis.phase in (1, 3):
            raise RuntimeError("Pauli axis acquired imaginary phase")
        axis = PauliString(axis.x, axis.z, 0)
        program.rotations.append(
            PauliRotation(axis, sign * rotation.theta, rotation.denominator)
        )

    if measure_all:
        for qubit in range(circuit.num_qubits):
            axis = PauliString.single(circuit.num_qubits, qubit, "Z")
            for clifford in reversed(clifford_prefix):
                axis = axis.conjugated_by(clifford.dagger())
            axis = PauliString(axis.x, axis.z, 0)
            program.measurements.append(PauliMeasurement(axis))
    return program


#: benchmarks the reference takes over a second on (checked in the slow tier)
SLOW_FOR_REFERENCE = (
    "heisenberg_2d_8x8",
    "ising_2d_10x10",
    "heisenberg_2d_10x10",
    "fermi_hubbard_2d_10x10",
)


def assert_same_program(circuit: Circuit, measure_all: bool = True) -> None:
    expected = reference_transpile(circuit, measure_all)
    actual = transpile_to_ppr(circuit, measure_all)
    assert actual == expected, circuit.name
    # == on floats would accept -0.0 for 0.0; the angles must be the same bits
    assert [math.copysign(1.0, r.theta) for r in actual.rotations] == [
        math.copysign(1.0, r.theta) for r in expected.rotations
    ]


def outcome(transpile, circuit: Circuit, measure_all: bool):
    try:
        return transpile(circuit, measure_all)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


#: named Cliffords, quarter turns, T-type and generic angles
_ANGLES = (
    0.0, math.pi / 2, math.pi, 3 * math.pi / 2, -math.pi / 2, 2 * math.pi,
    math.pi / 4, -math.pi / 4, 3 * math.pi / 4, math.pi / 8, 0.3, -1.7,
)


def random_clifford_t(rng: random.Random, num_qubits: int, num_gates: int) -> Circuit:
    """Random circuit over every supported Clifford, T/Tdg and rz/rx."""
    qc = Circuit(num_qubits, name=f"random_{num_qubits}q_{num_gates}")
    one_qubit = sorted(g.CLIFFORD_1Q) + [g.T, g.TDG]
    two_qubit = sorted(g.CLIFFORD_2Q) if num_qubits > 1 else []
    for _ in range(num_gates):
        roll = rng.random()
        if roll < 0.2:
            qc.append(Gate(rng.choice((g.RZ, g.RX)), (rng.randrange(num_qubits),),
                           param=rng.choice(_ANGLES)))
        elif roll < 0.55 and two_qubit:
            a, b = rng.sample(range(num_qubits), 2)
            qc.append(Gate(rng.choice(two_qubit), (a, b)))
        elif roll < 0.97:
            qc.append(Gate(rng.choice(one_qubit), (rng.randrange(num_qubits),)))
        else:
            qc.append(Gate(rng.choice((g.BARRIER, g.MEASURE)), (rng.randrange(num_qubits),)))
    return qc


class TestFrameMatchesReference:
    @pytest.mark.parametrize(
        "name", [name for name in benchmark_names() if name not in SLOW_FOR_REFERENCE]
    )
    def test_registered_benchmarks(self, name):
        assert_same_program(load_benchmark(name))

    def test_fuzz_scenarios_cover_every_family(self):
        seen = set()
        for index in range(320):
            scenario = generate_scenario(7, index)
            seen.add(scenario.kind)
            assert_same_program(scenario.circuit, measure_all=index % 2 == 0)
        assert seen == set(KINDS)

    @pytest.mark.parametrize("measure_all", [True, False])
    def test_random_clifford_t_circuits(self, measure_all):
        rng = random.Random(20260 + measure_all)
        for _ in range(150):
            circuit = random_clifford_t(rng, rng.randint(1, 7), rng.randint(0, 80))
            assert_same_program(circuit, measure_all)

    def test_every_clifford_conjugates_every_axis(self):
        # each Clifford on each position, followed by every rotation kind
        names = sorted(g.CLIFFORD_1Q | g.CLIFFORD_2Q)
        for name in names:
            qubits = (1, 0) if name in g.CLIFFORD_2Q else (1,)
            for follow in ("t", "tdg", "rz", "rx"):
                for target in (0, 1):
                    qc = Circuit(2, name=f"{name}-{follow}{target}")
                    qc.h(0).s(1).cx(0, 1)
                    qc.append(Gate(name, qubits))
                    if follow in ("rz", "rx"):
                        qc.append(Gate(follow, (target,), param=0.3))
                    else:
                        qc.append(Gate(follow, (target,)))
                    assert_same_program(qc)


class TestErrorParity:
    @staticmethod
    def assert_same_outcome(circuit, measure_all=True):
        expected = outcome(reference_transpile, circuit, measure_all)
        actual = outcome(transpile_to_ppr, circuit, measure_all)
        assert actual == expected

    @pytest.mark.parametrize("primitive", [g.MZZ, g.MXX, g.MOVE])
    def test_primitive_before_rotation_raises(self, primitive):
        qc = Circuit(3).h(0)
        qubits = (0,) if primitive == g.MOVE else (0, 1)
        qc.append(Gate(primitive, qubits))
        qc.cx(1, 2).t(2)
        with pytest.raises(ValueError, match="has no defined inverse"):
            transpile_to_ppr(qc, measure_all=False)
        self.assert_same_outcome(qc, measure_all=False)
        self.assert_same_outcome(qc)

    def test_latest_primitive_names_the_error(self):
        qc = Circuit(2)
        qc.append(Gate(g.MZZ, (0, 1)))
        qc.append(Gate(g.MOVE, (1,)))
        qc.t(0)
        with pytest.raises(ValueError, match="'move'"):
            transpile_to_ppr(qc)
        self.assert_same_outcome(qc)

    def test_primitive_after_last_rotation_fails_only_at_measurement(self):
        qc = Circuit(2).t(0).cx(0, 1)
        qc.append(Gate(g.MZZ, (0, 1)))
        with pytest.raises(ValueError):
            transpile_to_ppr(qc)
        self.assert_same_outcome(qc)

    def test_primitive_without_measurements_is_absorbed(self):
        qc = Circuit(2).t(0).h(1)
        qc.append(Gate(g.MXX, (0, 1)))
        qc.append(Gate(g.MOVE, (0,)))
        program = transpile_to_ppr(qc, measure_all=False)
        assert program.absorbed_cliffords == 3
        assert program == reference_transpile(qc, measure_all=False)


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW_FOR_REFERENCE)
def test_paper_scale_benchmarks(name):
    # the 10x10 models are the paper-scale headline's three circuits
    assert_same_program(load_benchmark(name))
