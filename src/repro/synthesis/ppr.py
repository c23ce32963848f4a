"""Litinski Pauli-product-rotation (PPR) transpilation.

Implements the circuit rewriting of "A Game of Surface Codes" [28] used by
the paper's strongest baseline (Sec. VII-C): every Clifford gate is commuted
to the end of the circuit, leaving a sequence of pi/8 Pauli-product
rotations followed by Pauli-product measurements.  The commutation is exact
Pauli conjugation: the Clifford prefix read so far is kept as a
Heisenberg-picture frame over bit-packed rows (a stabilizer tableau,
Aaronson & Gottesman, quant-ph/0406196), so each rotation's conjugated
axis is one row of the frame rather than a conjugation through every
earlier Clifford.  Each gate's local rewrite of the frame is derived from
:meth:`repro.synthesis.pauli.PauliString.conjugated_by`.

The paper's Fig. 10 / Appendix then implement each PPR with a constant-depth
nearest-neighbour decomposition [30] whose latency and ancilla requirements
are modelled in :mod:`repro.baselines.litinski`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

from ..ir import gates as g
from ..ir.circuit import Circuit
from ..ir.gates import Gate, is_multiple_of, normalize_angle
from .pauli import PauliString

#: rotation classes by angle denominator: pi/8 rotations need magic states,
#: pi/4 rotations are Clifford and can be absorbed.
T_ROTATION = 8
CLIFFORD_ROTATION = 4


@dataclass(frozen=True)
class PauliRotation:
    """A rotation ``exp(-i * theta * P)`` for Pauli product ``P``.

    Attributes:
        pauli: rotation axis.
        theta: rotation angle in radians (the exponent's coefficient).
        denominator: 8 for pi/8 (T-type), 4 for pi/4 (Clifford), 0 for a
            generic angle requiring synthesis.
    """

    pauli: PauliString
    theta: float
    denominator: int

    @property
    def is_t_type(self) -> bool:
        """True when the rotation consumes magic states."""
        return self.denominator not in (CLIFFORD_ROTATION,) and not self.is_trivial

    @property
    def is_trivial(self) -> bool:
        return abs(math.sin(2 * self.theta)) < 1e-12 and abs(
            math.cos(2 * self.theta) - 1
        ) < 1e-12

    def weight(self) -> int:
        """Number of qubits in the rotation's support."""
        return self.pauli.weight()

    def __str__(self) -> str:
        return f"exp(-i {self.theta:.4g} {self.pauli.label()})"


@dataclass(frozen=True)
class PauliMeasurement:
    """A Pauli-product measurement at the end of a PPR program."""

    pauli: PauliString


@dataclass
class PprProgram:
    """Result of transpiling a circuit into Litinski normal form.

    Attributes:
        num_qubits: register width.
        rotations: ordered non-Clifford (pi/8 or generic) rotations.
        measurements: trailing Pauli-product measurements.
        absorbed_cliffords: how many Clifford gates were commuted away.
    """

    num_qubits: int
    rotations: List[PauliRotation] = field(default_factory=list)
    measurements: List[PauliMeasurement] = field(default_factory=list)
    absorbed_cliffords: int = 0

    @property
    def t_rotation_count(self) -> int:
        """Number of magic-state-consuming rotations (n_T for Eq. 2)."""
        return sum(1 for r in self.rotations if r.is_t_type)

    def max_weight(self) -> int:
        """Largest rotation support — drives the PPR layout footprint."""
        weights = [r.weight() for r in self.rotations]
        weights += [m.pauli.weight() for m in self.measurements]
        return max(weights, default=0)

    def summary(self) -> str:
        return (
            f"PPR program: {len(self.rotations)} rotations "
            f"({self.t_rotation_count} pi/8), "
            f"{len(self.measurements)} measurements, "
            f"{self.absorbed_cliffords} Cliffords absorbed, "
            f"max weight {self.max_weight()}"
        )


def _rotation_for_gate(gate: Gate, num_qubits: int) -> Optional[PauliRotation]:
    """Map a non-Clifford gate to its Pauli rotation, or None for Cliffords."""
    if gate.name == g.T:
        return PauliRotation(
            PauliString.single(num_qubits, gate.qubits[0], "Z"), math.pi / 8, T_ROTATION
        )
    if gate.name == g.TDG:
        return PauliRotation(
            PauliString.single(num_qubits, gate.qubits[0], "Z"), -math.pi / 8, T_ROTATION
        )
    if gate.name in g.PARAMETRIC and gate.is_t_like:
        assert gate.param is not None
        letter = "Z" if gate.name == g.RZ else "X"
        theta = gate.param / 2.0  # rz(a) = exp(-i a/2 Z)
        denominator = T_ROTATION if is_multiple_of(
            normalize_angle(gate.param), math.pi / 4
        ) else 0
        return PauliRotation(
            PauliString.single(num_qubits, gate.qubits[0], letter), theta, denominator
        )
    return None


def _clifford_sequence(gate: Gate) -> List[Gate]:
    """Express Clifford rotations (rz/rx multiples of pi/2) as named gates."""
    if gate.name not in g.PARAMETRIC:
        return [gate]
    assert gate.param is not None
    (qubit,) = gate.qubits
    theta = normalize_angle(gate.param)
    quarter_turns = int(round(theta / (math.pi / 2))) % 4
    z_names = {0: [], 1: [g.S], 2: [g.Z], 3: [g.SDG]}[quarter_turns]
    names = z_names if gate.name == g.RZ else None
    if names is None:
        # rx = H rz H
        return (
            [Gate(g.H, (qubit,))]
            + [Gate(n, (qubit,)) for n in z_names]
            + [Gate(g.H, (qubit,))]
        )
    return [Gate(n, (qubit,)) for n in names]


#: A frame row ``(x_bits, z_bits, phase)``: the Pauli ``i^phase * P_0 ⊗ ...``
#: with qubit ``q``'s letter in bit ``q`` of the two masks (as in PauliString).
_Row = Tuple[int, int, int]

#: maps the characters of a binary literal to the bit values 0 and 1.
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _row_product(a: _Row, b: _Row) -> _Row:
    """The operator product ``a · b``; the i-exponent counts letter pairs.

    Per qubit X·Y, Y·Z and Z·X add ``i`` and the reversed pairs add ``-i``
    (the table behind :meth:`PauliString.__mul__`), so the phase is two
    popcounts over the X-only, Y and Z-only masks.
    """
    ax, az, ap = a
    bx, bz, bp = b
    a_x, a_y, a_z = ax & ~az, ax & az, az & ~ax
    b_x, b_y, b_z = bx & ~bz, bx & bz, bz & ~bx
    up = ((a_x & b_y) | (a_y & b_z) | (a_z & b_x)).bit_count()
    down = ((a_y & b_x) | (a_z & b_y) | (a_x & b_z)).bit_count()
    return ax ^ bx, az ^ bz, (ap + bp + up - down) & 3


@lru_cache(maxsize=None)
def _local_images(name: str) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """How Clifford ``name`` rewrites the frame rows of its own qubits.

    For each local generator ``X_0, Z_0[, X_1, Z_1]`` the image ``c† G c``
    (taken from :meth:`PauliString.conjugated_by`, so sign conventions have
    one source) as ``(phase, sources)``: ``i^phase`` times the product of
    the local generators indexed ``2 * qubit + (0 for X, 1 for Z)``, in
    order.  A Y factor becomes ``i · X · Z``.
    """
    arity = 2 if name in g.CLIFFORD_2Q else 1
    inverse = Gate(name, tuple(range(arity))).dagger()
    images = []
    for qubit in range(arity):
        for letter in "XZ":
            image = PauliString.single(arity, qubit, letter).conjugated_by(inverse)
            phase = image.phase
            sources: List[int] = []
            for local, (x_bit, z_bit) in enumerate(zip(image.x, image.z)):
                if x_bit:
                    sources.append(2 * local)
                if z_bit:
                    sources.append(2 * local + 1)
                if x_bit and z_bit:
                    phase += 1
            images.append((phase % 4, tuple(sources)))
    return tuple(images)


class _CliffordFrame:
    """The Heisenberg picture of a Clifford prefix ``U`` over bit-packed rows.

    Row ``2q`` holds ``U† X_q U`` and row ``2q + 1`` holds ``U† Z_q U``
    (an Aaronson-Gottesman tableau, quant-ph/0406196).  Appending a
    Clifford ``c`` rewrites only its qubits' rows, since
    ``(cU)† G (cU) = U† (c† G c) U``; a single-qubit axis conjugated by the
    whole prefix is then one row.
    """

    _SUPPORTED = g.CLIFFORD_1Q | g.CLIFFORD_2Q

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = num_qubits
        self.rows: List[_Row] = []
        for qubit in range(num_qubits):
            self.rows.append((1 << qubit, 0, 0))
            self.rows.append((0, 1 << qubit, 0))
        #: the last gate of the prefix with no Clifford image (a surgery
        #: primitive); reading any row through it fails
        self.blocked: Optional[Gate] = None

    def append(self, gate: Gate) -> None:
        """Extend the prefix by ``gate``: ``U <- gate · U``."""
        if gate.name not in self._SUPPORTED:
            self.blocked = gate
            return
        if self.blocked is not None:
            return
        rows = self.rows
        slots = [2 * q + kind for q in gate.qubits for kind in (0, 1)]
        old = [rows[slot] for slot in slots]
        for slot, (phase, sources) in zip(slots, _local_images(gate.name)):
            x, z, p = old[sources[0]]
            row = (x, z, (p + phase) & 3)
            for source in sources[1:]:
                row = _row_product(row, old[source])
            rows[slot] = row

    def conjugated(self, qubit: int, letter: str) -> Tuple[PauliString, int]:
        """``U† P U`` for the single-qubit Pauli ``letter`` on ``qubit``.

        Returns the phase-free axis and the phase exponent separately.
        """
        if self.blocked is not None:
            # raises the error conjugating by the primitive itself raises
            PauliString.identity(self.num_qubits).conjugated_by(self.blocked.dagger())
        x, z, phase = self.rows[2 * qubit + (letter == "Z")]
        return PauliString(self._bits(x), self._bits(z)), phase

    def _bits(self, mask: int) -> Tuple[int, ...]:
        literal = format(mask, f"0{self.num_qubits}b")[::-1]
        return tuple(literal.encode().translate(_BIT_VALUES))


def transpile_to_ppr(circuit: Circuit, measure_all: bool = True) -> PprProgram:
    """Rewrite a Clifford+T circuit into pi/8 rotations + measurements.

    Walks the circuit front to back, tracking the Clifford prefix ``U``
    seen so far as a :class:`_CliffordFrame`.  Moving a rotation left past
    ``U`` turns ``exp(-i t P) U`` into ``U exp(-i t U†PU)``, exactly as
    Litinski's procedure; with the frame each ``U†PU`` is one row lookup
    instead of a conjugation through every prefix gate.  The accumulated
    Clifford tail is finally absorbed into the measurements.

    Raises:
        ValueError: a rotation or measurement is pushed through a
            lattice-surgery primitive, which is not a Clifford gate.
    """
    program = PprProgram(num_qubits=circuit.num_qubits)
    frame = _CliffordFrame(circuit.num_qubits)

    for gate in circuit:
        if gate.name in (g.BARRIER, g.MEASURE):
            continue
        rotation = _rotation_for_gate(gate, circuit.num_qubits)
        if rotation is None:
            for named in _clifford_sequence(gate):
                frame.append(named)
                program.absorbed_cliffords += 1
            continue
        letter = "X" if gate.name == g.RX else "Z"
        axis, phase = frame.conjugated(gate.qubits[0], letter)
        sign = -1.0 if phase == 2 else 1.0
        if phase in (1, 3):
            raise RuntimeError("Pauli axis acquired imaginary phase")
        program.rotations.append(
            PauliRotation(axis, sign * rotation.theta, rotation.denominator)
        )

    if measure_all:
        for qubit in range(circuit.num_qubits):
            axis, _ = frame.conjugated(qubit, "Z")
            program.measurements.append(PauliMeasurement(axis))
    return program


def rotation_axes_profile(program: PprProgram) -> Tuple[int, int, int]:
    """Classify T-type rotation axes for Sec. VII-C's discussion of
    ``Z⊗I…⊗Z`` patterns.

    Returns:
        ``(pure_z, contains_identity_gaps, other)``: axes made only of Z on
        a contiguous qubit range, Z-only axes with identity gaps inside
        their support, and axes with any X or Y factor.
    """
    pure_z = gaps = other = 0
    for rotation in program.rotations:
        if not rotation.is_t_type:
            continue
        label = rotation.pauli.label()
        support = rotation.pauli.support()
        if set(label) <= {"I", "Z"}:
            if support and (max(support) - min(support) + 1) != len(support):
                gaps += 1
            else:
                pure_z += 1
        else:
            other += 1
    return pure_z, gaps, other
