"""Litinski "Game of Surface Codes" block layouts [28] with the
constant-depth Pauli-product-rotation decomposition of [30].

The paper's Sec. VII-C comparison: a circuit is transpiled into Litinski
normal form (pi/8 Pauli rotations + measurements, see
:mod:`repro.synthesis.ppr`) and executed one rotation at a time on a block
layout.  Realistic nearest-neighbour implementation of the wide rotations
requires extra ancillas (Fig. 10 / Fig. 16), growing the layouts to:

===========   ============  ==============  ===================
block         original       modified (NN)   PPR depth (NN)
===========   ============  ==============  ===================
compact       1.5n + 3       3n + 3          4d  (Fig. 17)
intermediate  2n + 4         4n              3d
fast          2n + sqrt(8n)  4n + 6          3d
===========   ============  ==============  ===================

Because every pi/8 rotation consumes one magic state and the PPR depth
(3-4d) is below the 11d distillation time, the execution time with few
factories sits exactly at the Eq. 2 lower bound — the paper's observation
that "the execution time of the PPR approach in all three layouts
coincides with the lower bound".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..ir.circuit import Circuit
from ..synthesis.ppr import PprProgram, transpile_to_ppr
from .common import BaselineResult
from .lower_bound import distillation_lower_bound

#: PPR latency in the modified nearest-neighbour layouts, units of d.
PPR_DEPTH = {"compact": 4.0, "intermediate": 3.0, "fast": 3.0}

#: Pauli-product measurement latency (absorbed Cliffords / readout).
PPM_DEPTH = 1.0


@dataclass(frozen=True)
class BlockLayout:
    """Qubit-count formulas for one Litinski block style."""

    style: str          # compact | intermediate | fast
    modified: bool      # True: NN-realistic (paper Fig. 16), False: original

    def qubits(self, n: int) -> int:
        """Logical qubits for ``n`` data qubits."""
        if self.style == "compact":
            return 3 * n + 3 if self.modified else math.ceil(1.5 * n) + 3
        if self.style == "intermediate":
            return 4 * n if self.modified else 2 * n + 4
        if self.style == "fast":
            return 4 * n + 6 if self.modified else 2 * n + math.ceil(math.sqrt(8 * n))
        raise ValueError(f"unknown block style {self.style!r}")

    def ppr_depth(self) -> float:
        """Latency of one Pauli-product rotation, units of d."""
        if not self.modified:
            # Original blocks execute one PPR per "step" of 1d plus fixup;
            # Litinski quotes 1 time step per measurement at full speed.
            return 1.0
        return PPR_DEPTH[self.style]

    @property
    def name(self) -> str:
        flavour = "modified" if self.modified else "original"
        return f"litinski-{self.style}-{flavour}"


def compact_block(modified: bool = True) -> BlockLayout:
    """The 1:2-ratio compact arrangement (modified: 3n+3 qubits)."""
    return BlockLayout("compact", modified)


def intermediate_block(modified: bool = True) -> BlockLayout:
    """The intermediate arrangement (modified: 4n qubits)."""
    return BlockLayout("intermediate", modified)


def fast_block(modified: bool = True) -> BlockLayout:
    """The fast arrangement (modified: 4n+6 qubits)."""
    return BlockLayout("fast", modified)


def evaluate_block(
    circuit: Circuit,
    block: BlockLayout,
    num_factories: int = 1,
    distill_time: float = 11.0,
    factory_area: int = 16,
    ppr_program: Optional[PprProgram] = None,
) -> BaselineResult:
    """Estimate qubits and execution time for one block layout.

    The rotation sequence is inherently serial (each PPR touches many
    qubits), so the makespan is ``max(distillation bound,
    n_ppr * ppr_depth) + measurements``.

    Args:
        circuit: the benchmark (transpiled internally unless
            ``ppr_program`` is supplied).
        block: which layout.
        num_factories: n_MSF for the distillation bound.
        distill_time: t_MSF (11d default).
        factory_area: logical patches per factory.
        ppr_program: optional pre-computed transpilation of ``circuit``
            (saves repeat work in sweeps).

    Raises:
        ValueError: ``ppr_program`` is over a different number of qubits
            than ``circuit``, so it cannot be its transpilation.
    """
    if ppr_program is not None and ppr_program.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"ppr_program is over {ppr_program.num_qubits} qubits but circuit "
            f"{circuit.name!r} is over {circuit.num_qubits}"
        )
    program = ppr_program or transpile_to_ppr(circuit)
    n_ppr = program.t_rotation_count
    bound = distillation_lower_bound(n_ppr, distill_time, num_factories)
    op_time = n_ppr * block.ppr_depth() + len(program.measurements) * PPM_DEPTH
    execution_time = max(bound, op_time)
    return BaselineResult(
        name=block.name,
        circuit_name=circuit.name,
        compute_qubits=block.qubits(circuit.num_qubits),
        factory_qubits=num_factories * factory_area,
        execution_time=execution_time,
        num_operations=len(circuit),
        t_states=n_ppr,
        num_factories=num_factories,
        lower_bound=bound,
    )


def evaluate_all_blocks(
    circuit: Circuit,
    num_factories: int = 1,
    distill_time: float = 11.0,
    factory_area: int = 16,
    modified: bool = True,
):
    """Compact, intermediate and fast block results for one circuit."""
    program = transpile_to_ppr(circuit)
    return [
        evaluate_block(
            circuit,
            BlockLayout(style, modified),
            num_factories=num_factories,
            distill_time=distill_time,
            factory_area=factory_area,
            ppr_program=program,
        )
        for style in ("compact", "intermediate", "fast")
    ]
