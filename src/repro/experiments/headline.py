"""Headline claims — the abstract's aggregate numbers.

* ~53 % qubit reduction vs the Litinski block layouts at ~1.2x execution
  time;
* ~2x spacetime reduction vs DASCOT with a single factory;
* ~20-30 % spacetime reduction vs LSQCA Line SAM.
"""

from __future__ import annotations

from typing import List

from ..baselines import litinski
from ..baselines.dascot import evaluate_dascot
from ..baselines.litinski import compact_block, evaluate_block, fast_block
from ..baselines.lsqca import evaluate_line_sam
from ..metrics.report import Table
from ..metrics.spacetime import geometric_mean
from ..sweep import CompileJob
from .runner import MODELS, compile_ours, config_for, lattice_side

COLUMNS = ["claim", "paper", "measured"]

BEST_R = [4, 5, 6]


def jobs(fast: bool = True) -> List[CompileJob]:
    """The aggregate's compile grid, declared for the sweep planner."""
    side = lattice_side(fast)
    grid: List[CompileJob] = []
    for builder in MODELS.values():
        circuit = builder(side)
        for r in BEST_R:
            grid.append(CompileJob(circuit, config_for(r, 1), tag="headline"))
    return grid


def run(fast: bool = True) -> Table:
    """Aggregate the headline comparisons over the condensed-matter suite."""
    side = lattice_side(fast)
    qubit_reductions = []
    time_overheads = []
    dascot_ratios = []
    lsqca_ratios = []
    for model, builder in MODELS.items():
        circuit = builder(side)
        best = None
        for r in BEST_R:
            result = compile_ours(circuit, routing_paths=r, num_factories=1)
            if best is None or result.spacetime_volume(True) < best.spacetime_volume(True):
                best = result
        # one transpilation serves both block layouts
        program = litinski.transpile_to_ppr(circuit)
        baseline_qubits = min(
            evaluate_block(circuit, block, num_factories=1, ppr_program=program).compute_qubits
            for block in (compact_block(), fast_block())
        )
        qubit_reductions.append(1.0 - best.compute_qubits / baseline_qubits)
        time_overheads.append(best.time_vs_lower_bound)
        dascot = evaluate_dascot(circuit, num_factories=1)
        dascot_ratios.append(
            dascot.spacetime_volume_per_op(False)
            / best.spacetime_volume(False) * max(1, best.profile.num_gates)
        )
        lsqca = evaluate_line_sam(circuit, num_factories=1)
        lsqca_ratios.append(
            lsqca.spacetime_volume(True) / best.spacetime_volume(True)
        )

    table = Table(
        title=f"Headline claims ({side}x{side} condensed-matter suite)",
        columns=COLUMNS,
    )
    table.add_row(
        claim="avg qubit reduction vs best block layout",
        paper="~53%",
        measured=f"{100 * sum(qubit_reductions) / len(qubit_reductions):.0f}%",
    )
    table.add_row(
        claim="avg execution-time overhead vs lower bound",
        paper="~1.2x",
        measured=f"{sum(time_overheads) / len(time_overheads):.2f}x",
    )
    table.add_row(
        claim="DASCOT spacetime / ours @ 1 factory",
        paper="~2x",
        measured=f"{geometric_mean(dascot_ratios):.2f}x",
    )
    table.add_row(
        claim="Line-SAM spacetime / ours @ 1 factory",
        paper="~1.2-1.3x (20-30% reduction)",
        measured=f"{geometric_mean(lsqca_ratios):.2f}x",
    )
    return table
