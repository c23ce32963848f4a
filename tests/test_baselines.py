"""Baseline model tests: Litinski blocks, LSQCA, DASCOT, lower bound."""

import pytest

from repro.baselines.common import BaselineResult
from repro.baselines.dascot import UNLIMITED, dascot_qubits, evaluate_dascot, factory_sweep
from repro.baselines.litinski import (
    BlockLayout,
    compact_block,
    evaluate_all_blocks,
    evaluate_block,
    fast_block,
    intermediate_block,
)
from repro.baselines.lower_bound import circuit_lower_bound, distillation_lower_bound
from repro.baselines.lsqca import evaluate_line_sam, evaluate_point_sam, line_sam_qubits
from repro.ir.circuit import Circuit
from repro.synthesis.ppr import transpile_to_ppr
from repro.workloads import ising_2d


class TestLowerBound:
    def test_eq2(self):
        assert distillation_lower_bound(280, 11.0, 1) == pytest.approx(3080.0)
        assert distillation_lower_bound(280, 11.0, 4) == pytest.approx(770.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            distillation_lower_bound(10, 11.0, 0)
        with pytest.raises(ValueError):
            distillation_lower_bound(10, 0.0, 1)
        with pytest.raises(ValueError):
            distillation_lower_bound(-1, 11.0, 1)

    def test_circuit_bound(self):
        qc = ising_2d(2)
        assert circuit_lower_bound(qc) == pytest.approx(qc.count("rz") * 11.0)


class TestLitinskiBlocks:
    def test_modified_qubit_formulas(self):
        n = 100
        assert compact_block().qubits(n) == 303       # 3n+3
        assert intermediate_block().qubits(n) == 400  # 4n
        assert fast_block().qubits(n) == 406          # 4n+6

    def test_original_qubit_formulas(self):
        n = 100
        assert compact_block(modified=False).qubits(n) == 153  # 1.5n+3
        assert intermediate_block(modified=False).qubits(n) == 204

    def test_ppr_depths(self):
        assert compact_block().ppr_depth() == 4.0
        assert fast_block().ppr_depth() == 3.0

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            BlockLayout("huge", True).qubits(4)

    def test_time_sits_at_bound_with_one_factory(self):
        circuit = ising_2d(4)
        result = evaluate_block(circuit, fast_block(), num_factories=1)
        assert result.execution_time == pytest.approx(result.lower_bound)

    def test_time_floors_at_op_latency_with_many_factories(self):
        circuit = ising_2d(4)
        few = evaluate_block(circuit, fast_block(), num_factories=1)
        many = evaluate_block(circuit, fast_block(), num_factories=100)
        assert many.execution_time < few.execution_time
        assert many.execution_time >= many.t_states * 3.0  # serial PPRs

    def test_supplied_program_is_used(self):
        circuit = ising_2d(2)
        program = transpile_to_ppr(circuit)
        program.rotations = program.rotations[:1]
        result = evaluate_block(circuit, fast_block(), ppr_program=program)
        assert result.t_states == 1

    def test_program_of_another_width_rejected(self):
        program = transpile_to_ppr(ising_2d(3))
        with pytest.raises(ValueError, match="9 qubits"):
            evaluate_block(ising_2d(2), fast_block(), ppr_program=program)

    def test_all_blocks_returns_three(self):
        results = evaluate_all_blocks(ising_2d(2))
        assert [r.name for r in results] == [
            "litinski-compact-modified",
            "litinski-intermediate-modified",
            "litinski-fast-modified",
        ]


class TestLsqca:
    def test_qubit_count_scales_linearly(self):
        assert line_sam_qubits(100) > line_sam_qubits(25)

    def test_one_factory_near_bound(self):
        circuit = ising_2d(4)
        result = evaluate_line_sam(circuit, num_factories=1)
        assert result.execution_time >= result.lower_bound
        assert result.execution_time <= 1.5 * result.lower_bound

    def test_factories_barely_help(self):
        """The sequential Line-SAM bottleneck (Fig. 14's flat CPI)."""
        circuit = ising_2d(10)
        one = evaluate_line_sam(circuit, num_factories=1)
        four = evaluate_line_sam(circuit, num_factories=4)
        # far from the 4x speedup a parallel machine would get
        assert four.execution_time > one.execution_time / 2.5

    def test_point_sam_slower_than_line_sam(self):
        circuit = ising_2d(4)
        line = evaluate_line_sam(circuit, num_factories=4)
        point = evaluate_point_sam(circuit, num_factories=4)
        assert point.execution_time >= line.execution_time

    def test_shorter_distillation_exposes_movement(self):
        circuit = ising_2d(4)
        slow = evaluate_line_sam(circuit, distill_time=11.0)
        fast = evaluate_line_sam(circuit, distill_time=2.0)
        assert fast.execution_time <= slow.execution_time
        # Movement dominates once states are cheap: the overhead factor
        # relative to the distillation bound blows up.
        assert fast.time_vs_lower_bound > slow.time_vs_lower_bound
        assert fast.execution_time > fast.lower_bound


class TestDascot:
    def test_qubits_are_one_to_three(self):
        assert dascot_qubits(100) == 400

    def test_unlimited_is_critical_path(self):
        circuit = ising_2d(4)
        result = evaluate_dascot(circuit, num_factories=UNLIMITED)
        assert result.lower_bound == 0.0
        limited = evaluate_dascot(circuit, num_factories=1)
        assert limited.execution_time > result.execution_time

    def test_retrofitted_bound_dominates(self):
        circuit = ising_2d(4)
        result = evaluate_dascot(circuit, num_factories=1)
        assert result.execution_time == pytest.approx(result.lower_bound)

    def test_factory_sweep_includes_unlimited(self):
        results = factory_sweep(ising_2d(2))
        assert results[-1].num_factories == UNLIMITED
        assert len(results) == 5

    def test_no_factory_qubits_counted(self):
        result = evaluate_dascot(ising_2d(2), num_factories=2)
        assert result.factory_qubits == 0


class TestBaselineResult:
    def test_metrics(self):
        result = BaselineResult(
            name="x", circuit_name="c", compute_qubits=100,
            factory_qubits=16, execution_time=200.0, num_operations=50,
            t_states=10, num_factories=1, lower_bound=110.0,
        )
        assert result.total_qubits == 116
        assert result.spacetime_volume(True) == pytest.approx(116 * 200.0)
        assert result.spacetime_volume(False) == pytest.approx(100 * 200.0)
        assert result.cpi == pytest.approx(4.0)
        assert result.time_vs_lower_bound == pytest.approx(200.0 / 110.0)
