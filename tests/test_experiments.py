"""Experiment harness tests: every figure runs and shows the paper's shape."""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    fig9,
    fig11,
    fig13,
    fig14,
    fig15,
    headline,
    table1,
)
from repro.metrics.report import Table


class TestTable1:
    def test_all_rows_match_paper(self):
        table = table1.run()
        assert table.column("matches_paper") == ["yes"] * 6


class TestFig8:
    def test_overheads_are_small(self):
        table = ALL_EXPERIMENTS["fig8"](True)
        for row in table.rows:
            if row["lower_bound_d"]:
                assert row["exec_vs_bound"] < 2.0
                assert row["unit_vs_bound"] < 2.0
                assert row["unit_vs_bound"] <= row["exec_vs_bound"] + 0.25


class TestFig9:
    @pytest.fixture(scope="class")
    def table(self):
        return fig9.run(fast=True, models=["ising"])

    def test_more_factories_more_qubits(self, table):
        rows = [r for r in table.rows if r["routing_paths"] == 4]
        qubits = [r["total_qubits"] for r in sorted(rows, key=lambda r: r["factories"])]
        assert qubits == sorted(qubits)

    def test_time_never_below_bound_scaling(self, table):
        for row in table.rows:
            assert row["exec_time_d"] > 0

    def test_optimum_shifts_right_with_more_paths(self, table):
        best = fig9.optimal_factories(table)
        small_r = best[("ising", 3)]
        big_r = best[("ising", 10)]
        assert big_r >= small_r


class TestFig11:
    @pytest.fixture(scope="class")
    def table(self):
        return fig11.run(fast=True, models=["ising"])

    def test_our_layouts_use_fewer_qubits_than_blocks(self, table):
        for size in {row["size"] for row in table.rows}:
            ours = [r["qubits"] for r in table.rows
                    if r["size"] == size and str(r["scheme"]).startswith("ours")]
            blocks = [r["qubits"] for r in table.rows
                      if r["size"] == size and "litinski" in str(r["scheme"])]
            assert min(ours) < min(blocks)

    def test_blocks_sit_at_bound(self, table):
        for row in table.rows:
            if "litinski" in str(row["scheme"]):
                assert row["time_vs_bound"] == pytest.approx(1.0)

    def test_qubit_reduction_headline(self, table):
        reduction = fig11.qubit_reduction_at_best_r(table, "ising", 16)
        assert reduction > 0.25


class TestFig12:
    def test_qubits_grow_with_r(self):
        table = ALL_EXPERIMENTS["fig12"](True)
        ours = [r for r in table.rows
                if r["model"] == "ising" and str(r["scheme"]).startswith("ours")]
        ours.sort(key=lambda r: r["routing_paths"])
        qubits = [r["qubits"] for r in ours]
        assert qubits == sorted(qubits)


class TestFig13:
    @pytest.fixture(scope="class")
    def table(self):
        return fig13.run(fast=True)

    def test_both_schemes_per_benchmark(self, table):
        benchmarks = {row["benchmark"] for row in table.rows}
        for name in benchmarks:
            schemes = [r["scheme"] for r in table.rows if r["benchmark"] == name]
            assert len(schemes) == 2

    def test_we_win_on_average(self, table):
        import math

        log_sum = 0.0
        count = 0
        benchmarks = {row["benchmark"] for row in table.rows}
        for name in benchmarks:
            ours = next(r for r in table.rows
                        if r["benchmark"] == name and str(r["scheme"]).startswith("ours"))
            lsqca = next(r for r in table.rows
                         if r["benchmark"] == name and "lsqca" in str(r["scheme"]))
            log_sum += math.log(lsqca["spacetime_volume"] / ours["spacetime_volume"])
            count += 1
        assert math.exp(log_sum / count) > 1.0


class TestFig14:
    def test_line_sam_flat_ours_drops(self):
        table = fig14.run(fast=True, models=["ising"])
        ours = sorted(
            (r for r in table.rows if r["scheme"] == "ours"),
            key=lambda r: r["factories"],
        )
        lsqca = sorted(
            (r for r in table.rows if "lsqca" in str(r["scheme"])),
            key=lambda r: r["factories"],
        )
        ours_gain = ours[0]["cpi"] / ours[-1]["cpi"]
        lsqca_gain = lsqca[0]["cpi"] / lsqca[-1]["cpi"]
        assert ours_gain > lsqca_gain

    def test_distill_sweep_monotone_for_ours(self):
        table = fig14.run_distill_sweep(fast=True)
        ours = [r for r in table.rows if r["scheme"] == "ours"]
        ours.sort(key=lambda r: -r["distill_time_d"])
        assert ours[-1]["cpi"] <= ours[0]["cpi"]


class TestFig15:
    @pytest.fixture(scope="class")
    def table(self):
        return fig15.run(fast=True, models=["ising"])

    def test_dascot_wins_at_unlimited(self, table):
        unlimited = [r for r in table.rows if r["factories"] is None]
        dascot = next(r for r in unlimited if r["scheme"] == "dascot")
        ours = [r for r in unlimited if str(r["scheme"]).startswith("ours")]
        assert all(dascot["spacetime_per_op"] < r["spacetime_per_op"] for r in ours)

    def test_dascot_loses_at_one_factory(self, table):
        ratio = fig15.dascot_ratio_at_one_factory(table, "ising")
        assert ratio > 1.2


class TestHeadline:
    def test_produces_four_claims(self):
        table = headline.run(fast=True)
        assert len(table.rows) == 4
        assert all(row["measured"] for row in table.rows)

    def test_transpiles_each_circuit_once(self, monkeypatch):
        from repro.baselines import litinski

        circuits = []

        def counting(circuit, *args, **kwargs):
            circuits.append(circuit.name)
            return transpile(circuit, *args, **kwargs)

        transpile = litinski.transpile_to_ppr
        monkeypatch.setattr(litinski, "transpile_to_ppr", counting)
        headline.run(fast=True)
        assert len(circuits) == 3
        assert len(set(circuits)) == 3


class TestHarness:
    def test_every_experiment_returns_table(self):
        for name, run in ALL_EXPERIMENTS.items():
            result = run(True)
            assert isinstance(result, Table), name
            assert result.rows, name
