"""The benchmark's own tests: percentile rule, span arithmetic, smoke runs."""

import json
import statistics
import types
from pathlib import Path

import pytest

from perfbench import layers, stats
from perfbench.bench import END_TO_END, measure, per_kind_median
from perfbench.tracing import Span, Tracer, covered_length, self_times
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


class TestPercentileRule:
    def test_rung_needs_ten_samples_beyond(self):
        assert stats.tail_percentile(200) == 95
        assert stats.tail_percentile(199) == 90
        assert stats.tail_percentile(100) == 90
        assert stats.tail_percentile(99) == 75
        assert stats.tail_percentile(20) == 50
        assert stats.tail_percentile(19) is None

    def test_ladder_is_capped_so_more_samples_keep_the_rung(self):
        assert stats.tail_percentile(100_000) == 95

    def test_min_samples_inverts_the_rule(self):
        for pct in stats.TAIL_LADDER:
            need = stats.min_samples(pct)
            assert stats.samples_beyond(need, pct) >= stats.MIN_BEYOND
            assert stats.samples_beyond(need - 1, pct) < stats.MIN_BEYOND

    def test_summarize_reports_median_tail_rung_and_count(self):
        values = [float(v) for v in range(1, 201)]
        p50, tail, pct, count = stats.summarize(values)
        assert (pct, count) == (95, 200)
        assert p50 == statistics.median(values)
        assert tail == pytest.approx(stats.percentile(values, 95))
        assert sum(v > tail for v in values) >= stats.MIN_BEYOND

    def test_summarize_refuses_a_tail_it_does_not_have(self):
        with pytest.raises(ValueError):
            stats.summarize([1.0] * 19)

    def test_percentile_interpolates(self):
        assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert stats.percentile([5.0], 95) == 5.0


def test_per_kind_median_is_the_geometric_mean_of_kind_medians():
    latencies = [("a", 1.0), ("b", 9.0), ("a", 3.0), ("b", 100.0), ("a", 2.0), ("b", 1.0)]
    # medians: a -> 2, b -> 9
    assert per_kind_median(latencies) == pytest.approx(18 ** 0.5)
    assert per_kind_median([("only", 4.0)]) == 4.0


def _span(name, start, end, parent=None):
    span = Span(name, start, parent, None)
    span.end = end
    return span


class TestSpanArithmetic:
    def test_covered_length_merges_overlaps_and_clips(self):
        assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
        assert covered_length([(-2, 1), (9, 12)], 0, 10) == 2
        assert covered_length([], 0, 10) == 0

    def test_self_time_is_duration_minus_direct_child_coverage(self):
        spans = [
            _span("root", 0, 10),
            _span("a", 1, 4, parent=0),
            _span("a.inner", 2, 3, parent=1),
            _span("b", 3, 6, parent=0),
        ]
        assert self_times(spans) == [5, 2, 1, 3]

    def test_wrap_records_nested_spans_and_restores(self):
        module = types.ModuleType("fake_layer")

        def inner(x):
            return x + 1

        def outer(x):
            return module.inner(x) * 2

        module.inner, module.outer = inner, outer

        class Thing:
            @classmethod
            def make(cls, value):
                return value

        tracer = Tracer()
        tracer.wrap(module, "inner", "layer.inner")
        tracer.wrap(module, "outer", "layer.outer")
        tracer.wrap(Thing, "make", "thing.make")
        assert module.outer(1) == 4 and tracer.spans == []  # not recording
        tracer.recording = True
        with tracer.span("request", request_id="r1"):
            assert module.outer(1) == 4
            assert Thing.make(7) == 7
        names = [span.name for span in tracer.spans]
        assert names == ["request", "layer.outer", "layer.inner", "thing.make"]
        assert [span.parent for span in tracer.spans] == [None, 0, 1, 0]
        assert {span.request_id for span in tracer.spans} == {"r1"}
        tracer.unwrap_all()
        assert module.inner is inner and module.outer is outer
        assert "make" in vars(Thing) and Thing.make(3) == 3


def test_benchmark_json_declares_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in layers.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(name, tmp_path):
    # five tiny passes give every workload the 20 latencies a median needs
    report = measure(name, seed=3, seconds=0, trace=False, workdir=tmp_path, tiny=True, passes=5)
    assert report.problems == [] and report.attempted > 0
    assert set(report.metrics) == set(END_TO_END)
    assert all(value > 0 for value in report.metrics.values()), report.metrics


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counters_repeat_for_one_seed(name, tmp_path):
    runs = [
        measure(name, seed=5, seconds=0, trace=True, workdir=tmp_path / str(i), tiny=True, passes=1)
        for i in range(2)
    ]
    for report in runs:
        assert report.problems == []
        assert set(report.metrics) == set(layers.PER_LAYER)
    first, second = ({key: r.metrics[key] for key in layers.DETERMINISTIC} for r in runs)
    assert first == second
    assert any(first.values())
