"""Columnar canonical text: a result's stored schedule is one JSON array
per op field (plus interned kind/name/note tables and flattened qubits
and cells), not one object per op.  Decoding that text must reproduce
every op exactly, types included; the text built straight from a live
result must equal the canonical text of its per-op ``to_dict`` form;
and entries are judged by their checksum over that canonical text."""

import dataclasses
import json

import pytest

from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline import FaultTolerantCompiler
from repro.compiler.result import CompilationResult, canonical_text
from repro.perf.bench import bench_cases
from repro.scheduling.events import Schedule, ScheduledOp
from repro.service import CachePeerThread, RemoteCache
from repro.sweep import CompileCache, payload_checksum
from repro.sweep.cache import splice_result
from repro.workloads import load_benchmark

_FIELDS = [field.name for field in dataclasses.fields(ScheduledOp)]


def _compile(workload, routing_paths, num_factories):
    config = CompilerConfig(
        routing_paths=routing_paths, num_factories=num_factories
    )
    return FaultTolerantCompiler(config).compile(load_benchmark(workload))


@pytest.fixture(scope="module")
def fast_results():
    """The fast bench matrix, compiled once: ``{case key: result}``."""
    return {
        case.key: _compile(case.workload, case.routing_paths, case.num_factories)
        for case in bench_cases(fast=True)
    }


def _edge_schedules():
    route = ScheduledOp(
        uid=0, kind="route", name="route", qubits=(), cells=((1, 2), (1, 3)),
        start=0.5, duration=1.0, min_start=0.25, gate_index=None,
        note="magic-state from f0",
    )
    gate = ScheduledOp(
        uid=3, kind="gate", name="cx", qubits=(0, 1), cells=((2, 2),),
        start=2.75, duration=3.0, min_start=0.0, gate_index=7,
        note="ψ → résumé ✓",
    )
    integral = ScheduledOp(
        uid=9, kind="move", name="move", qubits=(4,), cells=((0, 0), (0, 1)),
        start=3, duration=1, min_start=2, gate_index=None, note="",
    )
    bare = ScheduledOp(
        uid=10, kind="gate", name="s", qubits=(5,), cells=(),
        start=1e-3, duration=0.1, min_start=0.0, gate_index=0, note="",
    )
    return {
        "empty": Schedule(),
        "route-without-qubits": Schedule([route]),
        "mixed": Schedule([route, gate, integral, bare]),
    }


def _assert_identical_ops(got, want):
    """Same ops, field by field, with the same Python types."""
    assert len(got) == len(want)
    for decoded, original in zip(got, want):
        for name in _FIELDS:
            value, expected = getattr(decoded, name), getattr(original, name)
            assert value == expected, (original.uid, name)
            assert type(value) is type(expected), (original.uid, name)
        assert all(type(cell) is tuple for cell in decoded.cells)


def _round_trip(result):
    return CompilationResult.from_text(result.to_text())


class TestRoundTrip:
    def test_fast_matrix_ops_decode_exactly(self, fast_results):
        for result in fast_results.values():
            back = _round_trip(result)
            _assert_identical_ops(back.schedule.ops, result.schedule.ops)
            assert back.to_dict() == result.to_dict()
            assert back.fingerprint() == result.fingerprint()

    @pytest.mark.parametrize("label", sorted(_edge_schedules()))
    def test_edge_schedules_decode_exactly(self, fast_results, label):
        schedule = _edge_schedules()[label]
        host = next(iter(fast_results.values()))
        result = dataclasses.replace(host, schedule=schedule)
        back = _round_trip(result)
        _assert_identical_ops(back.schedule.ops, schedule.ops)
        assert result.to_text() == canonical_text(result.to_dict())

    def test_per_op_and_columnar_forms_decode_alike(self, fast_results):
        for result in fast_results.values():
            per_op = Schedule.from_dict(result.schedule.to_dict())
            columnar = Schedule.from_dict(result.schedule.to_columns())
            _assert_identical_ops(columnar.ops, per_op.ops)


class TestOneEncoding:
    def test_live_text_equals_canonical_text_of_to_dict(self, fast_results):
        for result in fast_results.values():
            assert result.to_text() == canonical_text(result.to_dict())

    def test_canonical_text_is_a_fixpoint(self, fast_results):
        """Parsed canonical text is already columnar: re-encoding keeps it."""
        for result in fast_results.values():
            text = result.to_text()
            assert canonical_text(json.loads(text)) == text

    def test_schedule_is_stored_in_columns(self, fast_results):
        result = next(iter(fast_results.values()))
        stored = json.loads(result.to_text())["schedule"]
        assert "ops" not in stored
        assert len(stored["uid"]) == len(result.schedule)
        assert sorted(stored["kinds"]) == sorted(
            result.schedule.kind_histogram()
        )

    def test_torn_columns_are_rejected(self, fast_results):
        result = next(iter(fast_results.values()))
        columns = result.schedule.to_columns()
        for name, cut in (("start", -1), ("qubits", -1), ("cells", -1)):
            torn = dict(columns, **{name: columns[name][:cut]})
            with pytest.raises(ValueError):
                Schedule.from_dict(torn)


def _entry_path(root, key):
    return root / key[:2] / f"{key}.json"


def _hand_written(root, key, per_op, checksum, layout):
    """An entry written by hand with a per-op result: in the spliced
    layout the reader hashes the result bytes as they are; with unsorted
    keys it cannot split them and judges the parsed payload."""
    path = _entry_path(root, key)
    path.parent.mkdir(parents=True)
    if layout == "spliced":
        header = {"checksum": checksum, "key": key}
        raw = splice_result(header, json.dumps(per_op, sort_keys=True))
    else:
        raw = json.dumps({"result": per_op, "key": key, "checksum": checksum})
    path.write_text(raw)
    return path


@pytest.mark.parametrize("layout", ["spliced", "unsorted"])
class TestHandWrittenEntries:
    KEY = "ab" * 32

    def test_checksum_over_canonical_text_is_served(
        self, tmp_path, fast_results, layout
    ):
        result = next(iter(fast_results.values()))
        per_op = result.to_dict()
        _hand_written(
            tmp_path, self.KEY, per_op,
            payload_checksum(canonical_text(per_op)), layout,
        )
        cache = CompileCache(tmp_path)
        loaded = cache.get_result(self.KEY)
        assert loaded is not None
        _assert_identical_ops(loaded.schedule.ops, result.schedule.ops)
        assert cache.get(self.KEY) == result.to_text()
        assert cache.quarantined == 0

    def test_checksum_over_per_op_text_is_quarantined(
        self, tmp_path, fast_results, layout
    ):
        result = next(iter(fast_results.values()))
        per_op = result.to_dict()
        own_text = json.dumps(per_op, sort_keys=True)
        path = _hand_written(
            tmp_path, self.KEY, per_op, payload_checksum(own_text), layout
        )
        cache = CompileCache(tmp_path)
        assert cache.get_result(self.KEY) is None
        assert cache.quarantined == 1
        assert (tmp_path / "quarantine" / path.name).is_file()


def test_peer_held_per_op_text_is_refused_by_the_client(tmp_path, fast_results):
    """The peer stores checksummed bytes without parsing them; the client
    decoding a per-op text it was served counts it corrupt and misses."""
    result = next(iter(fast_results.values()))
    key = "cd" * 32
    with CachePeerThread(cache=CompileCache(tmp_path)) as peer:
        with RemoteCache(*peer.address) as remote:
            remote.put(key, json.dumps(result.to_dict(), sort_keys=True))
            assert remote.get_result(key) is None
            assert remote.corrupt == 1


class TestSize:
    def test_largest_entry_shrinks(self):
        """The bench matrix's largest entry: columnar text at most 0.4x
        the size of the per-op text."""
        result = _compile("ising_2d_10x10", 4, 2)
        per_op = json.dumps(result.to_dict(), sort_keys=True)
        assert len(result.to_text()) <= 0.4 * len(per_op)
