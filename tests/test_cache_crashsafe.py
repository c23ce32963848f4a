"""Crash-safety tests for the on-disk compile cache (repro.sweep.cache).

The cache must be an accelerator, never a liability: torn or tampered
entries are quarantined instead of served, injected I/O errors turn into
counted misses instead of request failures, and a failing store never
breaks the compile that tried to warm it.
"""

import json
import os

import pytest

from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline import FaultTolerantCompiler
from repro.faultinject import ScriptedDiskFaults
from repro.sweep import job_key
from repro.sweep.cache import (
    QUARANTINE_DIR,
    CompileCache,
    FaultInjector,
    payload_checksum,
)
from repro.workloads import load_benchmark

WORKLOAD = "ising_2d_2x2"


@pytest.fixture(scope="module")
def compiled():
    """One real (circuit, config, key, result) tuple, compiled once."""
    circuit = load_benchmark(WORKLOAD)
    config = CompilerConfig(routing_paths=3)
    result = FaultTolerantCompiler(config).compile(circuit)
    return circuit, config, job_key(circuit, config), result


class TestRoundTrip:
    def test_store_then_load(self, tmp_path, compiled):
        _, _, key, result = compiled
        cache = CompileCache(tmp_path)
        cache.put_result(key, result)
        loaded = cache.get_result(key)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()
        assert cache.health() == {
            "hits": 1, "misses": 0, "stores": 1,
            "quarantined": 0, "read_errors": 0, "store_errors": 0,
        }

    def test_entry_carries_checksum(self, tmp_path, compiled):
        _, _, key, result = compiled
        cache = CompileCache(tmp_path)
        cache.put_result(key, result)
        data = json.loads((tmp_path / key[:2] / f"{key}.json").read_text())
        assert data["key"] == key
        assert data["checksum"] == payload_checksum(data["result"])

    def test_missing_entry_is_plain_miss(self, tmp_path):
        cache = CompileCache(tmp_path)
        assert cache.get_result("0" * 64) is None
        assert cache.misses == 1
        assert cache.read_errors == 0
        assert cache.quarantined == 0

    def test_no_tmp_droppings_after_store(self, tmp_path, compiled):
        _, _, key, result = compiled
        CompileCache(tmp_path).put_result(key, result)
        assert list(tmp_path.rglob("*.tmp")) == []


class TestQuarantine:
    def _stored(self, tmp_path, compiled):
        _, _, key, result = compiled
        cache = CompileCache(tmp_path)
        cache.put_result(key, result)
        return cache, key, tmp_path / key[:2] / f"{key}.json"

    def test_truncated_entry_quarantined(self, tmp_path, compiled):
        cache, key, path = self._stored(tmp_path, compiled)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        assert cache.get_result(key) is None
        assert cache.quarantined == 1
        assert not path.exists()
        assert (tmp_path / QUARANTINE_DIR / path.name).exists()
        # the corruption cannot be re-hit: next lookup is a clean miss
        assert cache.get_result(key) is None
        assert cache.quarantined == 1

    def test_checksum_mismatch_quarantined(self, tmp_path, compiled):
        cache, key, path = self._stored(tmp_path, compiled)
        data = json.loads(path.read_text())
        data["result"]["t_states"] = data["result"]["t_states"] + 1
        path.write_text(json.dumps(data))  # stale checksum now
        assert cache.get_result(key) is None
        assert cache.quarantined == 1

    def test_wrong_key_quarantined(self, tmp_path, compiled):
        cache, key, path = self._stored(tmp_path, compiled)
        data = json.loads(path.read_text())
        other = "f" * len(key)
        other_path = tmp_path / other[:2] / f"{other}.json"
        other_path.parent.mkdir(parents=True, exist_ok=True)
        other_path.write_text(json.dumps(data))  # right checksum, wrong address
        assert cache.get_result(other) is None
        assert cache.quarantined == 1

    def test_quarantined_entries_not_counted_as_cached(self, tmp_path, compiled):
        cache, key, path = self._stored(tmp_path, compiled)
        assert len(cache) == 1
        path.write_text("{")
        cache.get_result(key)
        assert cache.quarantined == 1
        assert len(cache) == 0


class TestFaultInjection:
    def test_injected_read_error_is_counted_miss(self, tmp_path, compiled):
        _, _, key, result = compiled
        faults = ScriptedDiskFaults()
        cache = CompileCache(tmp_path, faults=faults)
        cache.put_result(key, result)
        faults.arm(fail_reads=1)
        assert cache.get_result(key) is None
        assert cache.read_errors == 1
        assert cache.quarantined == 0  # the bytes on disk are fine
        # budget spent: the entry is served again
        assert cache.get_result(key) is not None

    def test_injected_write_error_is_swallowed(self, tmp_path, compiled):
        _, _, key, result = compiled
        faults = ScriptedDiskFaults()
        cache = CompileCache(tmp_path, faults=faults)
        faults.arm(fail_writes=1)
        cache.put_result(key, result)  # must not raise
        assert cache.store_errors == 1
        assert cache.stores == 0
        assert cache.get_result(key) is None  # nothing landed
        cache.put_result(key, result)  # budget spent: store works again
        assert cache.get_result(key) is not None

    def test_injected_truncation_quarantined_on_read(self, tmp_path, compiled):
        _, _, key, result = compiled
        faults = ScriptedDiskFaults()
        cache = CompileCache(tmp_path, faults=faults)
        faults.arm(truncate_writes=1)
        cache.put_result(key, result)
        assert faults.truncations == 1
        # an independent reader over the same directory refuses the entry
        reader = CompileCache(tmp_path)
        assert reader.get_result(key) is None
        assert reader.quarantined == 1

    def test_default_injector_is_transparent(self, tmp_path, compiled):
        _, _, key, result = compiled
        cache = CompileCache(tmp_path, faults=FaultInjector())
        cache.put_result(key, result)
        assert cache.get_result(key) is not None
