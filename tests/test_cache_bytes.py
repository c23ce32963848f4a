"""Byte-level cache tests: a result is encoded to its canonical text once,
and that exact text is what the disk tier stores, the peer protocol
ships and promotion carries.  The bytes stay identical to encoding the
whole envelope (so entries, frames and keys are unchanged), no hit
re-encodes a result, and every hop still rejects bytes that disagree
with their checksum."""

import json
import socket

import pytest

from repro.compiler.config import CompilerConfig
from repro.compiler.result import CompilationResult
from repro.faultinject import ScriptedPeerFaults
from repro.service import CachePeerThread, RemoteCache, protocol
from repro.sweep import CompileCache, SweepEngine, job_key, payload_checksum
from repro.sweep.tiers import canonical_text
from repro.workloads import ising_2d


@pytest.fixture(scope="module")
def compiled():
    """One compiled job: (circuit, config, key, result) shared read-only."""
    circuit, config = ising_2d(2), CompilerConfig(routing_paths=3)
    engine = SweepEngine()
    result = engine.compile(circuit, config)
    engine.shutdown()
    return circuit, config, job_key(circuit, config), result


def _entry_path(root, key):
    return root / key[:2] / f"{key}.json"


def _stored(result):
    """The result as the tiers store it: parsed canonical text, whose
    schedule is columnar (``to_dict`` keeps one dict per op)."""
    return json.loads(canonical_text(result.to_dict()))


def _canonical_envelope(key, payload):
    return json.dumps(
        {"checksum": payload_checksum(payload), "key": key, "result": payload},
        sort_keys=True,
    )


class TestByteIdentity:
    def test_disk_entry_is_the_canonical_envelope(self, tmp_path, compiled):
        *_, key, result = compiled
        payload = _stored(result)
        CompileCache(tmp_path).put_result(key, result)
        written = _entry_path(tmp_path, key).read_text()
        assert written == _canonical_envelope(key, payload)

    def test_text_and_dict_payloads_write_the_same_bytes(self, tmp_path, compiled):
        *_, key, result = compiled
        payload = result.to_dict()
        CompileCache(tmp_path / "dict").put(key, payload)
        CompileCache(tmp_path / "text").put(key, canonical_text(payload))
        assert (
            _entry_path(tmp_path / "dict", key).read_bytes()
            == _entry_path(tmp_path / "text", key).read_bytes()
        )

    def test_checksum_of_text_equals_checksum_of_dict(self, compiled):
        *_, result = compiled
        payload = result.to_dict()
        assert payload_checksum(canonical_text(payload)) == payload_checksum(payload)

    def test_spliced_frames_equal_encode_line(self, compiled):
        *_, key, result = compiled
        payload = _stored(result)
        text = canonical_text(payload)
        checksum = payload_checksum(payload)
        put = {"op": "cache-put", "key": key, "checksum": checksum}
        reply = {
            "ok": True, "op": "cache-get", "found": True,
            "key": key, "checksum": checksum,
        }
        for header in (put, reply):
            assert protocol.encode_line(header, text) == protocol.encode_line(
                {**header, "result": payload}
            )

    def test_wire_frames_equal_encode_line(self, tmp_path, compiled):
        """What the client sends and the peer answers, byte for byte."""
        *_, key, result = compiled
        payload = _stored(result)
        checksum = payload_checksum(payload)
        with CachePeerThread(cache=CompileCache(tmp_path)) as peer:
            with RemoteCache(*peer.address) as remote:
                sent = []
                exchange = remote._exchange

                def spy(frame):
                    sent.append(frame)
                    return exchange(frame)

                remote._exchange = spy
                remote.put_result(key, result)
            assert sent == [
                protocol.encode_line(
                    {"op": "cache-put", "key": key, "checksum": checksum,
                     "result": payload}
                )
            ]
            with socket.create_connection(peer.address, timeout=5.0) as sock:
                sock.sendall(protocol.encode_line({"op": "cache-get", "key": key}))
                line = sock.makefile("rb").readline()
        assert line == protocol.encode_line(
            {"ok": True, "op": "cache-get", "found": True, "key": key,
             "checksum": checksum, "result": payload}
        )

    def test_decode_header_leaves_result_unparsed(self, compiled):
        *_, key, result = compiled
        text = canonical_text(result.to_dict())
        line = protocol.encode_line({"op": "cache-put", "key": key}, text)
        header, whole = protocol.decode_header(line)
        assert header == {"op": "cache-put", "key": key}
        assert json.loads(whole)["result"] == _stored(result)
        plain = protocol.encode_line({"op": "ping"})
        assert protocol.decode_header(plain)[0] == {"op": "ping"}


class TestWorkCounters:
    def test_encodes_once_per_fill_never_per_hit(
        self, tmp_path, compiled, monkeypatch
    ):
        """1 result encoding per fill; 0 per disk hit; 0 per remote hit,
        including its promotion to disk — counted over engine and peer.
        The fill encodes with ``to_text``, so it builds no per-op dicts."""
        circuit, config, key, result = compiled
        counts = {"dumps": 0, "to_text": 0, "to_dict": 0}
        dumps = json.dumps
        to_text = CompilationResult.to_text
        to_dict = CompilationResult.to_dict

        def counting_dumps(obj, *args, **kwargs):
            if isinstance(obj, dict) and "schedule" in obj:
                counts["dumps"] += 1
            return dumps(obj, *args, **kwargs)

        def counting_to_text(self):
            counts["to_text"] += 1
            return to_text(self)

        def counting_to_dict(self):
            counts["to_dict"] += 1
            return to_dict(self)

        def delta(action):
            before = dict(counts)
            outcome = action()
            return outcome, {name: counts[name] - before[name] for name in counts}

        monkeypatch.setattr(json, "dumps", counting_dumps)
        monkeypatch.setattr(CompilationResult, "to_text", counting_to_text)
        monkeypatch.setattr(CompilationResult, "to_dict", counting_to_dict)
        with CachePeerThread(cache=CompileCache(tmp_path / "peer")) as peer:
            writer = SweepEngine(
                cache=CompileCache(tmp_path / "writer"),
                remote=RemoteCache(*peer.address),
            )
            reader = SweepEngine(
                cache=CompileCache(tmp_path / "reader"),
                remote=RemoteCache(*peer.address),
            )
            try:
                _, fill = delta(lambda: writer.tiers.fill(key, result))
                assert fill == {"dumps": 1, "to_text": 1, "to_dict": 0}

                writer.clear_memo()
                hit, disk = delta(lambda: writer.cached_result(circuit, config, key))
                assert hit[1] == "disk"
                assert disk == {"dumps": 0, "to_text": 0, "to_dict": 0}

                hit, remote = delta(lambda: reader.cached_result(circuit, config, key))
                assert hit[1] == "remote"
                assert remote == {"dumps": 0, "to_text": 0, "to_dict": 0}
                assert hit[0].fingerprint() == result.fingerprint()
            finally:
                writer.shutdown()
                reader.shutdown()
        # the promoted entry is byte-identical to the one the fill wrote
        assert (
            _entry_path(tmp_path / "reader", key).read_bytes()
            == _entry_path(tmp_path / "writer", key).read_bytes()
        )


class TestCorruption:
    def test_flipped_digit_in_canonical_entry_is_quarantined(
        self, tmp_path, compiled
    ):
        *_, key, result = compiled
        cache = CompileCache(tmp_path)
        cache.put_result(key, result)
        path = _entry_path(tmp_path, key)
        raw = path.read_text()
        # flip one digit inside the result field: still valid JSON, still
        # in the canonical layout, but no longer the checksummed bytes
        seam = raw.index('"result": ')
        digit = next(i for i in range(seam, len(raw)) if raw[i].isdigit())
        flipped = "1" if raw[digit] != "1" else "2"
        path.write_text(raw[:digit] + flipped + raw[digit + 1:])
        json.loads(path.read_text())  # the damage is not a parse error
        assert cache.get_result(key) is None
        assert cache.quarantined == 1
        assert (tmp_path / "quarantine" / path.name).is_file()
        assert not path.exists()

    def test_non_canonical_entry_with_valid_checksum_is_served(
        self, tmp_path, compiled
    ):
        *_, key, result = compiled
        payload = result.to_dict()
        path = _entry_path(tmp_path, key)
        path.parent.mkdir(parents=True)
        # unsorted keys and indentation: not the spliced layout, so the
        # reader falls back to canonicalising the parsed payload
        path.write_text(
            json.dumps(
                {"result": payload, "key": key,
                 "checksum": payload_checksum(payload)},
                indent=1,
            )
        )
        cache = CompileCache(tmp_path)
        loaded = cache.get_result(key)
        assert loaded is not None
        assert loaded.fingerprint() == result.fingerprint()
        assert cache.get(key) == canonical_text(payload)
        assert cache.quarantined == 0

    def test_non_canonical_put_frame_is_stored_canonically(
        self, tmp_path, compiled
    ):
        *_, key, result = compiled
        payload = result.to_dict()
        request = {
            "op": "cache-put", "key": key,
            "checksum": payload_checksum(payload), "result": payload,
        }
        with CachePeerThread(cache=CompileCache(tmp_path)) as peer:
            with socket.create_connection(peer.address, timeout=5.0) as sock:
                sock.sendall((json.dumps(request) + "\n").encode())
                reply = protocol.decode_line(sock.makefile("rb").readline())
        assert reply["ok"] and reply["stored"]
        assert _entry_path(tmp_path, key).read_text() == _canonical_envelope(
            key, _stored(result)
        )


class TestTornRemoteEntry:
    def test_peer_corrupt_action_is_counted_and_never_served(
        self, tmp_path, compiled
    ):
        *_, key, result = compiled
        faults = ScriptedPeerFaults()
        with CachePeerThread(
            cache=CompileCache(tmp_path), faults=faults
        ) as peer:
            with RemoteCache(*peer.address) as remote:
                remote.put_result(key, result)
                faults.arm(corrupt_gets=1)
                assert remote.get_result(key) is None
                assert faults.corruptions == 1
                assert remote.corrupt == 1
                # the stored entry itself is intact: the next get serves it
                restored = remote.get_result(key)
                assert restored is not None
                assert restored.fingerprint() == result.fingerprint()
                assert remote.corrupt == 1

    def test_checksummed_garbage_is_a_counted_miss(self, tmp_path, compiled):
        """The peer stores bytes whose hash matches without parsing them;
        a reader that cannot decode them misses instead of raising."""
        circuit, config, key, _ = compiled
        garbage = "[1, 2, 3]"
        with CachePeerThread(cache=CompileCache(tmp_path / "peer")) as peer:
            with RemoteCache(*peer.address) as seeder:
                seeder.put(key, garbage)
                assert seeder.get(key) == garbage
            remote = RemoteCache(*peer.address)
            engine = SweepEngine(
                cache=CompileCache(tmp_path / "local"), remote=remote
            )
            try:
                assert engine.cached_result(circuit, config, key) is None
                assert remote.corrupt == 1
            finally:
                engine.shutdown()
