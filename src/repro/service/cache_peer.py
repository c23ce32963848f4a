"""The cache peer behind ``repro cache-serve``.

A :class:`CachePeer` is the **remote tier's server half**: a small
asyncio TCP endpoint speaking the same newline-delimited JSON codec as
the compile service, backed by one :class:`~repro.sweep.CompileCache`
directory.  It never compiles anything — it only moves verified result
payloads by SHA-256 job key, so a fleet of engines can warm each other.
It never parses a result either: the checksum ``C`` is SHA-256 over the
result's canonical text, so the peer checks it against the bytes of the
frame's ``result`` field, split off unparsed, and splices the same bytes
into the disk entry and into every reply.  Only a frame that is not in
the canonical layout, or whose hash disagrees, is parsed and
canonicalised once more before it is judged.

Ops:

``cache-get``
    ``{"op": "cache-get", "key": K}`` answers
    ``{"ok": true, "found": true, "key": K, "checksum": C, "result": {...}}``
    or ``{"ok": true, "found": false}``.  The checksum lets the client
    reject a torn frame or torn stored entry without trusting the peer.
``cache-put``
    ``{"op": "cache-put", "key": K, "checksum": C, "result": {...}}``.
    The peer checks the checksum against the payload and rejects a
    mismatch with ``bad-request`` — a torn upload can never land.
``stats`` / ``ping`` / ``shutdown``
    As on the compile service (``shutdown`` honoured unless started
    with ``allow_shutdown=False``).

The peer does **not** replay-validate payloads: validation needs the
circuit, which never crosses this wire.  That defense lives in the
engine (every hit from the untrusted remote tier is replay-validated on
ingest before it is served or promoted) — the peer's checksum merely
guarantees the bytes are the bytes that were stored.

``faults`` is the chaos seam: a
:class:`~repro.faultinject.ScriptedPeerFaults` can make a ``cache-get``
reset the connection mid-frame or serve a deliberately torn entry.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Dict, Optional, Tuple

from .. import __version__
from ..sweep import CompileCache
from ..sweep.cache import payload_checksum, verified_text
from . import protocol
from .lifecycle import AsyncServer, ServerThread, run_until_signalled
from .remote_cache import DEFAULT_CACHE_PORT

#: 64 hex chars — the only key shape the peer will address storage with.
_KEY_LEN = 64


def _valid_key(key: Any) -> bool:
    return (
        isinstance(key, str)
        and len(key) == _KEY_LEN
        and all(c in "0123456789abcdef" for c in key)
    )


class CachePeer(AsyncServer):
    """A get/put-by-key cache server over one ``CompileCache`` directory.

    Args:
        host / port: bind address (port 0 picks an ephemeral port).
        cache: the backing store (its ``size_budget``/``quarantine_cap``
            bound the peer's disk use).
        allow_shutdown: honour the ``shutdown`` op.
        faults: optional scripted fault hook (chaos harness only) with an
            ``on_get(key) -> None | "reset" | "corrupt"`` method.
    """

    kind = "cache peer"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_CACHE_PORT,
        cache: Optional[CompileCache] = None,
        allow_shutdown: bool = True,
        faults=None,
    ) -> None:
        super().__init__(host, port)
        self.cache = cache if cache is not None else CompileCache()
        self.allow_shutdown = allow_shutdown
        self.faults = faults
        self.requests = 0
        self.rejected_puts = 0

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            line = await self._next_line(reader, writer)
            if line is None:
                return
            self.requests += 1
            response, result, action = await self._dispatch(line)
            data = protocol.encode_line(response, result)
            if action == "reset":
                # chaos: half a frame, then a hard RST mid-response
                writer.write(data[: max(1, len(data) // 2)])
                with contextlib.suppress(Exception):
                    await writer.drain()
                writer.transport.abort()
                return
            writer.write(data)
            await writer.drain()

    async def _dispatch(
        self, line: bytes
    ) -> Tuple[Dict[str, Any], Optional[str], Optional[str]]:
        """Resolve one request to ``(response, result_text, chaos_action)``.

        ``result_text`` is canonical text to splice into the response
        under ``result`` (a ``cache-get`` hit), else None.
        """
        loop = asyncio.get_running_loop()
        try:
            message, text = protocol.decode_header(line)
            op = str(message.get("op", "?"))
            if op == "cache-get":
                return await loop.run_in_executor(
                    None, self._handle_get, message
                )
            if op == "cache-put":
                response = await loop.run_in_executor(
                    None, self._handle_put, message, text
                )
                return response, None, None
            if op == "stats":
                return self._handle_stats(), None, None
            if op == "ping":
                return (
                    {
                        "ok": True,
                        "op": "ping",
                        "version": __version__,
                        "protocol": protocol.PROTOCOL_VERSION,
                    },
                    None,
                    None,
                )
            if op == "shutdown" and self.allow_shutdown:
                self.request_stop()
                return {"ok": True, "op": "shutdown"}, None, None
            raise protocol.ProtocolError(
                protocol.E_BAD_REQUEST, f"unknown op {op!r}"
            )
        except protocol.ProtocolError as exc:
            return protocol.error_response(exc.code, str(exc)), None, None
        except Exception as exc:  # noqa: BLE001 — a request must never kill the peer
            return (
                protocol.error_response(
                    protocol.E_INTERNAL, f"{type(exc).__name__}: {exc}"
                ),
                None,
                None,
            )

    # -- op handlers (run on the executor — they touch disk) ----------------

    def _handle_get(
        self, message: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Optional[str], Optional[str]]:
        key = message.get("key")
        if not _valid_key(key):
            raise protocol.ProtocolError(
                protocol.E_BAD_REQUEST, "'key' must be a 64-char hex job key"
            )
        action = self.faults.on_get(key) if self.faults is not None else None
        text = self.cache.get(key)
        if text is None:
            miss = {"ok": True, "op": "cache-get", "found": False}
            return miss, None, action
        checksum = payload_checksum(text)
        if action == "corrupt":
            # chaos: serve a torn entry — the advertised checksum stays
            # that of the stored bytes, so the client must reject it
            text = text[:-1] + ', "_torn": true}'
        response = {
            "ok": True,
            "op": "cache-get",
            "found": True,
            "key": key,
            "checksum": checksum,
        }
        return response, text, action

    def _handle_put(
        self, message: Dict[str, Any], line: str
    ) -> Dict[str, Any]:
        """Store the request's result under its key, unparsed when canonical.

        ``message`` is the request's header, ``line`` the whole request
        (see :func:`~repro.service.protocol.decode_header`).
        """
        key = message.get("key")
        if not _valid_key(key):
            raise protocol.ProtocolError(
                protocol.E_BAD_REQUEST, "'key' must be a 64-char hex job key"
            )
        try:
            text = verified_text(line, key)
        except (ValueError, KeyError, TypeError):
            self.rejected_puts += 1
            raise protocol.ProtocolError(
                protocol.E_BAD_REQUEST,
                "checksum does not match the payload (torn upload rejected)",
            ) from None
        self.cache.put(key, text)
        return {"ok": True, "op": "cache-put", "stored": True, "key": key}

    def _handle_stats(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "op": "stats",
            "version": __version__,
            "protocol": protocol.PROTOCOL_VERSION,
            "stats": {
                "dir": str(self.cache.root),
                "requests": self.requests,
                "rejected_puts": self.rejected_puts,
                "entries": len(self.cache),
                **self.cache.stats(),
            },
        }


# -- blocking front-ends -------------------------------------------------------


def run_cache_peer(announce=None, **peer_kwargs: Any) -> int:
    """Run a cache peer until SIGINT/SIGTERM (the ``repro cache-serve`` body).

    ``peer_kwargs`` go to :class:`CachePeer`.
    """

    def describe(peer: CachePeer) -> str:
        bound_host, bound_port = peer.address
        budget = peer.cache.size_budget
        budget_note = f", budget {budget} bytes" if budget is not None else ""
        return (
            f"repro cache peer on {bound_host}:{bound_port} "
            f"(store {peer.cache.root}{budget_note})"
        )

    return run_until_signalled(
        lambda: CachePeer(**peer_kwargs), describe, announce
    )


class CachePeerThread(ServerThread):
    """A cache peer on a background thread (see :class:`ServerThread`)."""

    server_class = CachePeer
    thread_name = "repro-cache-peer"

    @property
    def peer(self) -> CachePeer:
        return self.server
