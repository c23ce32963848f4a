"""Request coalescing, backpressure and metrics for the compile service.

:class:`CompileBroker` sits between the connection handlers and one
persistent :class:`~repro.sweep.SweepEngine`.  For every compile request
it resolves, in order:

1. **coalesce** — an identical request (same content-addressed job key)
   is already in flight: piggyback on its future instead of compiling the
   same job twice.  This is what makes a thundering herd of identical
   requests cost one compilation.
2. **warm hit** — one of the engine's cache tiers (memo, on-disk sweep
   cache, or a remote ``cache-serve`` peer) already holds the result:
   serve it with zero recompilation.
3. **compile** — dispatch to the engine's long-lived process pool, but
   only while fewer than ``max_pending`` distinct jobs are in flight;
   beyond that a request may wait up to ``queue_wait`` seconds for a slot
   (zero by default) before the broker sheds it with
   :class:`OverloadedError` (the ``overloaded`` error code) rather than
   queueing unboundedly.

Each distinct job is resolved by a **broker-owned task**, not by the
request handler that happened to arrive first.  That is the
fault-isolation boundary for client disconnects: a handler that goes away
(its coroutine is cancelled) merely detaches from the shared future, and
when the *last* waiter detaches the broker abandons the job — cancelling
it if it is still queued, but letting an already-running compile finish
so its result warms the memo and disk cache for the inevitable retry.

Engine calls that touch the disk cache or replay-validate a schedule run
on the default thread executor so the event loop keeps serving other
connections while they grind.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import time
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..compiler.config import CompilerConfig
from ..compiler.result import CompilationResult
from ..ir.circuit import Circuit
from ..sweep.jobs import job_key


class OverloadedError(RuntimeError):
    """The bounded in-flight compile queue is full; the request was shed."""


class LatencyWindow:
    """Percentiles over a sliding window of recent request latencies."""

    def __init__(self, maxlen: int = 2048) -> None:
        self._samples: Deque[float] = deque(maxlen=maxlen)

    def add(self, seconds: float) -> None:
        self._samples.append(seconds)

    def __len__(self) -> int:
        return len(self._samples)

    def percentile(self, fraction: float) -> Optional[float]:
        """The ``fraction``-quantile (nearest-rank) in seconds, or None."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        # nearest-rank: the ceil(f*n)-th smallest sample (1-based)
        rank = math.ceil(fraction * len(ordered)) - 1
        return ordered[min(len(ordered) - 1, max(0, rank))]

    def snapshot(self) -> Dict[str, Optional[float]]:
        def _ms(value: Optional[float]) -> Optional[float]:
            return None if value is None else round(value * 1000.0, 3)

        return {
            "samples": len(self._samples),
            "p50_ms": _ms(self.percentile(0.50)),
            "p95_ms": _ms(self.percentile(0.95)),
        }


class EndpointMetrics:
    """Counters and latency window for one protocol op."""

    def __init__(self) -> None:
        self.requests = 0
        self.errors: Dict[str, int] = {}
        self.latency = LatencyWindow()

    def record(self, wall: float, error_code: Optional[str] = None) -> None:
        self.requests += 1
        self.latency.add(wall)
        if error_code is not None:
            self.errors[error_code] = self.errors.get(error_code, 0) + 1

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "errors": dict(sorted(self.errors.items())),
            **self.latency.snapshot(),
        }


class ServiceMetrics:
    """Everything a ``stats`` response reports about this server process."""

    def __init__(self) -> None:
        self.started = time.monotonic()
        self.connections = 0
        self.endpoints: Dict[str, EndpointMetrics] = {}
        # compile-specific resolution counters (sources + sheds)
        self.coalesced = 0
        self.memo_hits = 0
        self.disk_hits = 0
        self.remote_hits = 0
        self.compiled = 0
        self.overloaded = 0
        self.validation_failures = 0
        # fault-tolerance counters
        self.timeouts = 0  # requests answered with the `timeout` code
        self.compile_failures = 0  # requests answered with `compile-failed`
        self.disconnects = 0  # clients that vanished mid-request
        self.abandoned = 0  # jobs whose last waiter disconnected

    def endpoint(self, op: str) -> EndpointMetrics:
        metrics = self.endpoints.get(op)
        if metrics is None:
            metrics = self.endpoints[op] = EndpointMetrics()
        return metrics

    def record_source(self, source: str) -> None:
        if source == "coalesced":
            self.coalesced += 1
        elif source == "memo":
            self.memo_hits += 1
        elif source == "disk":
            self.disk_hits += 1
        elif source == "remote":
            self.remote_hits += 1
        elif source == "compiled":
            self.compiled += 1

    @property
    def cache_hits(self) -> int:
        """Requests served without compiling (memo + disk + remote)."""
        return self.memo_hits + self.disk_hits + self.remote_hits

    def snapshot(self) -> dict:
        return {
            "uptime_s": round(time.monotonic() - self.started, 3),
            "connections": self.connections,
            "endpoints": {
                op: metrics.snapshot()
                for op, metrics in sorted(self.endpoints.items())
            },
            "compile": {
                "coalesced": self.coalesced,
                "memo_hits": self.memo_hits,
                "disk_hits": self.disk_hits,
                "remote_hits": self.remote_hits,
                "cache_hits": self.cache_hits,
                "compiled": self.compiled,
                "overloaded": self.overloaded,
                "validation_failures": self.validation_failures,
                "timeouts": self.timeouts,
                "compile_failures": self.compile_failures,
            },
            "faults": {
                "disconnects": self.disconnects,
                "abandoned_jobs": self.abandoned,
            },
        }


class _InflightJob:
    """One distinct job being resolved by a broker-owned task."""

    __slots__ = ("future", "task", "waiters", "compiling")

    def __init__(self, future: asyncio.Future) -> None:
        self.future = future
        self.task: Optional[asyncio.Task] = None
        self.waiters = 0
        self.compiling = False  # a worker is grinding on it right now


class CompileBroker:
    """Coalesces compile requests onto one persistent sweep engine.

    Args:
        engine: a :class:`~repro.sweep.SweepEngine` (persistent mode) — or
            any object with its ``cached_result`` / ``submit`` / ``adopt``
            trio, which is what the unit tests exploit.
        max_pending: bound on *distinct* jobs compiling at once; requests
            that would exceed it are shed with :class:`OverloadedError`.
            Coalesced and cache-served requests never count against it.
        queue_wait: seconds a request may wait for a compile slot before
            being shed (0 = shed immediately, the classic behaviour).
    """

    def __init__(
        self, engine, max_pending: int = 32, queue_wait: float = 0.0
    ) -> None:
        self.engine = engine
        self.max_pending = max(0, int(max_pending))
        self.queue_wait = max(0.0, float(queue_wait))
        self.metrics = ServiceMetrics()
        self._inflight: Dict[str, _InflightJob] = {}
        self._compiling = 0
        self._slot_waiters: Deque[asyncio.Future] = deque()

    @property
    def pending(self) -> int:
        """Distinct jobs currently compiling (cache lookups don't count)."""
        return self._compiling

    async def resolve(
        self, circuit: Circuit, config: CompilerConfig
    ) -> Tuple[CompilationResult, str, str]:
        """Resolve one compile request to ``(result, source, key)``.

        Raises :class:`OverloadedError` on backpressure shed and
        :class:`~repro.verify.ValidationError` when the engine validates
        and the schedule (fresh or cached) fails replay.  Cancelling this
        coroutine (request deadline, client disconnect) detaches the
        request from the shared job without disturbing other waiters.
        """
        loop = asyncio.get_running_loop()
        # keying hashes the whole gate stream — keep it off the event loop
        key = await loop.run_in_executor(None, job_key, circuit, config)

        job = self._inflight.get(key)
        if job is None:
            coalesced = False
            job = _InflightJob(loop.create_future())
            # a shed or abandoned job must not warn "exception never
            # retrieved" when no waiter is left to await it
            job.future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None
            )
            self._inflight[key] = job
            job.task = asyncio.ensure_future(
                self._run_job(key, circuit, config, job)
            )
        else:
            coalesced = True
            self.metrics.record_source("coalesced")

        job.waiters += 1
        try:
            # shield: this waiter being cancelled must not cancel the
            # shared future other waiters (and the memo) depend on
            result, source = await asyncio.shield(job.future)
        finally:
            job.waiters -= 1
            if job.waiters == 0 and not job.future.done():
                await self._abandon(key, job)
        if coalesced:
            source = "coalesced"
        return result, source, key

    async def _run_job(
        self, key: str, circuit: Circuit, config: CompilerConfig, job: _InflightJob
    ) -> None:
        """Resolve one distinct job (broker-owned, survives its requesters)."""
        loop = asyncio.get_running_loop()
        try:
            hit = await loop.run_in_executor(
                None, self.engine.cached_result, circuit, config, key
            )
            if hit is not None:
                result, source = hit
            else:
                await self._acquire_slot(loop)
                job.compiling = True
                try:
                    text = await asyncio.wrap_future(
                        self.engine.submit(circuit, config), loop=loop
                    )
                    result = await loop.run_in_executor(
                        None, self.engine.adopt, circuit, config, text, key
                    )
                finally:
                    job.compiling = False
                    self._release_slot()
                source = "compiled"
            self.metrics.record_source(source)
            if not job.future.done():
                job.future.set_result((result, source))
        except asyncio.CancelledError:
            if not job.future.done():
                job.future.cancel()
            raise
        except BaseException as exc:  # noqa: BLE001 — shipped to the waiters
            if isinstance(exc, OverloadedError):
                self.metrics.overloaded += 1
            if not job.future.done():
                job.future.set_exception(exc)
        finally:
            if self._inflight.get(key) is job:
                del self._inflight[key]

    async def _abandon(self, key: str, job: _InflightJob) -> None:
        """Last waiter disconnected: stop queued work, keep running work.

        A job still waiting for a compile slot is cancelled outright — it
        would burn a worker nobody is listening for.  A job already
        compiling is left to finish: the result lands in the memo and the
        disk cache, so the client's retry (same content-addressed key)
        becomes a warm hit instead of a second compile.
        """
        self.metrics.abandoned += 1
        if job.compiling or job.task is None or job.task.done():
            return
        job.task.cancel()
        with contextlib.suppress(asyncio.CancelledError, Exception):
            await job.task

    # -- compile-slot accounting ---------------------------------------------

    async def _acquire_slot(self, loop: asyncio.AbstractEventLoop) -> None:
        """Take one of ``max_pending`` compile slots or raise OverloadedError.

        With a ``queue_wait`` budget the request parks on a FIFO waiter
        future that :meth:`_release_slot` resolves as slots free up.
        """
        if self._compiling < self.max_pending:
            self._compiling += 1
            return
        if self.queue_wait <= 0.0:
            raise OverloadedError(
                f"{self._compiling} compile job(s) in flight "
                f"(max_pending={self.max_pending}); retry later"
            )
        deadline = loop.time() + self.queue_wait
        while self._compiling >= self.max_pending:
            remaining = deadline - loop.time()
            if remaining <= 0.0:
                raise OverloadedError(
                    f"no compile slot freed within queue_wait="
                    f"{self.queue_wait:.3g}s "
                    f"(max_pending={self.max_pending}); retry later"
                )
            waiter: asyncio.Future = loop.create_future()
            self._slot_waiters.append(waiter)
            try:
                await asyncio.wait_for(waiter, timeout=remaining)
            except asyncio.TimeoutError:
                raise OverloadedError(
                    f"no compile slot freed within queue_wait="
                    f"{self.queue_wait:.3g}s "
                    f"(max_pending={self.max_pending}); retry later"
                ) from None
            finally:
                with contextlib.suppress(ValueError):
                    self._slot_waiters.remove(waiter)
        self._compiling += 1

    def _release_slot(self) -> None:
        self._compiling -= 1
        while self._slot_waiters:
            waiter = self._slot_waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                break
