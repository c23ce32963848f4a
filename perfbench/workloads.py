"""The benchmark's four workloads.

Each workload is set up (possibly several times, to time set-up), then
runs timed passes.  A pass is a fixed amount of work whose order the
seed decides; every operation's output is checked right after its timer
stops, so checks never count towards a latency or a pass wall.  Each
operation's latency carries its kind (a matrix point, a headline call, a
cache entry), so a run can take a median per kind.
"""

from __future__ import annotations

import random
import shutil
import statistics
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.baselines.litinski import compact_block, fast_block
from repro.compiler.config import CompilerConfig
from repro.compiler.pipeline import FaultTolerantCompiler
from repro.metrics.spacetime import geometric_mean
from repro.perf import bench_cases
from repro.sweep import CompileCache, SweepEngine, job_key, use_engine
from repro.verify import validate_result
from repro.workloads import load_benchmark

from . import layers
from .hostspeed import HostProbe
from .stats import summarize, tail_percentile
from .tracing import Tracer


class PassResult:
    """What one timed pass produced."""

    __slots__ = ("latencies", "wall", "counters")

    def __init__(self, latencies: List[Tuple[str, float]], wall: float, counters: Dict[str, float]) -> None:
        self.latencies = latencies  # (kind, seconds), one per operation
        self.wall = wall  # seconds
        self.counters = counters  # per-layer counts, keyed by metric name


def qubit_reduction(result, num_qubits: int) -> float:
    """Share of compute qubits saved against the best Litinski block layout."""
    block = min(compact_block().qubits(num_qubits), fast_block().qubits(num_qubits))
    return 1.0 - result.compute_qubits / block


class Workload:
    """Shared bookkeeping: the seeded RNG, attempted/failed counts, quality."""

    name = ""
    #: the module a fresh process imports before it can run the workload
    stack = "repro"
    #: wrap traced passes in the program's phase profiler (in-process
    #: compiles only: the profiler is per process and not thread-safe)
    profiled = False
    #: untraced passes a run makes however long they take
    min_passes = 1
    #: when set, the end-to-end timings come from the first this many
    #: untraced passes only: for a workload whose passes differ by index,
    #: so that every run times the same work whatever the host's speed
    sample_passes: Optional[int] = None

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.tiny = tiny
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.attempted = 0
        self.problems: List[str] = []
        # per reported compile: (makespan, time / lower bound, qubit reduction)
        self.quality_rows: Dict[str, Tuple[float, float, float]] = {}
        self.extra: Dict[str, float] = {}
        # the host-speed probe measure() samples around every pass
        self.probe = HostProbe()

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(message)

    def check_valid(self, result, circuit, config, label: str) -> None:
        report = validate_result(result, circuit, config, label=label)
        self.check(report.ok, f"{label}: schedule failed replay validation")

    def record_quality(self, key: str, result, num_qubits: int) -> None:
        self.quality_rows[key] = (
            result.execution_time,
            result.time_vs_lower_bound,
            qubit_reduction(result, num_qubits),
        )

    def quality(self) -> Dict[str, float]:
        rows = list(self.quality_rows.values())
        return {
            "makespan_total_d": sum(row[0] for row in rows),
            "time_overhead_x": sum(row[1] for row in rows) / len(rows),
            "qubit_reduction_pct": 100.0 * sum(row[2] for row in rows) / len(rows),
        }

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, tracer: Optional[Tracer]) -> PassResult:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run (after timing)."""

    def close(self) -> None:
        """Stop everything the workload started."""


def _config(case) -> CompilerConfig:
    return CompilerConfig(routing_paths=case.routing_paths, num_factories=case.num_factories)


class CompileMatrix(Workload):
    """Every bench-matrix point compiled serially, no cache, seeded order."""

    name = "compile_matrix"
    stack = "repro.compiler.pipeline"
    profiled = True
    min_passes = 3

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        self.cases = bench_cases(fast=tiny)
        self.reference: Dict[str, dict] = {}

    def setup(self) -> None:
        self.circuits = {case.workload: load_benchmark(case.workload) for case in self.cases}
        self.configs = {case.key: _config(case) for case in self.cases}

    def run_pass(self, index: int, tracer: Optional[Tracer]) -> PassResult:
        order = list(self.cases)
        self.rng.shuffle(order)
        latencies = []
        results = []
        for case in order:
            circuit = self.circuits[case.workload]
            config = self.configs[case.key]
            start = perf_counter()
            result = FaultTolerantCompiler(config).compile(circuit)
            latencies.append((case.key, perf_counter() - start))
            fingerprint = result.fingerprint()
            reference = self.reference.setdefault(case.key, fingerprint)
            self.check(fingerprint == reference, f"{case.key}: fingerprint changed between passes")
            self.check_valid(result, circuit, config, case.key)
            self.record_quality(case.key, result, circuit.num_qubits)
            results.append(result)
        counters = layers.scheduler_counters([r.stats for r in results], [r.aux_stats for r in results])
        return PassResult(latencies, sum(t for _, t in latencies), counters)


class PaperHeadline(Workload):
    """``repro experiment headline`` at paper scale through a memo-only engine."""

    name = "paper_headline"
    stack = "repro.experiments.headline"
    profiled = True

    _CALLS = ("compile_ours", "evaluate_block", "evaluate_dascot", "evaluate_line_sam")

    def setup(self) -> None:
        from repro.experiments import headline

        # what the sweep planner does before a run: build the grid's circuits
        self.jobs = headline.jobs(fast=self.tiny)

    def run_pass(self, index: int, tracer: Optional[Tracer]) -> PassResult:
        from repro.experiments import headline
        from repro.experiments.runner import config_for

        calls = Tracer()
        outputs: List[Tuple[str, object, object, dict]] = []
        probing = 0.0

        def keep(span, args, kwargs, result):
            nonlocal probing
            outputs.append((span.name, args[0], result, kwargs))
            # a pass outlasts the host's speed swings, so sample the host
            # between calls too (outside every call's span and the wall)
            probing += self.probe.sample()

        for name in self._CALLS:
            calls.wrap(headline, name, name, keep)
        calls.recording = True
        engine = SweepEngine()
        try:
            start = perf_counter()
            with use_engine(engine):
                table = headline.run(fast=self.tiny)
            wall = perf_counter() - start - probing
        finally:
            calls.unwrap_all()
            engine.shutdown()
        # the headline makes the same calls in the same order every pass
        latencies = [(f"{i}:{span.name}", span.duration) for i, span in enumerate(calls.spans)]
        compiled = [(circuit, result, kw) for name, circuit, result, kw in outputs if name == "compile_ours"]
        for circuit, result, kw in compiled:
            config = config_for(kw["routing_paths"], kw["num_factories"])
            self.check_valid(result, circuit, config, f"{circuit.name}/r{kw['routing_paths']}")
        self._check_table(outputs, table)
        results = [result for _, result, _ in compiled]
        counters = layers.scheduler_counters([r.stats for r in results], [r.aux_stats for r in results])
        return PassResult(latencies, wall, counters)

    def _check_table(self, outputs, table) -> None:
        """Recompute the headline rows from the calls' outputs; compare."""
        by_model: Dict[str, Dict[str, list]] = {}
        for name, circuit, result, _ in outputs:
            by_model.setdefault(circuit.name, {}).setdefault(name, []).append((circuit, result))
        reductions, overheads, dascot, line_sam = [], [], [], []
        self.quality_rows.clear()
        for model, calls in by_model.items():
            best = None
            for _, result in calls["compile_ours"]:
                if best is None or result.spacetime_volume(True) < best.spacetime_volume(True):
                    best = result
            blocks = [result.compute_qubits for _, result in calls["evaluate_block"]]
            reductions.append(1.0 - best.compute_qubits / min(blocks))
            overheads.append(best.time_vs_lower_bound)
            dascot_result = calls["evaluate_dascot"][0][1]
            dascot.append(
                dascot_result.spacetime_volume_per_op(False)
                / best.spacetime_volume(False) * max(1, best.profile.num_gates)
            )
            line_sam_result = calls["evaluate_line_sam"][0][1]
            line_sam.append(line_sam_result.spacetime_volume(True) / best.spacetime_volume(True))
            self.quality_rows[model] = (best.execution_time, best.time_vs_lower_bound, reductions[-1])
        self.extra = {
            "dascot_ratio_x": geometric_mean(dascot),
            "line_sam_ratio_x": geometric_mean(line_sam),
        }
        expected = [
            f"{100 * sum(reductions) / len(reductions):.0f}%",
            f"{sum(overheads) / len(overheads):.2f}x",
            f"{self.extra['dascot_ratio_x']:.2f}x",
            f"{self.extra['line_sam_ratio_x']:.2f}x",
        ]
        printed = table.column("measured")
        self.check(printed == expected, f"headline table {printed} != recomputed {expected}")


class CacheTiers(Workload):
    """Fills and hits at every cache tier over the bench matrix's entries."""

    name = "cache_tiers"
    stack = "repro.service"

    _READS = ("memo", "disk", "remote")
    # an operation reads one entry back from each tier (summed): per-tier
    # reads are trimodal, so a percentile over them would flip between tiers
    min_passes = 2

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        self.cases = bench_cases(fast=tiny)
        self.peer = None
        self.fills: List[float] = []

    def setup(self) -> None:
        from repro.service import CachePeerThread

        self.entries = []
        circuits = {case.workload: load_benchmark(case.workload) for case in self.cases}
        for case in self.cases:
            circuit, config = circuits[case.workload], _config(case)
            result = FaultTolerantCompiler(config).compile(circuit)
            self.entries.append((case.key, job_key(circuit, config), circuit, config, result))
            self.record_quality(case.key, result, circuit.num_qubits)
        self.peer = CachePeerThread(cache=CompileCache(self.workdir / "cache-peer"), allow_shutdown=False)
        self.peer.start()

    def _engine(self, directory: Path) -> SweepEngine:
        from repro.service import RemoteCache

        return SweepEngine(cache=CompileCache(directory), remote=RemoteCache(*self.peer.address))

    def run_pass(self, index: int, tracer: Optional[Tracer]) -> PassResult:
        root = self.workdir / f"cache-pass-{index}"
        shutil.rmtree(root, ignore_errors=True)
        writer = self._engine(root / "writer")
        reader = self._engine(root / "reader")
        reads: Dict[str, float] = defaultdict(float)  # per entry, all tiers
        wall = 0.0
        try:
            order = list(self.entries)
            self.rng.shuffle(order)
            # a pass lasts seconds: sample the host after every operation
            # too (outside its timer)
            for label, key, circuit, config, result in order:
                start = perf_counter()
                writer.tiers.fill(key, result)
                elapsed = perf_counter() - start
                self.probe.sample()
                self.fills.append(elapsed)
                wall += elapsed
            for tier in self._READS:
                if tier == "disk":
                    writer.clear_memo()
                engine = reader if tier == "remote" else writer
                self.rng.shuffle(order)
                for label, key, circuit, config, result in order:
                    start = perf_counter()
                    hit = engine.cached_result(circuit, config, key)
                    elapsed = perf_counter() - start
                    self.probe.sample()
                    reads[label] += elapsed
                    wall += elapsed
                    self.check(hit is not None and hit[1] == tier, f"{label}: expected a {tier} hit, got {hit and hit[1]}")
                    if hit is not None:
                        self.check(
                            hit[0].fingerprint() == result.fingerprint(),
                            f"{label}: {tier} hit changed the fingerprint",
                        )
                        if tier != "memo":
                            self.check_valid(hit[0], circuit, config, f"{label}/{tier}")
            compiled = writer.counters.compiled + reader.counters.compiled
            self.check(compiled == 0, f"cache reads compiled {compiled} job(s)")
            lookups = writer.counters.requests + reader.counters.requests
            hits = lookups - compiled
            entry_bytes = sum(path.stat().st_size for path in (root / "writer").rglob("*.json"))
        finally:
            writer.shutdown()
            reader.shutdown()
            shutil.rmtree(root, ignore_errors=True)
        counters = {
            "sweep.entry_bytes": float(entry_bytes),
            "sweep.compiled": float(compiled),
            "sweep.hit_ratio": hits / lookups if lookups else 0.0,
        }
        return PassResult(list(reads.items()), wall, counters)

    def finish(self) -> None:
        # memo hits hand back these very objects; disk and remote hits
        # were validated as they were read
        for label, key, circuit, config, result in self.entries:
            self.check_valid(result, circuit, config, label)
        if tail_percentile(len(self.fills)) is None:
            return  # too few fills (a short traced run) for the rule
        p50, tail, pct, count = summarize(self.fills)
        self.extra[f"fill_p50_ms (n={count})"] = p50 * 1000.0
        self.extra[f"fill_p{pct}_ms (n={count})"] = tail * 1000.0

    def close(self) -> None:
        if self.peer is not None:
            self.peer.stop()
            self.peer = None
        shutil.rmtree(self.workdir / "cache-peer", ignore_errors=True)


class GatewayMixed(Workload):
    """Two closed-loop HTTP clients against an in-process gateway fleet."""

    name = "gateway_mixed"
    stack = "repro.gateway"

    CLIENTS = 2
    REPEATS = 17  # per client and pass, next to 3 cold compiles (15% cold)
    MODELS = ("ising", "heisenberg", "fermi_hubbard")
    # pass k compiles other cold points than pass k + 1, and those cost
    # more or less: time the same six passes in every run (240 requests)
    min_passes = sample_passes = 6

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        self.cluster = None
        self.sides = (2, 4) if tiny else (4, 6)
        self.warm = [
            (case.workload, {"routing_paths": case.routing_paths, "num_factories": case.num_factories})
            for case in bench_cases(fast=tiny)
            if int(case.workload.rsplit("_", 1)[1].split("x")[0]) in self.sides
        ]
        # Cold compiles cost up to ten times more at small r and one
        # factory, and differ by strategy and lookahead, so pass k compiles
        # every model and side at the k-th (r, factories) pair of one fixed
        # order, each point with the next strategy and lookahead (never the
        # defaults of a warm point) of one fixed order: pass k costs the
        # same whatever the seed.  The seed picks the repeats and every order.
        top_r = 6 if tiny else 8  # a 2x2 layout admits r <= 6
        self.rf_order = [(r, f) for r in range(3, top_r + 1) for f in range(1, 5)]
        fixed = random.Random(0)
        fixed.shuffle(self.rf_order)
        warm_keys = {(name, tuple(sorted(cfg.items()))) for name, cfg in self.warm}
        self.variants: Dict[Tuple[str, int, int], list] = {}
        for model in self.MODELS:
            for side in self.sides:
                workload = f"{model}_2d_{side}x{side}"
                for r, f in self.rf_order:
                    is_warm = (workload, (("num_factories", f), ("routing_paths", r))) in warm_keys
                    options = [
                        (strategy, lookahead)
                        for strategy in ("default", "balanced")
                        for lookahead in (True, False)
                        if not (is_warm and strategy == "default" and lookahead)
                    ]
                    fixed.shuffle(options)
                    self.variants[workload, r, f] = options
        self.served: Dict[Tuple[str, tuple], dict] = {}
        self.walls: List[float] = []

    def _streams(self, index: int) -> List[list]:
        """Each client's seeded requests for pass ``index``."""
        r, f = self.rf_order[index % len(self.rf_order)]
        cold = []
        for model in self.MODELS:
            for side in self.sides:
                workload = f"{model}_2d_{side}x{side}"
                options = self.variants[workload, r, f]
                if not options:
                    raise RuntimeError("gateway_mixed ran out of cold points; shorten the run")
                strategy, lookahead = options.pop()
                cold.append((workload, {"routing_paths": r, "num_factories": f,
                                        "strategy": strategy, "lookahead": lookahead}))
        # each client compiles every model once per pass, one client two
        # of them small and the other two of them large, swapping each pass
        small, large = cold[0::2], cold[1::2]
        streams = [[small[0], large[1], small[2]], [large[0], small[1], large[2]]]
        if index % 2:
            streams.reverse()
        for stream in streams:
            stream += [self.rng.choice(self.warm) for _ in range(self.REPEATS)]
            self.rng.shuffle(stream)
        return streams

    def setup(self) -> None:
        from repro.gateway import GatewayCluster
        from repro.gateway.client import GatewayClient

        state = self.workdir / "gateway"
        self.cluster = GatewayCluster(shards=2, jobs=1, cache_dir=str(state)).start()
        with GatewayClient(*self.cluster.address) as client:
            for workload, cfg in self.warm:
                payload = client.compile(workload=workload, **cfg)
                self._record(workload, cfg, payload)

    def _record(self, workload: str, cfg: dict, payload: dict) -> Optional[dict]:
        ok = payload.get("status") == "done"
        self.check(ok, f"{workload} {cfg}: job ended {payload.get('status')}: {payload.get('error')}")
        if not ok:
            return None
        fingerprint = payload["result"]["fingerprint"]
        seen = self.served.setdefault((workload, tuple(sorted(cfg.items()))), fingerprint)
        self.check(seen == fingerprint, f"{workload} {cfg}: served two different fingerprints")
        return fingerprint

    def _stats(self) -> Dict[str, float]:
        from repro.gateway.client import GatewayClient
        from repro.service.client import Client

        with GatewayClient(*self.cluster.address) as client:
            stats = client.stats()
        out: Dict[str, float] = {
            "gateway.requests": stats["gateway"]["requests"],
            "gateway.accepted": sum(t["accepted"] for t in stats["gateway"]["tenants"].values()),
            "gateway.warm_hits": sum(t["warm_hits"] for t in stats["gateway"]["tenants"].values()),
            "gateway.shed": sum(t["shed"] for t in stats["gateway"]["tenants"].values()),
            "gateway.dispatched": sum(shard["dispatched"] for shard in stats["shards"]),
        }
        for name in ("compiled", "coalesced", "memo_hits", "overloaded", "timeouts"):
            out[f"service.{name}"] = 0.0
        out["pool.worker_restarts"] = 0.0
        for backend in self.cluster.backends:
            with Client(*backend.address) as client:
                service = client.stats()
            for name in ("compiled", "coalesced", "memo_hits", "overloaded", "timeouts"):
                out[f"service.{name}"] += service["compile"][name]
            out["pool.worker_restarts"] += (service.get("pool") or {}).get("restarts", 0)
        return out

    def run_pass(self, index: int, tracer: Optional[Tracer]) -> PassResult:
        from repro.gateway.client import GatewayClient

        streams = self._streams(index)
        outcomes: List[Tuple[str, dict, object, float]] = []
        lock = threading.Lock()
        before = self._stats()

        def client_loop(client: int) -> None:
            with GatewayClient(*self.cluster.address) as http:
                for seq, (workload, cfg) in enumerate(streams[client]):
                    start = perf_counter()
                    if tracer is not None:
                        with tracer.span("gateway.request", request_id=f"p{index}.c{client}.{seq}"):
                            payload = _compile(http, workload, cfg)
                    else:
                        payload = _compile(http, workload, cfg)
                    elapsed = perf_counter() - start
                    with lock:
                        outcomes.append((workload, cfg, payload, elapsed))

        threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(self.CLIENTS)]
        start = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        wall = perf_counter() - start
        if tracer is None:
            self.walls.append(wall)
        self.check(not any(thread.is_alive() for thread in threads), "a client thread hung")
        sent = sum(len(stream) for stream in streams)
        self.check(len(outcomes) == sent, f"{sent - len(outcomes)} request(s) lost")
        cold_prints = []
        for workload, cfg, payload, _ in outcomes:
            if isinstance(payload, Exception):
                self.check(False, f"{workload} {cfg}: {payload}")
                continue
            fingerprint = self._record(workload, cfg, payload)
            if fingerprint is not None and "strategy" in cfg:
                cold_prints.append(fingerprint)
        after = self._stats()
        counters = {name: after[name] - before[name] for name in after}
        counters.update(layers.scheduler_counters([fp["stats"] for fp in cold_prints]))
        accepted = counters.pop("gateway.accepted")
        http = counters.pop("gateway.requests")
        # the `after` stats call counted itself
        counters["gateway.polls_per_job"] = (http - 1) / accepted if accepted else 0.0
        with GatewayClient(*self.cluster.address) as client:
            latency = client.stats()["gateway"]["latency"]
        counters["gateway.server_p50_ms"] = latency.get("p50_ms") or 0.0
        latencies = [(f"{w} {sorted(cfg.items())}", elapsed) for w, cfg, _, elapsed in outcomes]
        return PassResult(latencies, wall, counters)

    def finish(self) -> None:
        """Every served fingerprint equals a validated in-process compile."""
        per_pass = self.CLIENTS * self.REPEATS + len(self.MODELS) * len(self.sides)
        self.extra["throughput_rps"] = per_pass / statistics.median(self.walls)
        for (workload, cfg_items), fingerprint in self.served.items():
            circuit = load_benchmark(workload)
            config = CompilerConfig(**dict(cfg_items))
            result = FaultTolerantCompiler(config).compile(circuit)
            label = f"{workload} {dict(cfg_items)}"
            self.check(result.fingerprint() == fingerprint, f"{label}: gateway fingerprint differs from an in-process compile")
            self.check_valid(result, circuit, config, label)
            if "strategy" not in dict(cfg_items):
                self.record_quality(label, result, circuit.num_qubits)

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.stop()
            self.cluster = None
        shutil.rmtree(self.workdir / "gateway", ignore_errors=True)


def _compile(client, workload: str, cfg: dict):
    try:
        return client.compile(workload=workload, **cfg)
    except Exception as exc:  # counted as a failed request, never raised
        return exc


WORKLOADS = {
    cls.name: cls for cls in (CompileMatrix, PaperHeadline, CacheTiers, GatewayMixed)
}
