"""Which layer entry points the traced run wraps, and the per-layer metrics.

Every wrap targets the name the caller looks up at call time: a module
global inside the calling module (``repro.compiler.pipeline.build_layout``)
or a class attribute reached through an instance
(``LatticeSurgeryScheduler.run``).  Routing is timed by the program's own
phase profiler (:func:`repro.perf.profiler.capture`), whose seams already
sit inside the router; everything else is a span recorded here.

``PER_LAYER`` is the list ``BENCHMARK.json`` declares.  Every traced run
reports all of them; a layer its workload never reaches reads 0.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from .tracing import Tracer

_ROUTING_PHASES = ("path", "to_all", "displace", "magic", "space")

#: name -> (unit, better) for every per-layer metric, in report order.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "scheduling.run_ms": ("ms", "lower"),
    "scheduling.self_ms": ("ms", "lower"),
    "scheduling.moves_planned": ("count", "lower"),
    "scheduling.magic_states": ("count", "lower"),
    **{
        f"routing.{phase}_{kind}": (unit, "lower")
        for phase in _ROUTING_PHASES
        for kind, unit in (("ms", "ms"), ("calls", "count"))
    },
    "routing.evictions": ("count", "lower"),
    "routing.restores": ("count", "lower"),
    "routing.restore_cycle_breaks": ("count", "lower"),
    "routing.useful_move_ratio": ("ratio", "higher"),
    "optimize.ms": ("ms", "lower"),
    "optimize.removed_pairs": ("count", "higher"),
    "optimize.kept_op_ratio": ("ratio", "lower"),
    "arch.layout_ms": ("ms", "lower"),
    "strategies.placement_ms": ("ms", "lower"),
    "ir.dag_ms": ("ms", "lower"),
    "synthesis.transpile_ms": ("ms", "lower"),
    "synthesis.transpile_calls": ("count", "lower"),
    "synthesis.rotations": ("count", "lower"),
    "synthesis.absorbed_cliffords": ("count", "lower"),
    "synthesis.unique_circuit_ratio": ("ratio", "higher"),
    "baselines.block_ms": ("ms", "lower"),
    "baselines.dascot_ms": ("ms", "lower"),
    "baselines.line_sam_ms": ("ms", "lower"),
    "experiments.self_ms": ("ms", "lower"),
    **{
        f"sweep.{tier}_{op}_ms": ("ms", "lower")
        for tier in ("memo", "disk", "remote")
        for op in ("get", "put")
    },
    "sweep.checksum_ms": ("ms", "lower"),
    "sweep.checksum_calls": ("count", "lower"),
    "sweep.entry_bytes": ("bytes", "lower"),
    "sweep.hit_ratio": ("ratio", "higher"),
    "sweep.compiled": ("count", "lower"),
    "compiler.to_dict_ms": ("ms", "lower"),
    "compiler.from_dict_ms": ("ms", "lower"),
    "verify.validate_ms": ("ms", "lower"),
    "service.compiled": ("count", "lower"),
    "service.coalesced": ("count", "higher"),
    "service.memo_hits": ("count", "higher"),
    "service.overloaded": ("count", "lower"),
    "service.timeouts": ("count", "lower"),
    "pool.worker_restarts": ("count", "lower"),
    "gateway.warm_hits": ("count", "higher"),
    "gateway.shed": ("count", "lower"),
    "gateway.dispatched": ("count", "lower"),
    "gateway.server_p50_ms": ("ms", "lower"),
    "gateway.polls_per_job": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: counters that must repeat exactly across two runs of one seed (per
#: pass, so they do not depend on how many passes fit in a run).
DETERMINISTIC = (
    "scheduling.moves_planned",
    "scheduling.magic_states",
    *(f"routing.{phase}_calls" for phase in _ROUTING_PHASES),
    "routing.evictions",
    "routing.restores",
    "routing.restore_cycle_breaks",
    "optimize.removed_pairs",
    "synthesis.transpile_calls",
    "synthesis.rotations",
    "synthesis.absorbed_cliffords",
    "sweep.checksum_calls",
    "sweep.entry_bytes",
    "sweep.compiled",
    "service.compiled",
    "service.coalesced",
)

#: span name -> per-layer metric that sums its durations.
_SPAN_MS = {
    "scheduling.run": "scheduling.run_ms",
    "optimize": "optimize.ms",
    "arch.layout": "arch.layout_ms",
    "strategies.placement": "strategies.placement_ms",
    "ir.dag": "ir.dag_ms",
    "synthesis.transpile": "synthesis.transpile_ms",
    "baselines.block": "baselines.block_ms",
    "baselines.dascot": "baselines.dascot_ms",
    "baselines.line_sam": "baselines.line_sam_ms",
    **{
        f"sweep.{tier}_{op}": f"sweep.{tier}_{op}_ms"
        for tier in ("memo", "disk", "remote")
        for op in ("get", "put")
    },
    "sweep.checksum": "sweep.checksum_ms",
    "compiler.to_dict": "compiler.to_dict_ms",
    "compiler.from_dict": "compiler.from_dict_ms",
    "verify.validate": "verify.validate_ms",
}


def _observe_optimize(span, args, kwargs, result) -> None:
    schedule, report = result
    span.attrs["ops_in"] = len(args[0])
    span.attrs["ops_out"] = len(schedule)
    span.attrs["removed_pairs"] = report.removed_pairs


def _observe_transpile(span, args, kwargs, result) -> None:
    from repro.sweep import circuit_fingerprint

    span.attrs["rotations"] = len(result.rotations)
    span.attrs["absorbed_cliffords"] = result.absorbed_cliffords
    span.attrs["circuit"] = circuit_fingerprint(args[0])


def instrument(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark reports on."""
    from repro.baselines import litinski
    from repro.compiler import pipeline
    from repro.compiler.result import CompilationResult
    from repro.experiments import headline
    from repro.scheduling import scheduler
    from repro.service import cache_peer, remote_cache
    from repro.strategies.base import Strategy
    from repro import sweep, verify
    from repro.sweep import cache as disk_cache
    from repro.sweep import tiers

    wrap = tracer.wrap
    wrap(pipeline.FaultTolerantCompiler, "compile", "compiler.compile")
    wrap(pipeline, "build_layout", "arch.layout")
    wrap(Strategy, "initial_placement", "strategies.placement")
    wrap(scheduler, "DagCircuit", "ir.dag")
    wrap(scheduler.LatticeSurgeryScheduler, "run", "scheduling.run")
    wrap(pipeline, "optimize_schedule", "optimize", _observe_optimize)
    wrap(CompilationResult, "to_dict", "compiler.to_dict")
    wrap(CompilationResult, "from_dict", "compiler.from_dict")
    wrap(litinski, "transpile_to_ppr", "synthesis.transpile", _observe_transpile)
    wrap(headline, "run", "experiments.headline")
    wrap(headline, "evaluate_block", "baselines.block")
    wrap(headline, "evaluate_dascot", "baselines.dascot")
    wrap(headline, "evaluate_line_sam", "baselines.line_sam")
    wrap(sweep.SweepEngine, "compile", "sweep.compile")
    wrap(sweep.SweepEngine, "cached_result", "sweep.cached_result")
    wrap(sweep.SweepEngine, "adopt", "sweep.adopt")
    wrap(tiers.TieredCache, "fill", "sweep.fill")
    for cls, tier in (
        (tiers.MemoryCache, "memo"),
        (disk_cache.CompileCache, "disk"),
        (remote_cache.RemoteCache, "remote"),
    ):
        wrap(cls, "get_result", f"sweep.{tier}_get")
        wrap(cls, "put_result", f"sweep.{tier}_put")
    for module in (disk_cache, remote_cache, cache_peer):
        wrap(module, "payload_checksum", "sweep.checksum")
    wrap(verify, "validate_result", "verify.validate")


def layer_metrics(
    tracer: Tracer,
    phases: Mapping[str, dict],
    counters: Mapping[str, float],
    passes: int,
    overhead_s: float,
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric, per traced pass.

    Args:
        tracer: spans of the traced passes.
        phases: merged :class:`repro.perf.profiler.PhaseProfiler` rows
            (``{name: {wall, self, calls}}``) of the traced passes.
        counters: the workload's own counts (scheduler stats, service
            stats, ...), already averaged per traced pass.
        passes: traced passes the spans and phases cover.
        overhead_s: traced minus untraced median pass wall.
    """
    per = 1.0 / max(1, passes)
    totals = tracer.totals()
    out = {name: 0.0 for name in PER_LAYER}
    for span_name, metric in _SPAN_MS.items():
        row = totals.get(span_name)
        if row is not None:
            out[metric] = row["total"] * 1000.0 * per
    if "sweep.checksum" in totals:
        out["sweep.checksum_calls"] = totals["sweep.checksum"]["calls"] * per
    if "synthesis.transpile" in totals:
        calls = totals["synthesis.transpile"]["calls"]
        out["synthesis.transpile_calls"] = calls * per
        out["synthesis.rotations"] = tracer.attr_sum("synthesis.transpile", "rotations") * per
        out["synthesis.absorbed_cliffords"] = (
            tracer.attr_sum("synthesis.transpile", "absorbed_cliffords") * per
        )
        distinct = {
            span.attrs["circuit"] for span in tracer.spans if span.name == "synthesis.transpile"
        }
        out["synthesis.unique_circuit_ratio"] = len(distinct) / calls
    if "experiments.headline" in totals:
        out["experiments.self_ms"] = totals["experiments.headline"]["self"] * 1000.0 * per
    ops_in = tracer.attr_sum("optimize", "ops_in")
    if ops_in:
        out["optimize.kept_op_ratio"] = tracer.attr_sum("optimize", "ops_out") / ops_in
        out["optimize.removed_pairs"] = tracer.attr_sum("optimize", "removed_pairs") * per
    for phase in _ROUTING_PHASES:
        row = phases.get(f"route.{phase}")
        if row is not None:
            out[f"routing.{phase}_ms"] = row["wall"] * 1000.0 * per
            out[f"routing.{phase}_calls"] = row["calls"] * per
    # the scheduler's own code: its phases' exclusive time, which leaves
    # out the router's searches and grid clones nested inside them
    out["scheduling.self_ms"] = 1000.0 * per * sum(
        row["self"] for name, row in phases.items() if name.startswith("schedule.")
    )
    out.update(counters)
    planned = counters.get("scheduling.moves_planned", 0)
    if planned:
        out["routing.useful_move_ratio"] = (
            planned - counters.get("routing.evictions", 0)
        ) / planned
    out["trace.overhead_s"] = overhead_s
    unknown = set(out) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return out


def merge_phases(total: Dict[str, dict], phases: Mapping[str, dict]) -> None:
    """Fold one profiler capture's rows into ``total``."""
    for name, row in phases.items():
        agg = total.setdefault(name, {"wall": 0.0, "self": 0.0, "calls": 0})
        agg["wall"] += row["wall"]
        agg["self"] += row["self"]
        agg["calls"] += row["calls"]


def scheduler_counters(stats, aux=()) -> Dict[str, float]:
    """Scheduler counts summed over compiles' ``stats`` and ``aux_stats``."""
    out = {
        "scheduling.moves_planned": 0.0,
        "scheduling.magic_states": 0.0,
        "routing.evictions": 0.0,
        "routing.restores": 0.0,
        "routing.restore_cycle_breaks": 0.0,
    }
    for row in stats:
        out["scheduling.moves_planned"] += row.get("moves_planned", 0)
        out["scheduling.magic_states"] += row.get("magic_states", 0)
        out["routing.evictions"] += row.get("evictions", 0)
    for row in aux:
        out["routing.restores"] += row.get("restores", 0)
        out["routing.restore_cycle_breaks"] += row.get("restore_cycle_breaks", 0)
    return out
