"""One benchmark run: set up, time passes, check outputs, report metrics.

An untraced run (``trace=False``) reports the end-to-end metrics.  A
traced run alternates untraced and traced passes: the traced ones give
the per-layer metrics, and the difference between the two kinds' median
pass walls is the tracing overhead.

The gated timings are in reference loops (``hostspeed``), so the host's
speed swings mostly cancel: the passes' times are divided by the median
reference-loop time sampled between and around them, and each set-up's
by the samples taken right around it.  ``setup_s`` turns that back into
seconds at ``NOMINAL_REFERENCE_S`` per loop.  The raw seconds print as
notes.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.perf import profiler

from . import layers
from .stats import summarize, tail_percentile
from .tracing import Tracer
from .workloads import WORKLOADS, Workload

#: set-ups per run (``setup_s`` is their median): at least the first
#: figure, and more while they add up to under ``SETUP_BUDGET_S`` seconds.
SETUP_REPEATS = (2, 25)
SETUP_BUDGET_S = 3.0

#: ``setup_s`` is in seconds on a host that runs the reference loop in
#: this time: about its median on the 2-vCPU host the benchmark was tuned on.
NOMINAL_REFERENCE_S = 0.020

#: host-speed probes after every pass.  One probe is a snapshot of a host
#: that switches speed within a second, and a run of short passes makes
#: few passes: a burst keeps the run's median probe from resting on a
#: handful of snapshots.
PROBES_PER_PASS = 4

#: name -> unit of every end-to-end metric, in report order.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "op_ref": "ref",
    "peak_rss_mb": "MB",
    "makespan_total_d": "d",
    "time_overhead_x": "x",
    "qubit_reduction_pct": "%",
}


class RunReport:
    """Everything one run measured, ready to print."""

    def __init__(self, workload: Workload, metrics: Dict[str, float], units: Dict[str, str], notes: List[str]) -> None:
        self.attempted = workload.attempted
        self.problems = list(workload.problems)
        self.metrics = metrics
        self.units = units
        self.notes = notes

    @property
    def correct(self) -> bool:
        return not self.problems

    def result_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": len(self.problems),
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }


# Run by the fresh interpreter: the import, then a host-speed probe in
# that same process right after it.
_IMPORT_CHILD = """\
import {module}
import sys
sys.path.insert(0, {root!r})
from perfbench.hostspeed import HostProbe
probe = HostProbe()
spent = probe.sample()
print(probe.samples[0], spent)
"""


def _import_cost(module: str) -> Tuple[float, float]:
    """Seconds and reference loops a fresh interpreter takes to import ``module``.

    Part of every set-up: a process pays it before its first compile, so
    work moved to import time shows in ``setup_s``.
    """
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    root = str(Path(__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = _IMPORT_CHILD.format(module=module, root=root)
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, timeout=120, capture_output=True, text=True
    )
    elapsed = perf_counter() - start
    loop, spent = (float(word) for word in done.stdout.split())
    seconds = elapsed - spent
    return seconds, seconds / loop


def per_kind_median(latencies: List[Tuple[str, float]]) -> float:
    """Geometric mean over operation kinds of each kind's median latency.

    A workload's operations differ in size by orders of magnitude, so one
    median over all of them sits between two kinds and jumps with the
    noise in either; a median per kind does not.
    """
    by_kind: Dict[str, List[float]] = defaultdict(list)
    for kind, value in latencies:
        by_kind[kind].append(value)
    logs = [math.log(statistics.median(values)) for values in by_kind.values()]
    return math.exp(sum(logs) / len(logs))


def _traced_pass(workload: Workload, index: int, tracer: Tracer, phases: dict):
    layers.instrument(tracer)
    tracer.recording = True
    try:
        if workload.profiled:
            with profiler.capture() as prof:
                result = workload.run_pass(index, tracer)
            layers.merge_phases(phases, prof.as_dict())
        else:
            result = workload.run_pass(index, tracer)
    finally:
        tracer.recording = False
        tracer.unwrap_all()
    return result


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    tiny: bool = False,
    passes: Optional[int] = None,
) -> RunReport:
    """Run workload ``name`` once and return its report.

    Args:
        seconds: keep making passes until this much wall time has gone by
            and the workload has made its minimum number of passes.
        workdir: scratch directory for disk caches and the trace file.
        tiny: the small inputs the benchmark's own tests use.
        passes: make exactly this many passes of each kind instead.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, tiny, workdir)
    tracer = Tracer()
    try:
        setups: List[float] = []
        setups_ref: List[float] = []  # each set-up in reference loops
        probe = workload.probe
        least, most = SETUP_REPEATS
        budget = 0.0 if tiny else SETUP_BUDGET_S  # tests need no steady median
        while len(setups) < least or (sum(setups) < budget and len(setups) < most):
            if setups:
                workload.close()  # tear the last set-up down, untimed
            probe.sample()
            before = probe.samples[-1]
            importing, importing_ref = _import_cost(workload.stack)
            start = perf_counter()
            workload.setup()
            building = perf_counter() - start
            probe.sample()
            setups.append(importing + building)
            setups_ref.append(importing_ref + building / ((before + probe.samples[-1]) / 2))
        walls: Dict[bool, List[float]] = {False: [], True: []}
        latencies: List[Tuple[str, float]] = []
        counters: Dict[str, List[float]] = defaultdict(list)
        phases: Dict[str, dict] = {}
        wanted = passes if passes is not None else (1 if trace else workload.min_passes)
        first_sample = len(probe.samples) - 1  # the last set-up's closing one
        began = perf_counter()
        index = 0
        while True:
            traced = trace and index % 2 == 1
            if traced:
                result = _traced_pass(workload, index, tracer, phases)
                for key, value in result.counters.items():
                    counters[key].append(value)
            else:
                result = workload.run_pass(index, None)
                if workload.sample_passes is None or len(walls[False]) < workload.sample_passes:
                    latencies.extend(result.latencies)
            for _ in range(PROBES_PER_PASS):
                probe.sample()
            walls[traced].append(result.wall)
            index += 1
            if len(walls[False]) == wanted and not traced:
                # after a fixed amount of work: a workload's memory grows
                # with its passes, and how many fit in the run depends on
                # the host's speed
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            enough = min(len(walls[False]), len(walls[True]) if trace else wanted) >= wanted
            if passes is not None and enough:
                break
            if passes is None and enough and perf_counter() - began >= seconds:
                break
        workload.finish()
    finally:
        workload.close()

    notes = [f"passes: {len(walls[False])} untraced, {len(walls[True])} traced"]
    if trace:
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        per_pass = {key: sum(values) / len(values) for key, values in counters.items()}
        metrics = layers.layer_metrics(tracer, phases, per_pass, len(walls[True]), overhead)
        units = {key: unit for key, (unit, _) in layers.PER_LAYER.items()}
        trace_file = workdir / f"trace-{name}-seed{seed}.json"
        tracer.write(str(trace_file))
        notes.append(f"spans: {len(tracer.spans)} written to {trace_file}")
    else:
        # the host's speed while the passes ran: a median over the whole
        # run, so one sample taken in a brief slow spell does not skew a pass
        loop = statistics.median(probe.samples[first_sample:])
        timed = walls[False][: workload.sample_passes]
        metrics = {
            "setup_s": statistics.median(setups_ref) * NOMINAL_REFERENCE_S,
            "wall_ref": statistics.median(timed) / loop,
            "op_ref": per_kind_median(latencies) / loop,
            "peak_rss_mb": peak_rss_mb,
            **workload.quality(),
        }
        units = dict(END_TO_END)
        notes.append(f"reference loop: median {loop * 1000.0:.3f} ms over {len(probe.samples) - first_sample} samples")
        notes.append(f"setup_s (raw): {statistics.median(setups):.4f}")
        notes.append(f"wall_s (raw, {len(timed)} passes): {statistics.median(timed):.4f}")
        notes.append(f"op_ms (raw, per-kind median, geometric mean): {per_kind_median(latencies) * 1000.0:.4f}")
        raw = [value for _, value in latencies]
        if tail_percentile(len(raw)) is not None:
            p50, tail, pct, count = summarize(raw)
            notes.append(f"op_p50_ms (raw, n={count}): {p50 * 1000.0:.4f}")
            if pct > 50:
                notes.append(f"op_p{pct}_ms (raw, n={count}): {tail * 1000.0:.4f}")
    for key, value in workload.extra.items():
        notes.append(f"{key}: {value:.4f}")
    return RunReport(workload, metrics, units, notes)
