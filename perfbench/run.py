"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile_matrix --seed 1 --seconds 15 --trace 0

Prints one line per metric (name, value, unit), then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  Exits 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import measure
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    report = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench"
    )
    for note in report.notes:
        print(f"# {note}")
    for problem in report.problems:
        print(f"FAILED: {problem}")
    for name, value in report.metrics.items():
        print(f"{name:32s} {value:16.6f} {report.units[name]}")
    print(json.dumps(report.result_line()), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
