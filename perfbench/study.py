"""One repetition of one benchmark study, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
pays, and measures, the same set-up: importing ``repro`` and
enumerating the designs and workloads.  The result -- timings, memory,
points and cell accounting, and with ``--trace 1`` the layer summary
and spans -- is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import time


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _overhead_ms(ledger_path: str) -> list[float]:
    """Per single-attempt ok cell: record wall time minus the time the
    cell's own process measured, i.e. the supervisor's fork and IPC
    cost in process isolation, its bookkeeping when inline."""
    from repro.harness.ledger import Ledger

    return [
        (record["wall_s"] - record["metrics"]["wall_s"]) * 1e3
        for record in Ledger(ledger_path).load().values()
        if record.get("status") == "ok" and record.get("attempts") == 1
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--offset", type=int, required=True)
    parser.add_argument("--inline", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", type=int, default=0)
    parser.add_argument("--ledger", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    started = time.perf_counter()
    # Set-up covers importing both study entry points' modules.
    from repro.core.experiments import evaluate_design_space  # noqa: F401
    from repro.design.pareto import pareto_front
    from repro.design.space import viable_designs
    from repro.harness.sweep import design_space_sweep  # noqa: F401
    from repro.sim.compile import cache_info
    from repro.workloads.registry import get

    from workloads import WORKLOADS, design_indices, point_rows, run_study

    all_designs = viable_designs()
    for name in WORKLOADS[args.workload]["names"]:
        get(name)
    setup_s = time.perf_counter() - started
    if args.setup_only:
        with open(args.out, "w") as handle:
            json.dump({"setup_s": setup_s}, handle)
        return

    indices = design_indices(args.workload, args.offset, len(all_designs))
    designs = [all_designs[i] for i in indices]
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    cache_before = cache_info()
    cpu_before = (_cpu_s(resource.RUSAGE_SELF)
                  + _cpu_s(resource.RUSAGE_CHILDREN))
    wall_before = time.perf_counter()
    root = tracer.open("driver") if tracer else None
    outcome = run_study(args.workload, designs, inline=bool(args.inline),
                        ledger_path=args.ledger)
    if tracer:
        tracer.close(root)
    wall_s = time.perf_counter() - wall_before
    cpu_s = (_cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
             - cpu_before)
    cache_after = cache_info()
    if tracer:
        tracer.uninstall()

    import numpy

    points = outcome.pop("points")
    overheads = (_overhead_ms(args.ledger)
                 if os.path.exists(args.ledger) else [])
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux.
        "rss_driver_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rss_child_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "designs": indices,
        "points": point_rows(points),
        "frontier": point_rows(pareto_front(points)),
        "overhead_ms":
            statistics.median(overheads) if overheads else 0.0,
        "compile_cache": {
            key: cache_after[key] - cache_before[key]
            for key in ("hits", "misses")
        },
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
        },
        **outcome,
    }
    if tracer:
        from layers import layer_summary

        result["layers"] = layer_summary(tracer.spans)
        result["spans"] = tracer.spans
    with open(args.out, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
