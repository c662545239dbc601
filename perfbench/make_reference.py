"""Regenerate ``reference.json``, the outputs every benchmark run is
checked against.

For each workload and each offset a seed can pick, it records the
study's returned points (label, area, AIPC) and its cell accounting.
For ``surrogate_spec`` it also records the frontier of the same study
run exhaustively (no surrogate), which the surrogate's frontier must
equal.  Run from the repository root (a few minutes)::

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    WORKLOADS, design_indices, point_rows, run_study,
)


def main() -> None:
    import numpy
    from repro.design.pareto import pareto_front
    from repro.design.space import viable_designs
    from repro.harness.sweep import design_space_sweep
    from repro.workloads.base import Scale

    all_designs = viable_designs()
    reference = {
        "env": {"python": platform.python_version(),
                "numpy": numpy.__version__, "nproc": os.cpu_count()},
    }
    for workload, params in WORKLOADS.items():
        entries = {}
        for offset in params["offsets"]:
            indices = design_indices(workload, offset, len(all_designs))
            designs = [all_designs[i] for i in indices]
            outcome = run_study(workload, designs, inline=True,
                                ledger_path=None)
            entry = {
                "points": point_rows(outcome["points"]),
                "cells": outcome["cells"],
                "simulated": outcome["simulated"],
                "failed": outcome["failed"] + outcome["poisoned"],
            }
            if workload == "surrogate_spec":
                exhaustive, _ = design_space_sweep(
                    designs, params["names"], scale=Scale(params["scale"]),
                    max_cycles=params["max_cycles"], jobs=2,
                )
                entry["exhaustive_frontier"] = point_rows(
                    pareto_front(exhaustive))
            entries[str(offset)] = entry
            print(workload, offset, entry["simulated"], "/",
                  entry["cells"], "simulated,", entry["failed"], "failed",
                  flush=True)
        reference[workload] = entries
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
