"""The benchmark's workloads: which designs each one samples for a
seed, and the public entry point it calls.

Each study is a scaled-down copy of one the repository's users run, so
that several repetitions fit in one benchmark run.  The seed picks the
design sample; the offsets a seed can pick are the ones whose studies
do the same amount of work (same design count, same number of starved
cells, same number of surrogate simulations), so that spread across
seeds measures the program, not the sample.
"""

from __future__ import annotations

#: Stride of the Figure 6 / surrogate design samples (``repro sweep
#: --sample 6``).
STRIDE = 6

WORKLOADS = {
    "fig6_spec": {
        "why": (
            "Figure 6 harness sweep: engine-bound, two process workers, "
            "and V16 designs whose equake/twolf cells thrash the "
            "matching table and retry with escalated budgets"
        ),
        # Offsets 2, 3 and 4 each hold 11 designs, two of them V16
        # (four starved cells), and process the same number of engine
        # events to within 0.1%.  Offset 0 holds 12 designs (3% more
        # events); offsets 1 and 5 hold one V16 design.
        "offsets": (2, 3, 4),
        "names": ("ammp", "art", "equake", "gzip", "mcf", "twolf"),
        "scale": "tiny",
        "max_cycles": 200_000,
        "jobs": 2,
        "isolation": "process",
    },
    "report_splash": {
        "why": (
            "repro report Pareto section: graph build dominates, since "
            "every cell builds twice and every design rebuilds them all"
        ),
        # Designs (o, o + 40); offset 0 is viable_designs()[::40].  The
        # seven pairs process the same number of engine events to
        # within 0.5%, and none holds a V16 design.
        "offsets": tuple(range(7)),
        "pair_gap": 40,
        "names": ("fft", "lu", "ocean", "radix", "raytrace", "water"),
        "scale": "tiny",
        "candidates": (1, 2),
    },
    "surrogate_spec": {
        "why": (
            "surrogate-guided sweep: forest refits and driver "
            "bookkeeping dominate, the engine runs serially and sparsely"
        ),
        # Offsets 2 and 3 each simulate 31 of their 44 cells.  Four of
        # the six SpecINT/FP kernels keep a repetition near 8 s while
        # forest refits stay the largest layer.
        "offsets": (2, 3),
        "names": ("ammp", "art", "gzip", "twolf"),
        "scale": "tiny",
        "max_cycles": 2_000_000,
    },
}


def point_rows(points) -> list[list]:
    """Pareto points as JSON rows: ``[label, area, AIPC]``."""
    return [[p.label, p.area, p.performance] for p in points]


def offset_for(workload: str, seed: int) -> int:
    offsets = WORKLOADS[workload]["offsets"]
    return offsets[seed % len(offsets)]


def design_indices(workload: str, offset: int, n_designs: int) -> list[int]:
    """Indices into ``viable_designs()`` of one study's sample."""
    if workload == "report_splash":
        return [offset, offset + WORKLOADS[workload]["pair_gap"]]
    return list(range(offset, n_designs, STRIDE))


def run_study(workload: str, designs, *, inline: bool,
              ledger_path) -> dict:
    """Run one study through the entry point its users call.

    ``inline`` forces one in-process job (the traced run's mode).
    Returns the points and the cell accounting.
    """
    from repro.workloads.base import Scale

    params = WORKLOADS[workload]
    names = params["names"]
    scale = Scale(params["scale"])
    if workload == "report_splash":
        from repro.core.experiments import evaluate_design_space

        points = evaluate_design_space(
            designs, names, scale, threaded=True,
            candidates=params["candidates"],
        )
        # This path returns no per-cell failures: a workload that fails
        # its budget scores 0 and is only logged, so the reference
        # points are what pin it.
        cells = len(designs) * len(names)
        return {"points": points, "cells": cells, "simulated": cells,
                "failed": 0, "poisoned": 0}

    from repro.harness.sweep import design_space_sweep

    if workload == "fig6_spec":
        kwargs = {"jobs": 1 if inline else params["jobs"],
                  "isolation": "inline" if inline else params["isolation"]}
    else:
        kwargs = {"isolation": "inline", "surrogate": True}
    points, report = design_space_sweep(
        designs, names, scale=scale, max_cycles=params["max_cycles"],
        ledger_path=ledger_path, **kwargs,
    )
    surrogate = report.metrics.get("surrogate")
    simulated = (surrogate["simulated_cells"] if surrogate
                 else report.completed + report.failed)
    return {"points": points, "cells": report.total,
            "simulated": simulated, "failed": report.failed,
            "poisoned": report.poisoned}
