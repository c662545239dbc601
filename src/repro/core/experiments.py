"""Experiment drivers: one entry point per table/figure of the paper.

Each function here regenerates one piece of the evaluation (Section 4)
and is called by the corresponding benchmark in ``benchmarks/`` and by
the example scripts.  Every cell runs through the sweep harness: suite
aggregates call :func:`~repro.harness.sweep.design_space_sweep`, and
drivers that need a full result call
:func:`~repro.harness.supervisor.simulate`.  Nothing is memoised; the
compile cache spares a repeated cell its graph build, not its run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from ..design.pareto import ParetoPoint, frontier_rows
from ..design.scaling import ScalingStudy, run_scaling_study
from ..design.space import DesignPoint, viable_designs
from ..design.virtualization import (
    TuningResult,
    tune_application,
)
from ..harness.spec import RUN_MAX_CYCLES, RUN_MAX_EVENTS, CellSpec
from ..harness.supervisor import simulate
from ..harness.sweep import (
    THREAD_CANDIDATES,
    SweepReport,
    design_space_sweep,
    feasible_thread_counts,
)
from ..sim.failures import SimulationDeadlock
from ..workloads.base import Scale
from ..workloads.registry import SPLASH_NAMES, get
from .config import WaveScalarConfig
from .results import SimulationResult

logger = logging.getLogger("repro.harness")


def _result(config: WaveScalarConfig, workload_name: str, scale: Scale,
            threads: Optional[int] = None, k: Optional[int] = None,
            max_cycles: int = RUN_MAX_CYCLES,
            max_events: int = RUN_MAX_EVENTS) -> SimulationResult:
    """One cell's full result (output check included)."""
    return simulate(CellSpec(
        config=config, workload=workload_name, scale=scale.value,
        threads=threads, k=k, max_cycles=max_cycles,
        max_events=max_events,
    ))


def _sweep(designs: Iterable[DesignPoint], names: Sequence[str],
           scale: Scale, threaded: bool, candidates: Sequence[int],
           **kwargs) -> tuple[list[ParetoPoint], SweepReport]:
    """:func:`design_space_sweep` under the documented scoring rule: a
    workload over its budget scores 0 at once, never retried at an
    escalated budget.  Failed cells are logged, so discarded designs
    stay auditable."""
    points, report = design_space_sweep(
        list(designs), names, scale=scale, threaded=threaded,
        candidates=candidates, max_retries=0, **kwargs,
    )
    for cell in report.failures:
        logger.warning("failed cell: %s", cell.render())
    return points, report


# ----------------------------------------------------------------------
# Thread-count selection (Splash2)
# ----------------------------------------------------------------------
def best_threaded_result(
    config: WaveScalarConfig,
    workload_name: str,
    scale: Scale = Scale.SMALL,
    candidates: Sequence[int] = THREAD_CANDIDATES,
    max_cycles: int = RUN_MAX_CYCLES,
    max_events: int = RUN_MAX_EVENTS,
) -> SimulationResult:
    """The best-AIPC thread count for one workload on one config.

    Probes upward through the feasible thread counts and stops at the
    first that exceeds its budget, like a sweep lane; raises
    :class:`~repro.sim.failures.SimulationDeadlock` when the first
    count already fails.
    """
    best: SimulationResult | None = None
    feasible = feasible_thread_counts(get(workload_name), scale, candidates)
    for threads in feasible:
        try:
            result = _result(
                config, workload_name, scale, threads=threads,
                max_cycles=max_cycles, max_events=max_events,
            )
        except SimulationDeadlock:
            if best is None:
                raise
            # More threads only add pressure on a configuration that
            # is already over budget; stop probing upward.
            break
        if best is None or result.aipc > best.aipc:
            best = result
    if best is None:
        raise ValueError(f"{workload_name}: no feasible thread count "
                         f"among {tuple(candidates)}")
    return best


# ----------------------------------------------------------------------
# Suite-level evaluation (Figures 6 and 7 and Table 5)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadFailure:
    """One workload cell that failed its budget on one configuration,
    and why."""

    workload: str
    failure_class: str
    max_cycles: int
    max_events: int
    detail: str = ""

    def render(self) -> str:
        return (
            f"{self.workload}: {self.failure_class} under "
            f"{self.max_cycles} cycles / {self.max_events} events"
            + (f" -- {self.detail}" if self.detail else "")
        )


class SuiteMean(float):
    """A mean-AIPC value that also carries per-workload failure
    reports.  Behaves exactly like ``float`` in arithmetic and
    comparisons, so existing callers are unaffected; auditing code
    reads ``.failures`` to see which workloads failed and why."""

    failures: tuple[WorkloadFailure, ...]

    def __new__(cls, value: float, failures: Sequence[WorkloadFailure] = ()):
        obj = super().__new__(cls, value)
        obj.failures = tuple(failures)
        return obj


def suite_mean_aipc(
    config: WaveScalarConfig,
    names: Sequence[str],
    scale: Scale = Scale.SMALL,
    threaded: bool = False,
    candidates: Sequence[int] = THREAD_CANDIDATES,
    sweep_max_cycles: int = 5_000_000,
    sweep_max_events: int = 1_000_000,
) -> SuiteMean:
    """Average AIPC of a workload group on one configuration.

    A run that exceeds ``sweep_max_cycles`` (a pathologically starved
    configuration crawling through matching-table thrash) scores 0 --
    such designs are dominated by construction and the paper's
    analysis would discard them the same way.  Every failed cell is
    recorded on the returned :class:`SuiteMean`; a threaded workload
    whose higher thread count failed keeps the score of the counts
    below it.

    The configuration is simulated as given, without static
    pre-validation: :func:`scaling_study` measures replicated designs
    that may lie outside the viable design space.
    """
    # A lone design's area is not scored; only its mean is returned.
    points, report = _sweep(
        [DesignPoint(config=config, area_mm2=0.0)], names, scale,
        threaded, candidates, isolation="inline",
        max_cycles=sweep_max_cycles, max_events=sweep_max_events,
        prevalidate=False,
    )
    failures = [
        WorkloadFailure(
            workload=cell.workload, failure_class=cell.failure_class,
            max_cycles=sweep_max_cycles, max_events=sweep_max_events,
            detail=cell.detail,
        )
        for cell in report.failures
    ]
    return SuiteMean(points[0].performance, failures)


def evaluate_design_space(
    designs: Iterable[DesignPoint],
    names: Sequence[str],
    scale: Scale = Scale.SMALL,
    threaded: bool = False,
    candidates: Sequence[int] = THREAD_CANDIDATES,
    *,
    ledger_path=None,
    resume: bool = False,
    timeout_s: Optional[float] = None,
    isolation: str = "inline",
    jobs: Optional[int] = 1,
) -> list[ParetoPoint]:
    """AIPC-vs-area points for a suite over a set of designs.

    Runs :func:`~repro.harness.sweep.design_space_sweep`: by default
    serially and in-process.  ``ledger_path`` checkpoints every cell
    to a JSONL ledger and ``resume`` continues an interrupted campaign
    without re-simulating finished cells; ``isolation="process"``
    runs each cell in a watchdogged subprocess (``timeout_s``);
    ``jobs=N`` fans independent ``(design, workload)`` lanes out over
    N worker processes (``None``/``0`` = one per core).  The returned
    points are identical for every ``jobs`` and ``isolation`` value.
    A workload over the sweep budget scores 0 and is not retried at
    an escalated budget.
    """
    points, _report = _sweep(
        designs, names, scale, threaded, candidates,
        ledger_path=ledger_path, resume=resume, timeout_s=timeout_s,
        isolation=isolation, jobs=jobs,
    )
    return points


def pareto_table(
    points: Sequence[ParetoPoint],
) -> str:
    """Render Table 5-style frontier rows as text."""
    lines = [
        f"{'id':>3} {'configuration':<42} {'area':>7} {'AIPC':>6} "
        f"{'dA%':>6} {'dAIPC%':>7}"
    ]
    for i, row in enumerate(frontier_rows(points), start=1):
        da = f"{row.area_increase * 100:.1f}%" if row.area_increase is not \
            None else "na"
        dp = f"{row.perf_increase * 100:.1f}%" if row.perf_increase is not \
            None else "na"
        lines.append(
            f"{i:>3} {row.point.label:<42} {row.point.area:>7.0f} "
            f"{row.point.performance:>6.2f} {da:>6} {dp:>7}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table 4: matching-table tuning
# ----------------------------------------------------------------------
def tuning_config(
    k: int,
    matching_entries: int,
    pes: int = 2,
    base: Optional[WaveScalarConfig] = None,
) -> WaveScalarConfig:
    """The tuning testbed: V=256 with a variable matching table.

    The testbed uses the smallest domain that *fits* the program
    (``pes`` PEs) so each PE's instruction store fills toward its 256
    slots, recreating the per-PE matching pressure the paper tunes
    against -- our kernels are far smaller than Spec binaries, so on a
    full cluster every PE would hold a handful of instructions and no
    over-subscription would ever bind.
    """
    base = base or WaveScalarConfig(
        clusters=1, domains_per_cluster=1,
        pes_per_domain=max(2, min(8, pes)),
        virtualization=256, l1_kb=32, l2_mb=1,
    )
    entries = min(matching_entries, 1 << 14)
    entries -= entries % base.matching_associativity
    return replace(
        base,
        matching_entries=max(base.matching_associativity, entries),
        matching_hash_k=max(1, k),
    )


def tune_workload(
    workload_name: str,
    scale: Scale = Scale.TINY,
    threads: Optional[int] = None,
) -> TuningResult:
    """One Table 4 row: sweep k against an (effectively) infinite
    matching table, then oversubscribe to find u_opt."""
    workload = get(workload_name)
    static_size = len(workload.instantiate(scale=scale, threads=threads))
    pes = -(-static_size // 256)  # smallest PE count that fits at V=256
    pes += pes % 2  # pods need pairs

    def evaluate(k: int, matching_entries: int) -> float:
        config = tuning_config(k, matching_entries, pes=pes)
        try:
            result = _result(
                config, workload_name, scale, threads=threads, k=k,
                max_cycles=3_000_000, max_events=5_000_000,
            )
        except SimulationDeadlock:
            # Pathological over-subscription thrashes so hard the run
            # exceeds its cycle budget; the paper's sweep stops at a
            # "significant decrease" -- score it as one.
            return 0.0
        return result.aipc

    return tune_application(workload_name, evaluate, v=256)


# ----------------------------------------------------------------------
# Figure 7: the scaling study
# ----------------------------------------------------------------------
def scaling_study(
    scale: Scale = Scale.SMALL,
    names: Sequence[str] = SPLASH_NAMES,
    designs: Optional[Sequence[DesignPoint]] = None,
    *,
    ledger_path=None,
    resume: bool = False,
    jobs: Optional[int] = 1,
) -> tuple[ScalingStudy, dict[str, float]]:
    """Reproduce the a/b/c/d/e analysis; returns the study plus the
    measured AIPC of each named design.  ``ledger_path``/``resume``
    checkpoint the design-space pass through the sweep harness;
    ``jobs`` parallelises it."""
    designs = list(designs) if designs is not None else viable_designs()
    points = evaluate_design_space(
        designs, names, scale, threaded=True,
        ledger_path=ledger_path, resume=resume, jobs=jobs,
    )

    def perf_of(config: WaveScalarConfig) -> float:
        return suite_mean_aipc(config, names, scale, threaded=True)

    study = run_scaling_study(points, perf_of)
    measured = {
        "a": study.a.performance,
        "b": perf_of(study.b.config),
        "c": study.c.performance,
        "d": perf_of(study.d.config),
        "e": study.e.performance,
        "e16": perf_of(study.e16.config),
    }
    return study, measured


# ----------------------------------------------------------------------
# Figure 8: traffic distribution
# ----------------------------------------------------------------------
def message_mix(results: Iterable[SimulationResult]) -> dict[str, float]:
    """Message distribution aggregated over runs: the share of all
    messages at each interconnect level (pod, domain, cluster, grid)
    and of each kind (operand, memory) -- one Figure 8 bar."""
    totals = {"pod": 0, "domain": 0, "cluster": 0, "grid": 0,
              "operand": 0, "memory": 0}
    grand = 0
    for result in results:
        for kind, per_level in result.stats.messages.items():
            for level, count in per_level.items():
                totals[level] += count
                totals[kind] += count
                grand += count
    if grand == 0:
        return {k: 0.0 for k in totals}
    return {k: v / grand for k, v in totals.items()}


def traffic_profile(
    config: WaveScalarConfig,
    names: Sequence[str],
    scale: Scale = Scale.SMALL,
    threaded: bool = False,
) -> dict[str, float]:
    """Aggregate message distribution over a suite (Figure 8 bars)."""
    if threaded:
        return message_mix(
            best_threaded_result(config, name, scale) for name in names
        )
    return message_mix(_result(config, name, scale) for name in names)
