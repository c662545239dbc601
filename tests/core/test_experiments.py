"""Tests for the experiment drivers."""

import pytest

from repro.core import WaveScalarConfig
from repro.core.experiments import (
    best_threaded_result,
    evaluate_design_space,
    pareto_table,
    suite_mean_aipc,
    traffic_profile,
    tuning_config,
)
from repro.design import DesignPoint, pareto_front
from repro.area.model import chip_area
from repro.harness import CellSpec, simulate
from repro.harness.sweep import THREAD_CANDIDATES, feasible_thread_counts
from repro.workloads import Scale, get

CFG = WaveScalarConfig(clusters=1, l2_mb=1)


def _aipc(name, threads=None, **budgets):
    return simulate(CellSpec(config=CFG, workload=name, scale="tiny",
                             threads=threads, **budgets)).aipc


def test_feasible_thread_counts_respect_problem_size():
    counts = feasible_thread_counts(get("fft"), Scale.TINY)
    assert 1 in counts
    assert all(a < b for a, b in zip(counts, counts[1:]))
    assert max(counts) <= max(THREAD_CANDIDATES)


def test_best_threaded_result_is_maximal():
    best = best_threaded_result(CFG, "radix", Scale.TINY,
                                candidates=(1, 4))
    assert best.aipc == max(_aipc("radix", threads=t) for t in (1, 4))


def test_suite_mean_aipc_is_mean():
    a = _aipc("mcf")
    b = _aipc("gzip")
    mean = suite_mean_aipc(CFG, ("mcf", "gzip"), Scale.TINY)
    assert mean == pytest.approx((a + b) / 2)


def test_evaluate_design_space_points():
    designs = [
        DesignPoint(config=CFG, area_mm2=chip_area(CFG)),
        DesignPoint(
            config=WaveScalarConfig(clusters=1, l1_kb=8),
            area_mm2=chip_area(WaveScalarConfig(clusters=1, l1_kb=8)),
        ),
    ]
    points = evaluate_design_space(designs, ("mcf",), Scale.TINY)
    assert len(points) == 2
    for point, design in zip(points, designs):
        assert point.area == design.area_mm2
        assert point.performance > 0
        assert point.payload == design.config


def test_pareto_table_renders():
    designs = [DesignPoint(config=CFG, area_mm2=chip_area(CFG))]
    points = evaluate_design_space(designs, ("mcf",), Scale.TINY)
    text = pareto_table(points)
    assert "AIPC" in text
    assert "C1" in text


def test_traffic_profile_fractions_sum():
    profile = traffic_profile(CFG, ("mcf", "djpeg"), Scale.TINY)
    level_sum = sum(profile[k] for k in ("pod", "domain", "cluster",
                                         "grid"))
    kind_sum = profile["operand"] + profile["memory"]
    assert level_sum == pytest.approx(1.0)
    assert kind_sum == pytest.approx(1.0)


def test_tuning_config_shapes():
    config = tuning_config(k=3, matching_entries=48, pes=4)
    assert config.matching_hash_k == 3
    assert config.matching_entries == 48
    assert config.virtualization == 256
    assert config.pes_per_domain == 4
    # Infinite-table stand-ins are clamped to something buildable.
    big = tuning_config(k=2, matching_entries=1 << 20)
    assert big.matching_entries <= 1 << 14


def test_suite_mean_reports_failures():
    """Zero-scored workloads are recorded on the returned value, not
    silently swallowed, and are not retried at an escalated budget."""
    cycles = simulate(
        CellSpec(config=CFG, workload="mcf", scale="tiny")
    ).cycles
    # Half the cycles mcf needs: a 4x escalated retry would complete.
    budget = cycles // 2
    mean = suite_mean_aipc(
        CFG, ("mcf",), Scale.TINY, sweep_max_cycles=budget
    )
    assert float(mean) == 0.0
    assert len(mean.failures) == 1
    failure = mean.failures[0]
    assert failure.workload == "mcf"
    assert failure.failure_class == "CycleBudgetExhausted"
    assert failure.max_cycles == budget
    assert f"exceeded {budget} cycles" in failure.detail
    assert "CycleBudgetExhausted" in failure.render()
    # Successful suites carry an empty report and stay float-like.
    ok = suite_mean_aipc(CFG, ("mcf",), Scale.TINY)
    assert ok.failures == ()
    assert ok > 0 and isinstance(ok, float)


def test_evaluate_design_space_with_ledger(tmp_path):
    """A ledgered evaluation gives the points of the default call and
    resumes from its ledger without re-simulating."""
    from repro.harness import Ledger

    designs = [DesignPoint(config=CFG, area_mm2=chip_area(CFG))]
    baseline = evaluate_design_space(designs, ("mcf",), Scale.TINY)
    path = tmp_path / "runs.jsonl"
    points = evaluate_design_space(
        designs, ("mcf",), Scale.TINY, ledger_path=path,
    )
    assert points == baseline
    assert len(Ledger(path).load()) == 1
    written = path.read_text()
    resumed = evaluate_design_space(
        designs, ("mcf",), Scale.TINY, ledger_path=path, resume=True,
    )
    assert resumed == baseline
    assert path.read_text() == written  # nothing re-simulated


def test_front_of_evaluated_points_is_consistent():
    designs = [
        DesignPoint(config=c, area_mm2=chip_area(c))
        for c in (
            WaveScalarConfig(clusters=1, l1_kb=8),
            WaveScalarConfig(clusters=1, l1_kb=8, l2_mb=1),
        )
    ]
    points = evaluate_design_space(designs, ("mcf",), Scale.TINY)
    front = pareto_front(points)
    assert 1 <= len(front) <= 2


def test_scaling_study_smoke():
    """End-to-end a/b/c/d/e selection on a minimal design set."""
    from repro.area.model import chip_area
    from repro.core.experiments import scaling_study

    designs = [
        DesignPoint(config=c, area_mm2=chip_area(c))
        for c in (
            WaveScalarConfig(clusters=1, l1_kb=8, l2_mb=0),
            WaveScalarConfig(clusters=1, l1_kb=8, l2_mb=1),
            WaveScalarConfig(clusters=4, virtualization=64,
                             matching_entries=64, l1_kb=8, l2_mb=1),
        )
    ]
    study, measured = scaling_study(
        scale=Scale.TINY, names=("radix",), designs=designs
    )
    assert study.b.config.clusters == 4
    assert study.e16.config.clusters == 16
    for key in ("a", "b", "c", "d", "e", "e16"):
        assert measured[key] > 0
