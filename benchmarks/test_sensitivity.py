"""Parameter sensitivity: which tile knobs matter (Section 4.2).

One-at-a-time sweep around a mid-range tile, evaluated on a mixed
workload sample.  Reproduces the paper's qualitative ranking: cache
capacity and instruction capacity dominate; interconnect-adjacent
parameters (PSQs) matter but less; and no single parameter is free --
"the design's inefficiencies scale as well".
"""

import logging

import pytest

from repro.core import WaveScalarConfig
from repro.design import render_sensitivity, sensitivity_sweep
from repro.harness import CellSpec, simulate
from repro.harness.spec import RUN_MAX_EVENTS
from repro.sim.failures import SimulationDeadlock

from .conftest import bench_scale

logger = logging.getLogger("repro.harness")

BASE = WaveScalarConfig(
    clusters=1, virtualization=64, matching_entries=64, l1_kb=16, l2_mb=1
)
APPS = ("mcf", "ammp", "djpeg")
THREADED = ("radix",)


def evaluate(config: WaveScalarConfig) -> float:
    scale = bench_scale()
    total = 0.0
    names = APPS + THREADED
    for name in names:
        spec = CellSpec(
            config=config, workload=name, scale=scale.value, threads=4,
            max_cycles=5_000_000, max_events=RUN_MAX_EVENTS,
        )
        try:
            total += simulate(spec).aipc
        except SimulationDeadlock as exc:
            # Scores zero, but auditable: the taxonomy class says
            # whether the design deadlocked or merely outgrew budget.
            logger.warning(
                "%s scored 0 on %s: %s", name, config.describe(),
                type(exc).__name__,
            )
    return total / len(names)


@pytest.fixture(scope="module")
def base_aipc():
    """BASE's score, simulated once: every axis sweeps through it."""
    return evaluate(BASE)


def test_sensitivity(record, benchmark, base_aipc):
    def score(config):
        return base_aipc if config == BASE else evaluate(config)

    axes = benchmark.pedantic(
        lambda: sensitivity_sweep(BASE, score), rounds=1, iterations=1
    )
    record("sensitivity_one_at_a_time", render_sensitivity(axes))

    by_name = {axis.parameter: axis for axis in axes}
    # Memory-system and capacity knobs are the big levers (paper:
    # Table 5's performance jumps come from L2 and capacity).
    assert by_name["l2_mb"].performance_swing > 1.1
    # Every axis is finite and sane.
    for axis in axes:
        assert axis.performance_swing < 50
        assert axis.area_swing >= 1.0
    # PE count matters for parallel work.
    assert by_name["pes_per_domain"].performance_swing >= 1.0
