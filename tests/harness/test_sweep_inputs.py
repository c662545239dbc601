"""Input checks at the public sweep entry points, and ``simulate``."""

import pytest

from repro.area.model import chip_area
from repro.core.config import WaveScalarConfig
from repro.core.experiments import suite_mean_aipc
from repro.design import DesignPoint
from repro.harness import CellSpec, execute_cell, simulate
from repro.harness.sweep import design_space_sweep
from repro.workloads import Scale

CFG = WaveScalarConfig(clusters=1, l2_mb=1)
DESIGNS = [DesignPoint(config=CFG, area_mm2=chip_area(CFG))]


def test_sweep_accepts_scale_by_value():
    by_value, _ = design_space_sweep(
        DESIGNS, ("mcf",), scale="tiny", isolation="inline"
    )
    by_enum, _ = design_space_sweep(
        DESIGNS, ("mcf",), scale=Scale.TINY, isolation="inline"
    )
    assert by_value == by_enum
    assert by_value[0].performance > 0


def test_sweep_rejects_unknown_scale():
    with pytest.raises(ValueError, match="huge"):
        design_space_sweep(DESIGNS, ("mcf",), scale="huge")


def test_sweep_rejects_empty_names():
    with pytest.raises(ValueError, match="names is empty"):
        design_space_sweep(DESIGNS, [], scale=Scale.TINY)


def test_suite_mean_rejects_empty_names():
    with pytest.raises(ValueError, match="names is empty"):
        suite_mean_aipc(CFG, (), Scale.TINY)


def test_simulate_matches_execute_cell_payload():
    spec = CellSpec(config=CFG, workload="mcf", scale="tiny")
    result = simulate(spec)
    payload = execute_cell(spec)
    assert payload["status"] == "ok"
    assert payload["aipc"] == result.aipc
    assert payload["cycles"] == result.cycles
    assert payload["dynamic_instructions"] == \
        result.stats.dynamic_instructions
