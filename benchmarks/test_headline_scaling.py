"""The headline claim: multithreaded performance scales with area.

Paper (Table 5 / Section 4.2): Splash2 AIPC grows from 1.3 at ~39 mm^2
to 13.3 at ~399 mm^2.  This bench measures the same three processor
sizes on fft at MEDIUM problem scale (big enough that per-thread work
doesn't run out), at each size's best thread count -- the minimal,
direct evidence for the scaling result, independent of the full Pareto
sweeps.
"""

from repro.area import chip_area
from repro.core import WaveScalarConfig
from repro.harness import CellSpec, simulate
from repro.harness.spec import RUN_MAX_CYCLES, RUN_MAX_EVENTS

SIZES = [
    WaveScalarConfig(clusters=1, l2_mb=1),
    WaveScalarConfig(clusters=4, virtualization=64, matching_entries=64,
                     l2_mb=1),
    WaveScalarConfig(clusters=16, virtualization=64, matching_entries=64,
                     l1_kb=8, l2_mb=1),
]
THREADS = (32, 64, 128)
WORKLOAD = "fft"


def run_scaling():
    rows = []
    for config in SIZES:
        best = None
        for threads in THREADS:
            try:
                result = simulate(CellSpec(
                    config=config, workload=WORKLOAD, scale="medium",
                    threads=threads, max_cycles=RUN_MAX_CYCLES,
                    max_events=RUN_MAX_EVENTS,
                ))
            except ValueError:
                continue
            if best is None or result.aipc > best.aipc:
                best = result
        rows.append((config, chip_area(config), best))
    return rows


def test_headline_scaling(record, benchmark):
    rows = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    lines = [f"{'configuration':<44}{'area':>7}{'thr':>5}{'AIPC':>7}"]
    for config, area, best in rows:
        lines.append(
            f"{config.describe():<44}{area:>7.0f}{best.threads:>5}"
            f"{best.aipc:>7.2f}"
        )
    lines.append(
        "\npaper (Table 5, Splash2 average): 1.3 AIPC @ 39mm^2 -> "
        "13.3 AIPC @ 399mm^2"
    )
    record("headline_multithreaded_scaling", "\n".join(lines))

    aipcs = [best.aipc for _, _, best in rows]
    areas = [area for _, area, _ in rows]
    # Monotone growth across the three sizes ...
    assert aipcs[1] > aipcs[0]
    assert aipcs[2] > aipcs[1]
    # ... covering the paper's area range ...
    assert areas[0] < 70 and areas[-1] > 350
    # ... with a substantial overall factor.
    assert aipcs[-1] > 1.5 * aipcs[0]
