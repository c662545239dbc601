"""Table 4: per-application matching-table tuning.

For every workload, finds k_opt (sweeping the k-loop bound against an
effectively infinite matching table) and u_opt (over-subscribing the
table at V=256 until performance drops), then derives the
virtualization ratio and the processor-wide choice.

The paper reports k_opt in 2..4, u_opt in 4..32, ratios 0.13..1 with
maximum 1 -- we check those *shapes*: saturating k, tolerant u, and a
processor ratio of at most 1.
"""

from repro.core.experiments import tune_workload
from repro.design import processor_ratio
from repro.workloads import WORKLOADS, get

from .conftest import bench_scale

#: Thread count used for multithreaded workloads in the tuning runs
#: (the tuning testbed is a single cluster, as in the paper).
TUNING_THREADS = 4


def run_table4():
    results = []
    for name in sorted(WORKLOADS):
        workload = get(name)
        threads = TUNING_THREADS if workload.multithreaded else None
        results.append(
            tune_workload(name, scale=bench_scale(), threads=threads)
        )
    return results


def render(results) -> str:
    lines = [f"{'application':<14}{'u_opt':>7}{'k_opt':>7}{'virt ratio':>12}"]
    for r in results:
        lines.append(
            f"{r.application:<14}{r.u_opt:>7}{r.k_opt:>7}"
            f"{r.virtualization_ratio:>12.3f}"
        )
    ratio = processor_ratio(results)
    lines.append(f"\nprocessor-wide virtualization ratio: {ratio}")
    return "\n".join(lines)


def test_table4_tuning(record, benchmark):
    results = benchmark.pedantic(run_table4, rounds=1, iterations=1)
    record("table4_matching_tuning", render(results))

    by_name = {r.application: r for r in results}
    # k saturates at small values for every app (paper: 2..4).
    for r in results:
        assert 1 <= r.k_opt <= 8, r
    # The serial recurrence kernels need the least table per slot.
    assert by_name["rawdaudio"].k_opt <= by_name["water"].k_opt + 2
    # Every app tolerates some over-subscription.
    assert all(r.u_opt >= 1 for r in results)
    # The conservative processor-wide ratio is a power of two <= 2
    # (the paper lands on exactly 1).
    ratio = processor_ratio(results)
    assert ratio <= 2.0
    assert ratio in (0.125, 0.25, 0.5, 1.0, 2.0)
