"""Figure 12: performance of the basic fence defense (§5.3).

Runs the synthetic suite (the SPEC CPU2017 stand-in) under the unsafe
baseline and under the fence defense in the Spectre and Futuristic
threat models, and reports normalized execution time per workload plus
the geometric mean.

Paper: Spectre-model mean 1.58x, Futuristic-model mean 5.38x.  Expected
reproduced shape: Futuristic >> Spectre, both in the few-x band, with
branch-dense kernels hit by the Spectre fence and ILP/MLP kernels hit by
the Futuristic fence.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.core.experiments import fig12_defense_overhead

from _common import emit_report, with_runner

SCHEMES = ("fence-spectre", "fence-futuristic")


def run_fig12():
    # The (workload, scheme) grid fans out across processes when the host
    # has the cores for it; rows come back in the same order either way.
    return with_runner(
        lambda runner: fig12_defense_overhead(schemes=SCHEMES, runner=runner)
    )


@pytest.mark.benchmark(group="fig12")
def test_bench_fig12_defense_overhead(benchmark):
    report = benchmark.pedantic(run_fig12, rounds=1, iterations=1)
    rows = []
    for row in report.rows:
        rows.append(
            [
                row.workload,
                row.baseline_cycles,
                f"{row.slowdown('fence-spectre'):.2f}x",
                f"{row.slowdown('fence-futuristic'):.2f}x",
            ]
        )
    rows.append(
        [
            "GEOMEAN",
            "",
            f"{report.geomean('fence-spectre'):.2f}x",
            f"{report.geomean('fence-futuristic'):.2f}x",
        ]
    )
    text = format_table(
        ["workload", "baseline cycles", "fence-spectre", "fence-futuristic"],
        rows,
        title=(
            "Figure 12: basic defense overhead over the unsafe baseline\n"
            "(paper geomeans: Spectre 1.58x, Futuristic 5.38x)"
        ),
        align_right=[1, 2, 3],
    )
    gm_spectre = report.geomean("fence-spectre")
    gm_futur = report.geomean("fence-futuristic")
    emit_report(
        "fig12_defense_overhead",
        text,
        data={
            "workloads": {
                row.workload: {
                    "baseline_cycles": row.baseline_cycles,
                    "slowdown": {s: row.slowdown(s) for s in SCHEMES},
                }
                for row in report.rows
            },
            "geomean": {"fence-spectre": gm_spectre, "fence-futuristic": gm_futur},
        },
    )
    assert gm_futur > gm_spectre  # the paper's headline ordering
    assert gm_spectre > 1.05      # the defense is not free
    for row in report.rows:
        assert row.slowdown("fence-futuristic") >= 0.99
