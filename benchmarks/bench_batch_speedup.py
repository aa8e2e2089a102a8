"""Batched lockstep sweep speedup (not a paper figure).

The reference-schedule sweep is the shape the §3.3 interference
experiments actually run — the same victim probed with the attacker's
"clock" read placed at many different cycles — and it is exactly the
dimension relabeling cannot merge (a relabel group spans only inert
seeds, so with ``fork=True`` every schedule still runs cold).  The
batched engine simulates the whole sweep as one leader run per secret
with every schedule as a cache-hierarchy lane, so it must come in >=2x
faster than the ``fork=True`` path — with bit-identical outcomes
(asserted; tests/batch proves the same per scheme).

Two cases are measured: the stream-inert sweep, and the same sweep on a
DRAM-jittered hierarchy (each lane hierarchy draws its own jitter from
its counter stream).  Each path is timed over several rounds whose
order alternates, and each ratio is the median of the per-round ratios,
so one slow sweep of 30-170 ms cannot decide the floor.  The
``BENCH_batch_speedup.json`` artifact carries both speedups and every
round's ratios so CI can gate on the >=2x floor without parsing prose.
"""

import statistics

import pytest

from repro.core.victims import ADDR_REF
from repro.memory.hierarchy import HierarchyConfig
from repro.runner import SerialSweepRunner

from _common import emit_report, sweep_grid, timed_outcomes

#: 16 placements of the attacker's reference read, spanning the whole
#: speculation window of the gdnpeu victim under DoM.
REF_CYCLES = tuple(range(40, 360, 20))

#: The jittered case: every DRAM fill draws 0..5 extra cycles from the
#: per-(cycle, core) counter stream.
JITTERED = HierarchyConfig(dram_jitter=5)


def _specs(**common):
    return [
        spec
        for cycle in REF_CYCLES
        for spec in sweep_grid(
            ["gdnpeu"],
            ["dom-nontso"],
            reference_accesses=((ADDR_REF, cycle),),
            **common,
        )
    ]


#: Rounds per case; each ratio is the median over them.
ROUNDS = 5

#: The three paths, in the order of an even round (odd rounds reverse
#: it, so neither fork nor batch always runs first).
PATHS = ("cold", "fork", "batch")


def _runner(path):
    if path == "cold":
        return SerialSweepRunner()
    if path == "fork":
        return SerialSweepRunner(fork=True)
    return SerialSweepRunner(fork=True, batch=True)


def _measure_round(specs, reverse):
    """Seconds per path for one round; every path's outcomes are
    asserted bit-identical to cold, not just statistically alike."""
    outcomes, seconds = {}, {}
    for path in reversed(PATHS) if reverse else PATHS:
        outcomes[path], seconds[path] = timed_outcomes(_runner(path), specs)
    assert outcomes["fork"] == outcomes["cold"]
    assert outcomes["batch"] == outcomes["cold"]
    return seconds


def _measure_case(specs):
    """Every round's seconds and ratios, the batch path first on odd
    rounds."""
    rounds = []
    for i in range(ROUNDS):
        t = _measure_round(specs, reverse=i % 2 == 1)
        rounds.append(
            {
                "batch_first": i % 2 == 1,
                "cold_s": round(t["cold"], 4),
                "fork_s": round(t["fork"], 4),
                "batch_s": round(t["batch"], 4),
                "speedup_over_fork": round(t["fork"] / t["batch"], 4),
                "speedup_over_cold": round(t["cold"] / t["batch"], 4),
            }
        )
    return rounds


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def _case_lines(label, trials, rounds):
    cold_t, fork_t = _median(rounds, "cold_s"), _median(rounds, "fork_s")
    batch_t = _median(rounds, "batch_s")
    over_fork = _median(rounds, "speedup_over_fork")
    return [
        f"{label} ({trials} trials; median of {len(rounds)} rounds):",
        f"  cold sweep:                 {cold_t:.3f} s",
        f"  fork=True sweep:            {fork_t:.3f} s  "
        f"({cold_t / fork_t:.2f}x over cold)",
        f"  fork+batch=True sweep:      {batch_t:.3f} s  "
        f"({over_fork:.2f}x over fork, budget >=2x; "
        f"{_median(rounds, 'speedup_over_cold'):.2f}x over cold)",
        "  over fork, per round:       "
        + ", ".join(f"{r['speedup_over_fork']:.2f}" for r in rounds),
    ]


def _case_json(trials, rounds):
    return {
        "trials": trials,
        "cold_s": _median(rounds, "cold_s"),
        "fork_s": _median(rounds, "fork_s"),
        "batch_s": _median(rounds, "batch_s"),
        "speedup_over_fork": _median(rounds, "speedup_over_fork"),
        "speedup_over_cold": _median(rounds, "speedup_over_cold"),
        "rounds": rounds,
    }


@pytest.mark.benchmark(group="batch")
def test_bench_batch_speedup(benchmark, tmp_path):
    plain = _specs()
    jittered = _specs(hierarchy_config=JITTERED)

    def measure():
        return _measure_case(plain), _measure_case(jittered)

    (plain_r, jitter_r) = benchmark.pedantic(measure, rounds=1, iterations=1)
    plain_x = _median(plain_r, "speedup_over_fork")
    jitter_x = _median(jitter_r, "speedup_over_fork")
    emit_report(
        "batch_speedup",
        "\n".join(
            [
                "Batched lockstep sweep speedup "
                "(gdnpeu x dom-nontso x 2 secrets "
                f"x {len(REF_CYCLES)} reference-read cycles; outcomes "
                "asserted bit-identical across all three paths; each "
                "ratio is the median of per-round ratios, with the path "
                "order reversed on odd rounds):",
                *_case_lines("stream-inert sweep", len(plain), plain_r),
                *_case_lines(
                    f"dram_jitter={JITTERED.dram_jitter} sweep",
                    len(jittered),
                    jitter_r,
                ),
                "",
                "Relabeling (fork=True) merges only inert-seed variants, "
                "so every distinct reference schedule still runs cold; "
                "batch runs one leader per secret and replays its "
                f"memory calls on all {len(REF_CYCLES)} schedules as "
                "cache-hierarchy lanes in lockstep, ejecting any lane "
                "whose memory system diverges to the scalar cold path.  "
                "In the jittered case each lane hierarchy draws its own "
                "DRAM jitter from its counter stream.",
            ]
        ),
        data={
            "budget_min_speedup_over_fork": 2.0,
            "ref_cycles": len(REF_CYCLES),
            "cases": {
                "plain": _case_json(len(plain), plain_r),
                "jittered": _case_json(len(jittered), jitter_r),
            },
        },
    )
    assert plain_x >= 2.0
    assert jitter_x >= 2.0
