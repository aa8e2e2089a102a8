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
its counter stream).  The ``BENCH_batch_speedup.json`` artifact carries
both speedups so CI can gate on the >=2x floor without parsing prose.
"""

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


def _measure_case(specs):
    cold, cold_t = timed_outcomes(SerialSweepRunner(), specs)
    forked, fork_t = timed_outcomes(SerialSweepRunner(fork=True), specs)
    assert forked == cold
    batched, batch_t = timed_outcomes(
        SerialSweepRunner(fork=True, batch=True), specs
    )
    assert batched == cold  # bit-identical, not just statistically alike
    return cold_t, fork_t, batch_t


def _case_lines(label, trials, cold_t, fork_t, batch_t):
    return [
        f"{label} ({trials} trials):",
        f"  cold sweep:                 {cold_t:.2f} s",
        f"  fork=True sweep:            {fork_t:.2f} s  "
        f"({cold_t / fork_t:.2f}x over cold)",
        f"  fork+batch=True sweep:      {batch_t:.2f} s  "
        f"({fork_t / batch_t:.2f}x over fork, budget >=2x; "
        f"{cold_t / batch_t:.2f}x over cold)",
    ]


def _case_json(trials, cold_t, fork_t, batch_t):
    return {
        "trials": trials,
        "cold_s": round(cold_t, 4),
        "fork_s": round(fork_t, 4),
        "batch_s": round(batch_t, 4),
        "speedup_over_fork": round(fork_t / batch_t, 4),
        "speedup_over_cold": round(cold_t / batch_t, 4),
    }


@pytest.mark.benchmark(group="batch")
def test_bench_batch_speedup(benchmark, tmp_path):
    plain = _specs()
    jittered = _specs(hierarchy_config=JITTERED)

    def measure():
        return _measure_case(plain), _measure_case(jittered)

    (plain_t, jitter_t) = benchmark.pedantic(measure, rounds=1, iterations=1)
    plain_x = plain_t[1] / plain_t[2]
    jitter_x = jitter_t[1] / jitter_t[2]
    emit_report(
        "batch_speedup",
        "\n".join(
            [
                "Batched lockstep sweep speedup "
                "(gdnpeu x dom-nontso x 2 secrets "
                f"x {len(REF_CYCLES)} reference-read cycles; outcomes "
                "asserted bit-identical across all three paths):",
                *_case_lines("stream-inert sweep", len(plain), *plain_t),
                *_case_lines(
                    f"dram_jitter={JITTERED.dram_jitter} sweep",
                    len(jittered),
                    *jitter_t,
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
                "plain": _case_json(len(plain), *plain_t),
                "jittered": _case_json(len(jittered), *jitter_t),
            },
        },
    )
    assert plain_x >= 2.0
    assert jitter_x >= 2.0
