"""Differential proof that batched lockstep execution is exact.

The batch engine is only usable if a follower lane is *bit-identical*
to a cold-started trial — same summaries, same visible-access windows,
same full structured event streams — for every speculation scheme,
across secrets, seeds, and reference schedules.  These tests run the
comparison exhaustively (the fork engine's differential suite is the
template; the batch one additionally sweeps the reference-schedule
dimension, which is exactly what fork cannot merge).
"""

import pytest

from repro.batch.engine import run_batch_group_detailed
from repro.core.harness import run_victim_trial
from repro.core.victims import ADDR_REF, victim_by_name
from repro.runner import SerialSweepRunner, TrialSpec
from repro.schemes.registry import SCHEME_FACTORIES
from repro.trace import Tracer

ALL_SCHEMES = sorted(SCHEME_FACTORIES)

SECRETS = (0, 1)
SEEDS = (100, 101, 102)
#: Three distinct attacker reference schedules (the batch lanes),
#: including the empty one — the paper's §3.3 "clock" reads at
#: different cycles, against the contention set's reference address.
REF_SCHEDULES = (
    (),
    ((ADDR_REF, 60),),
    ((ADDR_REF, 60), (ADDR_REF + 64, 150)),
)


def _specs_for(scheme):
    return [
        TrialSpec(
            victim="gdnpeu",
            scheme=scheme,
            secret=secret,
            seed=seed,
            reference_accesses=refs,
        )
        for secret in SECRETS
        for seed in SEEDS
        for refs in REF_SCHEDULES
    ]


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_batch_bit_identical_summaries(scheme):
    """Batched group == cold sweep, outcome for outcome, for 2 secrets
    x 3 seeds x 3 reference schedules under every scheme (summaries
    carry the full visible trace and first-access map, so equality is
    trace-level)."""
    specs = _specs_for(scheme)
    cold = SerialSweepRunner().run_outcomes(specs)
    assert all(o.ok for o in cold)
    report = run_batch_group_detailed(specs)
    assert report.ejected == 0  # every lane stayed in lockstep
    assert report.outcomes == cold


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_batch_bit_identical_event_trace(scheme):
    """Every lane's reconstructed event trace (leader span replay +
    spliced reference injections) equals the cold run's full tracer
    stream — every kind, every cycle, every arg."""
    victim = victim_by_name("gdnpeu")
    specs = [
        TrialSpec(
            victim="gdnpeu",
            scheme=scheme,
            secret=secret,
            seed=9,
            reference_accesses=refs,
        )
        for secret in SECRETS
        for refs in REF_SCHEDULES
    ]
    report = run_batch_group_detailed(specs, with_traces=True)
    assert report.ejected == 0
    for cohort in report.cohorts:
        assert cohort.error is None
        assert cohort.traces is not None
        for k, spec in enumerate(cohort.lane_specs):
            cold_tracer = Tracer()
            run_victim_trial(
                victim,
                scheme,
                spec.secret,
                seed=spec.seed,
                reference_accesses=spec.reference_accesses,
                tracer=cold_tracer,
            )
            assert cohort.traces[k] == list(cold_tracer.events), (
                f"{scheme} secret={spec.secret} lane={k}"
            )


def test_batch_group_with_failing_member_falls_back():
    """A spec whose trial deadlocks must surface the same structured
    failure whether or not batching is enabled."""
    specs = [
        TrialSpec(
            victim="gdnpeu",
            scheme="unsafe",
            secret=s,
            max_cycles=40,
            reference_accesses=refs,
        )
        for s in SECRETS
        for refs in REF_SCHEDULES[1:]
    ]
    cold = SerialSweepRunner().run_outcomes(specs)
    batched = SerialSweepRunner(batch=True).run_outcomes(specs)
    assert [o.status for o in cold] == [o.status for o in batched]
    assert batched == cold
