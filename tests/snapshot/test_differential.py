"""Differential proof that relabel-group execution is exact.

``fork=True`` runs one trial per group of inert-seed variants and
relabels its summary for every member, so it is only usable if every
relabeled outcome is *bit-identical* to a cold-started trial — same
summaries and, underneath them, the same structured event streams — for
every speculation scheme.  These tests run the comparison exhaustively.
"""

import pytest

from repro.core.harness import run_victim_trial
from repro.core.victims import victim_by_name
from repro.runner import SerialSweepRunner, TrialSpec, TrialStatus
from repro.runner.spec import stream_dependent
from repro.schemes.registry import SCHEME_FACTORIES
from repro.snapshot import plan_fork_groups
from repro.trace import Tracer

ALL_SCHEMES = sorted(SCHEME_FACTORIES)

SECRETS = (0, 1)
SEEDS = (100, 101, 102)


def _specs_for(scheme):
    return [
        TrialSpec(victim="gdnpeu", scheme=scheme, secret=secret, seed=seed)
        for secret in SECRETS
        for seed in SEEDS
    ]


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_fork_bit_identical_summaries(scheme):
    """Forked sweep == cold sweep, outcome for outcome, for 2 secrets
    x 3 seeds under every scheme (summaries carry the full visible
    trace and first-access map, so equality is trace-level)."""
    specs = _specs_for(scheme)
    cold = SerialSweepRunner().run_outcomes(specs)
    forked = SerialSweepRunner(fork=True).run_outcomes(specs)
    assert all(o.ok for o in cold)
    assert forked == cold


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_fork_bit_identical_event_trace(scheme):
    """What relabeling stands on, at event level: with an inert seed, a
    cold run at every other seed emits the exact event stream of the
    run the group's first spec made — full tracer, every kind."""
    victim = victim_by_name("gdnpeu")
    spec = TrialSpec(victim="gdnpeu", scheme=scheme, secret=1, seed=SEEDS[0])
    assert not stream_dependent(spec)
    traces = []
    for seed in SEEDS:
        tracer = Tracer()
        run_victim_trial(victim, scheme, 1, seed=seed, tracer=tracer)
        traces.append(list(tracer.events))
    assert traces[0]
    for trace in traces[1:]:
        assert trace == traces[0]


def test_fork_group_with_failing_member_falls_back():
    """A relabel group whose first spec deadlocks goes to the cold
    path, which reports the same structured failure for every member
    as a sweep without relabeling."""
    specs = [
        TrialSpec(
            victim="gdnpeu", scheme="unsafe", secret=1, seed=seed,
            max_cycles=40,
        )
        for seed in SEEDS[:2]
    ]
    assert plan_fork_groups(specs) == ([[0, 1]], [])
    cold = SerialSweepRunner().run_outcomes(specs)
    forked = SerialSweepRunner(fork=True).run_outcomes(specs)
    assert [o.status for o in cold] == [TrialStatus.DEADLOCK] * 2
    assert forked == cold
