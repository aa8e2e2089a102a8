"""Differential bit-identity for the forward-interference sweeps.

The forward victims time *older, speculation-invariant* instructions,
so their channel is pure cycle arithmetic — which makes them the
sharpest probe of every acceleration layer: a single perturbed cycle
in traced, forked, batched or journal-resumed execution would corrupt
the decoded secret.  Each layer must therefore be bit-identical to
cold execution across all 16 schemes x both secrets.
"""

from __future__ import annotations

import pytest

from repro.core.harness import run_victim_trial
from repro.core.victims import victim_by_name
from repro.runner import SerialSweepRunner, TrialJournal, expand_grid
from repro.schemes.registry import SCHEME_FACTORIES
from repro.system.stats import machine_metrics
from repro.trace import Tracer
from repro.workloads import FORWARD_VICTIMS

ALL_SCHEMES = sorted(SCHEME_FACTORIES)
MAX_CYCLES = 40_000


def _grid(schemes=ALL_SCHEMES, seeds=(0,)):
    return [
        spec
        for seed in seeds
        for spec in expand_grid(
            list(FORWARD_VICTIMS),
            list(schemes),
            base_seed=seed,
            max_cycles=MAX_CYCLES,
        )
    ]


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_forward_tracing_is_invisible(scheme):
    """Traced == untraced on everything the receiver reads: cycles,
    first-access map, visible log, and the full metrics projection."""
    for victim in FORWARD_VICTIMS:
        spec = victim_by_name(victim)
        for secret in (0, 1):
            plain = run_victim_trial(
                spec, scheme, secret, max_cycles=MAX_CYCLES
            )
            tracer = Tracer()
            traced = run_victim_trial(
                spec, scheme, secret, max_cycles=MAX_CYCLES, tracer=tracer
            )
            label = f"{victim}/{scheme}/s{secret}"
            assert traced.cycles == plain.cycles, label
            assert traced.access_cycle == plain.access_cycle, label
            assert traced.visible == plain.visible, label
            assert (
                machine_metrics(traced.machine).to_json()
                == machine_metrics(plain.machine).to_json()
            ), label
            assert len(tracer.events) > 0, label


def test_forward_fork_equals_cold():
    """Snapshot-fork sweep == cold sweep, outcome for outcome, over the
    full forward grid (summaries carry the complete visible trace, so
    equality is trace-level)."""
    specs = _grid(seeds=(0, 1))
    cold = SerialSweepRunner().run_outcomes(specs)
    assert all(o.ok for o in cold)
    forked = SerialSweepRunner(fork=True).run_outcomes(specs)
    assert forked == cold


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_forward_batch_bit_identical(scheme):
    """Batched lockstep == cold, with zero ejected lanes, per scheme
    across victims x secrets x seeds."""
    from repro.batch.engine import run_batch_group_detailed

    for victim in FORWARD_VICTIMS:
        specs = [
            spec
            for seed in (100, 101)
            for spec in expand_grid(
                [victim], [scheme], base_seed=seed, max_cycles=MAX_CYCLES
            )
        ]
        cold = SerialSweepRunner().run_outcomes(specs)
        assert all(o.ok for o in cold)
        report = run_batch_group_detailed(specs)
        assert report.ejected == 0, f"{victim}/{scheme}"
        assert report.outcomes == cold, f"{victim}/{scheme}"


@pytest.mark.parametrize("scheme", ("unsafe", "invisispec-spectre"))
def test_forward_batch_event_traces_match_cold(scheme):
    """Batch-reconstructed event streams equal a cold tracer's, every
    kind, cycle and arg — on a leaking scheme the traces differ BETWEEN
    secrets, so this also proves the comparison has teeth."""
    from repro.batch.engine import run_batch_group_detailed

    for victim in FORWARD_VICTIMS:
        vspec = victim_by_name(victim)
        specs = expand_grid([victim], [scheme], max_cycles=MAX_CYCLES)
        report = run_batch_group_detailed(specs, with_traces=True)
        assert report.ejected == 0
        for cohort in report.cohorts:
            assert cohort.error is None
            assert cohort.traces is not None
            for k, spec in enumerate(cohort.lane_specs):
                cold_tracer = Tracer()
                run_victim_trial(
                    vspec,
                    scheme,
                    spec.secret,
                    seed=spec.seed,
                    max_cycles=MAX_CYCLES,
                    tracer=cold_tracer,
                )
                assert cohort.traces[k] == list(cold_tracer.events), (
                    f"{victim}/{scheme}/s{spec.secret}/lane{k}"
                )


def test_forward_journal_checkpoint_resume(tmp_path):
    """An interrupted forward sweep resumes from its journal to the
    same outcome list as an uninterrupted run — journaled trials are
    trusted verbatim, the rest run fresh."""
    specs = _grid()
    journal = TrialJournal(tmp_path / "forward.jsonl")
    half = len(specs) // 2
    SerialSweepRunner().run_outcomes(specs[:half], journal=journal)
    assert len(journal) == half
    resumed = SerialSweepRunner().run_outcomes(specs, journal=journal)
    assert len(journal) == len(specs)
    fresh = SerialSweepRunner().run_outcomes(specs)
    assert resumed == fresh
