"""Relabel-group (``fork=True``) planning and runner integration."""

import pytest

from repro.runner import (
    ParallelSweepRunner,
    SerialSweepRunner,
    TrialJournal,
    TrialSpec,
    expand_grid,
)
from repro.runner import faults
from repro.runner.faults import FaultPlan, FaultSpec
from repro.runner.spec import stream_dependent
from repro.snapshot import group_key, plan_fork_groups


@pytest.fixture(autouse=True)
def _no_fault_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


def _grid():
    # Two base seeds x two secrets per scheme: every (scheme, secret)
    # pair is one relabel group of two inert seeds.
    return expand_grid(
        ["gdnpeu"], ["unsafe", "dom-nontso"], base_seed=1
    ) + expand_grid(["gdnpeu"], ["unsafe", "dom-nontso"], base_seed=2)


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def test_plan_groups_by_secret_and_inert_seed():
    """Default config: seeds are inert, so every (victim, scheme,
    secret) bucket collapses into one group spanning its seeds."""
    specs = _grid()
    assert not any(stream_dependent(s) for s in specs)
    groups, passthrough = plan_fork_groups(specs)
    assert passthrough == []
    assert sorted(len(g) for g in groups) == [2, 2, 2, 2]
    for group in groups:
        # Never mix schemes or secrets in one group; only seeds differ.
        assert len({(specs[i].scheme, specs[i].secret) for i in group}) == 1
        assert len({specs[i].seed for i in group}) == len(group)


def test_plan_passes_through_sanitized_and_noisy_trials():
    specs = [
        TrialSpec(victim="gdnpeu", scheme="unsafe", secret=s, sanitize=True)
        for s in (0, 1)
    ] + [
        TrialSpec(victim="gdnpeu", scheme="unsafe", secret=s, noise_rate=0.5)
        for s in (0, 1)
    ]
    groups, passthrough = plan_fork_groups(specs)
    assert groups == []
    assert passthrough == [0, 1, 2, 3]
    assert stream_dependent(specs[2])  # noise makes the seed live


def test_plan_passes_through_singletons():
    specs = [TrialSpec(victim="gdnpeu", scheme="unsafe", secret=1)]
    groups, passthrough = plan_fork_groups(specs)
    assert groups == []
    assert passthrough == [0]


def test_group_key_ignores_only_the_seed():
    a = TrialSpec(victim="gdnpeu", scheme="stt", secret=0, seed=11)
    b = TrialSpec(victim="gdnpeu", scheme="stt", secret=0, seed=99)
    c = TrialSpec(victim="gdnpeu", scheme="stt", secret=1, seed=11)
    d = TrialSpec(victim="gdnpeu", scheme="muontrap", secret=0, seed=11)
    assert group_key(a) == group_key(b)
    assert group_key(a) != group_key(c)
    assert group_key(a) != group_key(d)


def test_dram_jitter_specs_are_never_grouped():
    """With live DRAM jitter the seed matters, so no spec is relabeled
    from another seed's run: every jittered spec runs cold."""
    from repro.memory.hierarchy import HierarchyConfig

    config = HierarchyConfig(dram_jitter=2)
    specs = [
        TrialSpec(
            victim="gdnpeu",
            scheme="unsafe",
            secret=secret,
            seed=seed,
            hierarchy_config=config,
        )
        for seed in (1, 2)
        for secret in (0, 1)
    ]
    assert stream_dependent(specs[0])
    groups, passthrough = plan_fork_groups(specs)
    assert groups == []
    assert passthrough == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# runner integration
# ----------------------------------------------------------------------
def test_serial_fork_matches_cold():
    specs = _grid()
    assert SerialSweepRunner(fork=True).run_outcomes(
        specs
    ) == SerialSweepRunner().run_outcomes(specs)


def test_parallel_fork_matches_cold():
    specs = _grid()
    cold = SerialSweepRunner().run_outcomes(specs)
    with ParallelSweepRunner(workers=2, fork=True) as runner:
        forked = runner.run_outcomes(specs)
    assert forked == cold


def test_fork_records_outcomes_in_journal(tmp_path):
    """Forked outcomes checkpoint like cold ones: an interrupted sweep
    resumes from the journal without re-simulating."""
    specs = _grid()
    journal = TrialJournal(tmp_path / "sweep.jsonl")
    first = SerialSweepRunner(fork=True).run_outcomes(
        specs, journal=journal
    )
    assert len(journal.load()) == len(specs)

    resumed = TrialJournal(tmp_path / "sweep.jsonl")
    second = SerialSweepRunner(fork=True).run_outcomes(
        specs, journal=resumed
    )
    assert second == first


def test_fork_disabled_while_fault_plan_active():
    """Fault-injection campaigns exercise the cold path's retry logic;
    forking silently bypassing them would invalidate those tests."""
    specs = _grid()
    cold = SerialSweepRunner().run_outcomes(specs)
    faults.install_plan(
        FaultPlan(
            (
                FaultSpec(
                    "error", victim="gdnpeu", scheme="unsafe", secret=1
                ),
            )
        )
    )
    try:
        outcomes = SerialSweepRunner(fork=True).run_outcomes(specs)
    finally:
        faults.clear_plan()
    # The injected error fires on every matching trial — proof the cold
    # path (where fault injection lives) ran instead of the fork path.
    from repro.runner import TrialStatus

    for outcome, ref in zip(outcomes, cold, strict=False):
        if outcome.scheme == "unsafe" and outcome.secret == 1:
            assert outcome.status is TrialStatus.ERROR
        else:
            assert outcome.summary == ref.summary


def test_run_wrapper_uses_fork_path():
    """SweepRunner.run (summary-level API) rides the same fork layer."""
    specs = _grid()
    cold = SerialSweepRunner().run(specs)
    forked = SerialSweepRunner(fork=True).run(specs)
    assert forked.summaries == cold.summaries
    assert forked.failures == cold.failures


def test_fork_keeps_snapshot_specs_cold(tmp_path):
    """A spec with a ``snapshot_dir`` saves its own ``<digest>.snap``,
    so it is never relabeled from another spec's run: every file
    exists, and every outcome equals the cold one."""
    specs = [
        spec
        for base in range(3)
        for spec in expand_grid(
            ["gdnpeu"], ["dom-nontso"], base_seed=base,
            snapshot_dir=str(tmp_path),
        )
    ]
    forked = SerialSweepRunner(fork=True).run_outcomes(specs)
    missing = [
        spec.label()
        for spec in specs
        if not (tmp_path / f"{spec.digest()}.snap").exists()
    ]
    assert missing == []
    assert forked == SerialSweepRunner().run_outcomes(specs)
