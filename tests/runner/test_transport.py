"""Lean sweep transport: nothing heavy crosses the process boundary."""

import dataclasses
import pickle

import pytest

from repro.runner import SerialSweepRunner, TrialSpec, run_trial_outcome
from repro.runner.runner import _check_lean_transport
from repro.snapshot import rehydrate_trial

#: Per-outcome pickle budget.  A summary is a handful of ints, a short
#: visible-access trace, and (optionally) aggregated metric dicts — if
#: an outcome ever approaches this, something heavy leaked in.
PICKLE_BUDGET = 32 * 1024


def _outcome(**overrides):
    spec = TrialSpec(
        victim="gdnpeu",
        scheme=overrides.pop("scheme", "dom-nontso"),
        secret=1,
        **overrides,
    )
    return spec, run_trial_outcome(spec, plan=None)


def test_outcome_pickle_fits_budget():
    for collect_metrics in (False, True):
        _, outcome = _outcome(collect_metrics=collect_metrics)
        size = len(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        assert size < PICKLE_BUDGET, (
            f"outcome pickles to {size} bytes (collect_metrics="
            f"{collect_metrics}); transport is no longer lean"
        )


def test_sweep_outcomes_fit_budget():
    specs = [
        TrialSpec(victim="gdnpeu", scheme=s, secret=x)
        for s in ("unsafe", "invisispec-spectre")
        for x in (0, 1)
    ]
    for outcome in SerialSweepRunner(fork=True).run_outcomes(specs):
        assert len(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)) < PICKLE_BUDGET


def test_transport_guard_rejects_simulator_objects():
    """Smuggling a Machine (or any simulator object) inside a summary
    field trips the guard before the outcome is shipped."""
    from repro.core.harness import prepare_machine
    from repro.core.victims import victim_by_name

    spec, outcome = _outcome()
    _check_lean_transport(outcome)  # the real outcome passes

    machine, _, _ = prepare_machine(victim_by_name("gdnpeu"), "unsafe", 1)
    fat_summary = dataclasses.replace(outcome.summary, metrics=machine)
    fat = dataclasses.replace(outcome, summary=fat_summary)
    with pytest.raises(TypeError, match="Machine"):
        _check_lean_transport(fat)


def test_snapshot_handle_flow(tmp_path):
    """snapshot_dir= ships a *path* in the summary; the handle
    rehydrates to the trial's final machine state out of process."""
    spec, outcome = _outcome(snapshot_dir=str(tmp_path))
    summary = outcome.summary
    assert summary.snapshot_path is not None
    assert summary.snapshot_path.startswith(str(tmp_path))
    # The handle itself never rides in the outcome.
    assert len(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)) < PICKLE_BUDGET

    setup = rehydrate_trial(spec, summary.snapshot_path)
    assert setup.machine.cycle == summary.cycles
    assert setup.core.halted
    assert setup.core.stats.retired == summary.retired

