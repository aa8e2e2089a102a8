"""Fault-tolerant sweep execution: isolation, retry, resume, injection.

The load-bearing properties:

* a faulting trial becomes a structured ``TrialOutcome`` failure, never
  an exception that loses the rest of the sweep;
* retries (lost workers, wall-clock timeouts) reuse the spec's CRC32
  seed, so a sweep with transient faults converges to exactly the
  fault-free ``SweepResult``;
* a journaled sweep interrupted at any point resumes to a result
  identical to an uninterrupted run.

Every fault here is injected deterministically via
``repro.runner.faults`` — which is itself under test: if injection were
broken, the convergence assertions would vacuously pass, so several
tests also assert the fault actually fired (attempt counts, statuses).
"""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
import repro.runner.runner as runner_mod
from repro.core.matrix import evaluate_cell
from repro.pipeline.core import CycleBudgetError, DeadlockError
from repro.runner import (
    FaultPlan,
    FaultSpec,
    ParallelSweepRunner,
    SerialSweepRunner,
    SweepFailure,
    TrialJournal,
    TrialSpec,
    TrialStatus,
    expand_grid,
    make_runner,
    run_trial_outcome,
    run_trial_spec,
)
from repro.runner import faults
from repro.runner.runner import WORKERS_ENV, default_workers

VICTIMS = ["gdnpeu", "gdmshr"]
SCHEMES = ["dom-nontso", "fence-spectre"]


def grid():
    return expand_grid(VICTIMS, SCHEMES)


@pytest.fixture(autouse=True)
def _no_leftover_fault_plan():
    """Fault plans are process-global; never leak one across tests."""
    faults.clear_plan()
    yield
    faults.clear_plan()


@pytest.fixture(scope="module")
def reference():
    """The fault-free serial result every convergence test compares to."""
    faults.clear_plan()
    return SerialSweepRunner().run(expand_grid(VICTIMS, SCHEMES))


DEADLOCK_FAULT = FaultSpec(
    "deadlock",
    victim="gdnpeu",
    scheme="dom-nontso",
    secret=1,
    at_cycle=123,
    max_attempts=99,
)
KILL_FAULT = FaultSpec(
    "worker-kill", victim="gdmshr", scheme="fence-spectre", secret=0, max_attempts=1
)


def _without(summaries, fault):
    return [
        s
        for s in summaries
        if not (
            s.victim == fault.victim
            and s.scheme == fault.scheme
            and s.secret == fault.secret
        )
    ]


# ----------------------------------------------------------------------
# trial-level fault isolation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("runner_cls", [SerialSweepRunner, ParallelSweepRunner])
def test_deadlocking_trial_is_isolated(runner_cls, reference):
    faults.install_plan(FaultPlan((DEADLOCK_FAULT,)))
    kwargs = {} if runner_cls is SerialSweepRunner else {"workers": 2}
    with runner_cls(**kwargs) as runner:
        result = runner.run(grid())
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.status is TrialStatus.DEADLOCK
    assert failure.error_type == "DeadlockError"
    assert failure.cycle == 123  # fired cycle-exactly despite fast-forward
    # Attributable from the record alone: victim/scheme/secret/seed all
    # in the message (satellite: DeadlockError context).
    for token in ("victim=", "dom-nontso", "secret=1", "seed="):
        assert token in failure.error_message
    # Every other trial completed and matches the fault-free reference.
    assert result.succeeded() == _without(list(reference), DEADLOCK_FAULT)
    # Failed trials keep their slot in the ordered outcome list.
    assert [o.ok for o in result.outcomes].count(False) == 1


def test_strictness_is_opt_in(reference):
    faults.install_plan(FaultPlan((DEADLOCK_FAULT,)))
    result = SerialSweepRunner().run(grid())  # does not raise
    with pytest.raises(SweepFailure) as excinfo:
        result.raise_if_failed()
    assert "deadlock" in str(excinfo.value)
    assert excinfo.value.failures == result.failures
    faults.clear_plan()
    clean = SerialSweepRunner().run(grid())
    assert clean.raise_if_failed() is clean  # chainable when all ok


def test_cycle_budget_overrun_is_structured_and_attributable():
    spec = TrialSpec(victim="gdnpeu", scheme="dom-nontso", secret=1, max_cycles=40)
    with pytest.raises(CycleBudgetError) as excinfo:
        run_trial_spec(spec)  # strict path still raises ...
    assert "victim=" in str(excinfo.value) and "seed=" in str(excinfo.value)
    outcome = run_trial_outcome(spec)  # ... the outcome path isolates
    assert outcome.status is TrialStatus.DEADLOCK
    assert outcome.error_type == "CycleBudgetError"
    assert outcome.cycle is not None and outcome.cycle >= 40


def test_injected_error_is_isolated():
    faults.install_plan(
        FaultPlan(
            (FaultSpec("error", victim="gdmshr", scheme="dom-nontso", secret=1),)
        )
    )
    result = SerialSweepRunner().run(grid())
    assert len(result.failures) == 1
    assert result.failures[0].status is TrialStatus.ERROR
    assert result.failures[0].error_type == "ValueError"


def test_bad_spec_is_isolated_not_fatal():
    bad = TrialSpec(victim="no-such-victim", scheme="dom-nontso", secret=0)
    result = SerialSweepRunner().run([bad] + grid())
    assert len(result.failures) == 1
    assert result.failures[0].error_type == "ValueError"
    assert "no-such-victim" in result.failures[0].error_message
    assert len(result) == len(grid())


# ----------------------------------------------------------------------
# retry: lost workers converge to the fault-free result
# ----------------------------------------------------------------------
def test_worker_kill_is_retried_serial(reference):
    faults.install_plan(FaultPlan((KILL_FAULT,)))
    result = SerialSweepRunner().run(grid())
    assert not result.failures
    assert list(result) == list(reference)
    # The kill really fired: exactly one trial needed a second attempt.
    assert sorted(o.attempts for o in result.outcomes) == [1] * 7 + [2]


def test_worker_kill_is_retried_parallel(reference):
    faults.install_plan(FaultPlan((KILL_FAULT,)))
    with ParallelSweepRunner(2, chunksize=1) as runner:
        result = runner.run(grid())
    assert not result.failures
    assert list(result) == list(reference)
    # The pool actually broke: the killed trial (at least) was retried.
    assert max(o.attempts for o in result.outcomes) >= 2


def test_kill_retries_exhaust_into_structured_failure(reference):
    always_kill = FaultSpec(
        "worker-kill",
        victim="gdmshr",
        scheme="fence-spectre",
        secret=0,
        max_attempts=99,
    )
    faults.install_plan(FaultPlan((always_kill,)))
    with ParallelSweepRunner(2, chunksize=1, max_retries=1) as runner:
        result = runner.run(grid())
    statuses = {f.status for f in result.failures}
    assert statuses == {TrialStatus.WORKER_LOST}
    # Everything not implicated by the repeated pool loss still finished
    # and matches the reference.
    done = {(s.victim, s.scheme, s.secret) for s in result}
    for summary in reference:
        if (summary.victim, summary.scheme, summary.secret) in done:
            assert summary in list(result)


ALWAYS_KILL = FaultSpec(
    "worker-kill", victim="gdmshr", scheme="fence-spectre", secret=0, max_attempts=99
)


def _only_the_killed_trial_failed(result, reference, max_retries):
    """One ``worker-lost`` RetriesExhausted failure for ALWAYS_KILL's
    trial, after ``max_retries + 1`` charged attempts; every other
    trial ok and equal to the fault-free reference."""
    (failure,) = result.failures
    assert (failure.victim, failure.scheme, failure.secret) == (
        ALWAYS_KILL.victim,
        ALWAYS_KILL.scheme,
        ALWAYS_KILL.secret,
    )
    assert failure.status is TrialStatus.WORKER_LOST
    assert failure.error_type == "RetriesExhausted"
    assert failure.attempts == max_retries + 1
    assert result.succeeded() == _without(list(reference), ALWAYS_KILL)


def test_pool_break_charges_only_the_killing_trial(reference):
    """A pool break interrupts every chunk in flight; only the trial
    that kills its worker may be charged, so no innocent trial runs
    out of retries, however the chunks interleave."""
    faults.install_plan(FaultPlan((ALWAYS_KILL,)))
    for _ in range(3):
        with ParallelSweepRunner(2, chunksize=1, max_retries=1) as runner:
            result = runner.run(grid())
        _only_the_killed_trial_failed(result, reference, max_retries=1)


def test_serial_kill_exhausts_into_retries_exhausted(reference):
    """The serial runner reports an exhausted kill exactly as the pool
    and the service do."""
    faults.install_plan(FaultPlan((ALWAYS_KILL,)))
    result = SerialSweepRunner(max_retries=1).run(grid())
    _only_the_killed_trial_failed(result, reference, max_retries=1)


@pytest.mark.parametrize(
    "make", [SerialSweepRunner, lambda: ParallelSweepRunner(2, chunksize=2)]
)
def test_failed_journal_append_keeps_every_outcome(make, tmp_path, reference):
    """A journal append that fails (here: the first one per process,
    with ENOSPC) costs the journal that record, never the outcome; a
    resume re-runs just the unrecorded trials."""
    journal = TrialJournal(tmp_path / "sweep.jsonl")
    faults.install_fs_plan(
        faults.FSFaultPlan(
            (faults.FSFaultSpec(faults.FS_ENOSPC, op=faults.OP_JOURNAL_APPEND),)
        )
    )
    try:
        with make() as runner:
            outcomes = runner.run_outcomes(grid(), journal=journal)
    finally:
        faults.clear_fs_plan()
    assert outcomes == reference.outcomes
    assert 0 < len(journal) < len(grid())
    assert SerialSweepRunner().run_outcomes(grid(), journal=journal) == outcomes
    assert len(journal) == len(grid())


def test_stalled_trial_times_out_parallel(reference):
    stall = FaultSpec(
        "stall",
        victim="gdnpeu",
        scheme="dom-nontso",
        secret=0,
        at_cycle=10,
        stall_seconds=30.0,
        max_attempts=99,
    )
    faults.install_plan(FaultPlan((stall,)))
    with ParallelSweepRunner(
        2, chunksize=1, max_retries=1, trial_timeout=0.5
    ) as runner:
        result = runner.run(grid())
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.status is TrialStatus.TIMEOUT
    assert failure.attempts == 2  # original + one retry, then gave up
    assert list(result) == _without(list(reference), stall)


# ----------------------------------------------------------------------
# checkpoint–resume
# ----------------------------------------------------------------------
def _counting_run_trial_outcome(monkeypatch):
    calls = []
    original = runner_mod.run_trial_outcome

    def wrapper(spec, attempt=0, plan=runner_mod._PLAN_UNSET):
        calls.append(spec.label())
        return original(spec, attempt, plan)

    monkeypatch.setattr(runner_mod, "run_trial_outcome", wrapper)
    return calls


def test_resume_skips_journaled_trials_and_matches(tmp_path, monkeypatch, reference):
    journal = TrialJournal(tmp_path / "sweep.jsonl")
    specs = grid()
    SerialSweepRunner().run(specs[:5], journal=journal)
    assert len(journal) == 5
    calls = _counting_run_trial_outcome(monkeypatch)
    resumed = SerialSweepRunner().run(specs, journal=journal)
    assert len(calls) == len(specs) - 5  # journaled trials never re-ran
    assert list(resumed) == list(reference)
    assert not resumed.failures
    assert len(journal) == len(specs)


def test_interrupt_mid_sweep_then_resume_is_identical(
    tmp_path, monkeypatch, reference
):
    """SIGINT surfaces as KeyboardInterrupt inside the sweep loop; the
    journal must hold every finished trial and nothing else, and the
    resumed result must equal an uninterrupted run's."""
    journal = TrialJournal(tmp_path / "sweep.jsonl")
    specs = grid()
    original = runner_mod.run_trial_outcome
    seen = []

    def interrupt_on_sixth(spec, attempt=0, plan=runner_mod._PLAN_UNSET):
        seen.append(spec.label())
        if len(seen) == 6:
            raise KeyboardInterrupt
        return original(spec, attempt, plan)

    monkeypatch.setattr(runner_mod, "run_trial_outcome", interrupt_on_sixth)
    with pytest.raises(KeyboardInterrupt):
        SerialSweepRunner().run(specs, journal=journal)
    monkeypatch.setattr(runner_mod, "run_trial_outcome", original)
    assert len(journal) == 5  # the five completed before the interrupt

    resumed = SerialSweepRunner().run(specs, journal=journal)
    assert list(resumed) == list(reference)
    assert [o.ok for o in resumed.outcomes] == [True] * len(specs)


def test_sigint_subprocess_resume_is_identical(tmp_path, reference):
    """A real SIGINT against a sweeping interpreter: the journal left
    behind resumes to the uninterrupted result."""
    journal_path = tmp_path / "sweep.jsonl"
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    child_code = f"""
import sys
from repro.runner import SerialSweepRunner, TrialJournal, FaultPlan, FaultSpec, expand_grid
from repro.runner import faults

# Slow every trial down (wall-clock only; simulated state untouched) so
# the parent reliably lands its SIGINT mid-sweep.
faults.install_plan(FaultPlan((FaultSpec(
    "stall", at_cycle=5, stall_seconds=0.4, max_attempts=99),)))
specs = expand_grid({VICTIMS!r}, {SCHEMES!r})
SerialSweepRunner().run(specs, journal=TrialJournal({str(journal_path)!r}))
print("SWEEP-COMPLETED")
"""
    env = dict(os.environ, PYTHONPATH=src_root)
    env.pop(faults.FAULT_PLAN_ENV, None)
    child = subprocess.Popen(
        [sys.executable, "-c", child_code],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    journal = TrialJournal(journal_path)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if len(journal.load()) >= 2 or child.poll() is not None:
            break
        time.sleep(0.02)
    child.send_signal(signal.SIGINT)
    stdout, _ = child.communicate(timeout=60)
    records_left = len(journal.load())
    if records_left < len(grid()):
        # The interrupt really landed mid-sweep.
        assert b"SWEEP-COMPLETED" not in stdout
        assert records_left >= 2
    resumed = SerialSweepRunner().run(grid(), journal=journal)
    assert list(resumed) == list(reference)
    assert not resumed.failures


# ----------------------------------------------------------------------
# the acceptance scenario: mixed faults + interrupt in one sweep
# ----------------------------------------------------------------------
def test_mixed_fault_sweep_end_to_end(tmp_path, reference):
    """One deadlocking trial, one killed worker, one mid-sweep
    interruption — the sweep completes, reports the deadlock as data,
    retries the kill deterministically, and the resumed result equals
    the uninterrupted one for every succeeded trial."""
    faults.install_plan(FaultPlan((DEADLOCK_FAULT, KILL_FAULT)))
    journal = TrialJournal(tmp_path / "sweep.jsonl")
    specs = grid()

    # "Interrupted" first run: only part of the grid gets executed.
    with ParallelSweepRunner(2, chunksize=1) as runner:
        runner.run(specs[:5], journal=journal)
    checkpointed = len(journal)
    assert 1 <= checkpointed <= 5

    # Resume over the full grid, faults still active.
    with ParallelSweepRunner(2, chunksize=1) as runner:
        result = runner.run(specs, journal=journal)

    # The deadlock is data, not an exception — and it was checkpointed,
    # so the resumed run reports it from the journal (attempts == 1).
    assert [f.status for f in result.failures] == [TrialStatus.DEADLOCK]
    assert result.failures[0].attempts == 1
    # The killed worker's trial was retried and converged.
    kill_outcome = next(
        o
        for o in result.outcomes
        if (o.victim, o.scheme, o.secret)
        == (KILL_FAULT.victim, KILL_FAULT.scheme, KILL_FAULT.secret)
    )
    assert kill_outcome.ok and kill_outcome.attempts >= 2
    # Everything that succeeded matches the uninterrupted fault-free
    # reference, in spec order.
    assert result.succeeded() == _without(list(reference), DEADLOCK_FAULT)
    assert [o.digest for o in result.outcomes] == [s.digest() for s in specs]


# ----------------------------------------------------------------------
# fault plan mechanics
# ----------------------------------------------------------------------
def test_fault_plan_json_roundtrip_and_env_export():
    plan = FaultPlan((DEADLOCK_FAULT, KILL_FAULT))
    assert FaultPlan.from_json(plan.to_json()) == plan
    faults.install_plan(plan)
    assert os.environ[faults.FAULT_PLAN_ENV] == plan.to_json()
    assert faults.current_plan() == plan
    faults.clear_plan()
    assert faults.current_plan() is None
    assert faults.FAULT_PLAN_ENV not in os.environ


def test_fault_selectors_and_attempt_window():
    spec = TrialSpec(victim="gdnpeu", scheme="dom-nontso", secret=1)
    assert DEADLOCK_FAULT.matches(spec, attempt=0)
    assert DEADLOCK_FAULT.matches(spec, attempt=5)
    once = FaultSpec("error", victim="gdnpeu", max_attempts=1)
    assert once.matches(spec, attempt=0)
    assert not once.matches(spec, attempt=1)  # retries run clean
    other = TrialSpec(victim="girs", scheme="dom-nontso", secret=1)
    assert not DEADLOCK_FAULT.matches(other, attempt=0)
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("melt-the-cpu")


def test_run_trial_outcome_plan_override():
    spec = TrialSpec(victim="gdnpeu", scheme="dom-nontso", secret=1)
    faults.install_plan(FaultPlan((DEADLOCK_FAULT,)))
    assert run_trial_outcome(spec).status is TrialStatus.DEADLOCK
    # Explicit plan=None forces fault-free execution despite the plan.
    assert run_trial_outcome(spec, plan=None).ok


# ----------------------------------------------------------------------
# per-cell containment in the Table 1 driver
# ----------------------------------------------------------------------
def test_matrix_cell_on_error_report(monkeypatch):
    def explode(*args, **kwargs):
        raise DeadlockError("synthetic hang", cycle=99)

    monkeypatch.setattr("repro.core.matrix.run_victim_trial", explode)
    with pytest.raises(DeadlockError):
        evaluate_cell("gdnpeu", "vd-vd", "dom-nontso")  # strict default
    cell = evaluate_cell("gdnpeu", "vd-vd", "dom-nontso", on_error="report")
    assert not cell.vulnerable
    assert cell.error == "DeadlockError: synthetic hang"
    with pytest.raises(ValueError, match="on_error"):
        evaluate_cell("gdnpeu", "vd-vd", "dom-nontso", on_error="explode")


# ----------------------------------------------------------------------
# satellite: REPRO_SWEEP_WORKERS validation
# ----------------------------------------------------------------------
def test_malformed_workers_env_is_a_loud_error(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "eight")
    with pytest.raises(ValueError, match=WORKERS_ENV):
        default_workers()
    with pytest.raises(ValueError, match=WORKERS_ENV):
        make_runner()
    monkeypatch.setenv(WORKERS_ENV, "0")
    with pytest.raises(ValueError, match=">= 1"):
        make_runner()
    monkeypatch.setenv(WORKERS_ENV, "-2")
    with pytest.raises(ValueError, match=">= 1"):
        make_runner()
    # Whitespace-only behaves like unset (no crash).
    monkeypatch.setenv(WORKERS_ENV, "  ")
    assert default_workers() >= 1


def test_make_runner_forwards_resilience_knobs():
    runner = make_runner(3, max_retries=5, trial_timeout=1.5)
    assert isinstance(runner, ParallelSweepRunner)
    assert runner.max_retries == 5 and runner.trial_timeout == 1.5
    runner.close()
    serial = make_runner(1, max_retries=7)
    assert isinstance(serial, SerialSweepRunner)
    assert serial.max_retries == 7
