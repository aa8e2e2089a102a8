"""Sweep runner: fan independent trials over worker processes.

The experiment drivers (Table 1 matrix, Figure 12 overheads, the
examples) are embarrassingly parallel: every trial builds its own
Machine from picklable *descriptions* and returns a picklable summary.
This package provides the spec/summary types and two interchangeable
runners:

* :class:`SerialSweepRunner` — same interface, in-process (the
  reference implementation; used for byte-identical reproduction and on
  single-CPU hosts).
* :class:`ParallelSweepRunner` — chunked fan-out over
  ``concurrent.futures.ProcessPoolExecutor``; Machines and Cores are
  constructed worker-side so nothing unpicklable crosses the process
  boundary.

Determinism: a :class:`TrialSpec` carries an explicit per-trial seed
(derived stably by :func:`expand_grid` via CRC32, not Python's salted
``hash``), so serial and parallel execution produce identical
:class:`TrialSummary` sequences in identical order — including across
retries and checkpoint resumes.

Fault tolerance: ``run``/``run_outcomes`` isolate simulator faults as
structured :class:`TrialOutcome` records (see
:attr:`SweepResult.failures` / :meth:`SweepResult.raise_if_failed`),
retry lost workers and wall-clock timeouts, and checkpoint finished
trials into a :class:`TrialJournal` for interrupt–resume.  The
:mod:`repro.runner.faults` harness injects deterministic faults to
prove those paths in tests and CI.
"""

from repro.runner.spec import (
    SweepFailure,
    SweepResult,
    TrialOutcome,
    TrialSpec,
    TrialStatus,
    TrialSummary,
    expand_grid,
)
from repro.runner.cache import TrialCache, build_fingerprint, cache_key
from repro.runner.replay import REPLAY_MAX_CYCLES, pair_specs, replay_pair
from repro.runner.journal import TrialJournal
from repro.runner.metrics_io import (
    aggregate_from_file,
    read_sweep_metrics,
    write_sweep_metrics,
)
from repro.runner.runner import (
    ParallelSweepRunner,
    RetryLedger,
    SerialSweepRunner,
    SweepRunner,
    backoff_delay,
    make_runner,
    run_chunk,
    run_trial_outcome,
    run_trial_spec,
)
from repro.runner.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FSFaultPlan,
    FSFaultSpec,
)

__all__ = [
    "TrialSpec",
    "TrialSummary",
    "TrialOutcome",
    "TrialStatus",
    "SweepResult",
    "SweepFailure",
    "TrialJournal",
    "TrialCache",
    "cache_key",
    "build_fingerprint",
    "expand_grid",
    "SweepRunner",
    "SerialSweepRunner",
    "ParallelSweepRunner",
    "make_runner",
    "run_trial_spec",
    "run_trial_outcome",
    "run_chunk",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FSFaultSpec",
    "FSFaultPlan",
    "REPLAY_MAX_CYCLES",
    "pair_specs",
    "replay_pair",
    "backoff_delay",
    "RetryLedger",
    "write_sweep_metrics",
    "read_sweep_metrics",
    "aggregate_from_file",
]
