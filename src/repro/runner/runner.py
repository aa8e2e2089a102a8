"""Serial and process-parallel sweep runners with fault tolerance.

Both runners expose the same entry points:

* :meth:`SweepRunner.run` — execute a list of :class:`TrialSpec`s and
  return a :class:`SweepResult` in spec order;
* :meth:`SweepRunner.run_outcomes` — the same execution, returning the
  raw per-trial :class:`TrialOutcome` list (one per spec, in order);
* :meth:`SweepRunner.map` — order-preserving map of an arbitrary
  module-level function over items (used by the matrix/overhead
  drivers, whose work units are not victim trials).  ``map`` is the
  strict path: exceptions propagate.

Fault tolerance (``run``/``run_outcomes`` only):

* **Trial isolation** — a simulator fault (deadlock, cycle-budget
  overrun, bad configuration) is captured as a structured failure
  outcome; the sweep completes and reports it via
  :attr:`SweepResult.failures`.  Strict all-or-nothing behaviour is
  opt-in: ``runner.run(specs).raise_if_failed()``.
* **Retry with backoff** — lost workers (crash, OOM-kill) and per-trial
  wall-clock deadline overruns are retried up to ``max_retries`` times
  with a capped exponential backoff between rounds; the spec's CRC32
  seed travels with it, so a retried trial is bit-identical to a
  first-attempt run.
* **Checkpoint–resume** — pass a :class:`TrialJournal` and every
  finished trial is recorded as it completes; a re-run over the same
  specs skips journaled digests and merges their outcomes back in spec
  order, making the resumed :class:`SweepResult` identical to an
  uninterrupted one.

The parallel runner submits *chunks* so small trials amortize IPC
overhead, constructs every Machine/Core worker-side, and ships only
picklable outcome objects back.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.pipeline.core import DeadlockError
from repro.runner import faults
from repro.runner.journal import TrialJournal
from repro.runner.spec import (
    SweepResult,
    TrialOutcome,
    TrialSpec,
    TrialStatus,
    TrialSummary,
)

T = TypeVar("T")
R = TypeVar("R")

#: Environment override for the default worker count.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Statuses the runners re-execute (transient, infrastructure-level).
RETRYABLE_STATUSES = frozenset({TrialStatus.TIMEOUT, TrialStatus.WORKER_LOST})

#: Seconds the parallel runner sleeps between future polls.
_POLL_INTERVAL = 0.05

#: Grace added to every chunk deadline for pool spin-up and queueing.
_SPINUP_GRACE = 1.0

#: Base / cap for the capped exponential backoff between retry rounds.
_BACKOFF_BASE = 0.1
_BACKOFF_CAP = 2.0

#: Process-local jitter source for retry backoff.  OS-seeded on
#: purpose: backoff timing is pure wall-clock behaviour (results are
#: keyed by deterministic per-trial seeds, never by scheduling), and
#: distinct processes *must* draw different jitter — that is the point.
_jitter_rng = random.Random()


def backoff_delay(round_no: int, *, rng: Optional[random.Random] = None) -> float:
    """Jittered capped exponential backoff for retry round ``round_no``
    (1-indexed): uniform in ``[base/2, base]`` where ``base`` is the
    capped exponential step.

    The jitter decorrelates resubmission: when a mass worker loss
    reclaims many chunks at once (a killed host, an expired lease
    sweep), re-fanning them out in lockstep would hammer the pool — and
    a shared cache/journal — in synchronized waves.  Spreading each
    chunk across half a backoff window keeps the retry herd thundering
    politely.
    """
    base = min(_BACKOFF_CAP, _BACKOFF_BASE * (2 ** (round_no - 1)))
    draw = (rng if rng is not None else _jitter_rng).random()
    return base * (0.5 + 0.5 * draw)

#: Sentinel distinguishing "no plan argument" from "explicitly no plan".
_PLAN_UNSET = object()


def run_trial_spec(spec: TrialSpec, *, fault_injector=None) -> TrialSummary:
    """Execute one trial from its picklable description (strict path:
    simulator faults propagate).

    Module-level (picklable by reference) and self-contained: builds the
    victim from the registry and the Machine/Core inside the calling
    process, so it works identically in the parent and in pool workers.
    """
    # Imported here, not at module top: pool workers (re-)import this
    # module before running anything, and the light import keeps worker
    # spin-up cheap when the pool is larger than the task list.
    from repro.core.harness import run_victim_trial
    from repro.core.victims import victim_by_name

    victim = victim_by_name(spec.victim, **dict(spec.victim_kwargs))
    tracer = None
    if spec.collect_metrics:
        # Stage-filtered tracer: enough for the per-stage latency
        # histograms, compact enough to carry through long sweeps.
        # Tracing is observer-invariant (the differential invisibility
        # test enforces it), so metrics collection never perturbs the
        # trial's measurements.
        from repro.trace import Tracer
        from repro.trace.events import STAGE_KINDS

        tracer = Tracer(kinds=STAGE_KINDS)
    result = run_victim_trial(
        victim,
        spec.scheme,
        spec.secret,
        hierarchy_config=spec.hierarchy_config,
        reference_accesses=spec.reference_accesses,
        noise_rate=spec.noise_rate,
        noise_pool=spec.noise_pool,
        seed=spec.seed,
        max_cycles=spec.max_cycles,
        tracer=tracer,
        extra_lines=spec.extra_lines,
        fault_injector=fault_injector,
        sanitize=spec.sanitize,
    )
    if result.core is None:
        # Explicit, not an assert: asserts vanish under ``python -O``
        # and this invariant guards the summary below.
        raise RuntimeError(
            f"run_victim_trial returned no core handle for {spec.label()}"
        )
    probe_latencies = None
    if spec.probe_accesses:
        # Probe before metrics/snapshot capture: every execution path
        # (cold, fork, batch) agrees the final state includes the probe.
        from repro.core.harness import run_probe_phase

        probe_latencies = run_probe_phase(
            result.machine, spec.probe_accesses
        )
    metrics = None
    if spec.collect_metrics:
        from repro.system.stats import machine_metrics

        metrics = machine_metrics(
            result.machine, events=tracer.events
        ).to_json()
    snapshot_path = None
    if spec.snapshot_dir is not None:
        from repro.snapshot.handle import save_trial_snapshot

        snapshot_path = save_trial_snapshot(
            result.machine, spec, spec.snapshot_dir
        )
    return TrialSummary(
        victim=spec.victim,
        scheme=result.scheme,
        secret=spec.secret,
        seed=spec.seed,
        cycles=result.cycles,
        access_cycle=dict(result.access_cycle),
        visible=tuple(result.visible),
        retired=result.core.stats.retired,
        line_a=victim.line_a,
        line_b=victim.line_b,
        metrics=metrics,
        snapshot_path=snapshot_path,
        probe_latencies=probe_latencies,
    )


def run_trial_outcome(
    spec: TrialSpec, attempt: int = 0, plan=_PLAN_UNSET
) -> TrialOutcome:
    """Execute one trial with fault isolation: always returns a
    structured :class:`TrialOutcome`, never raises a simulator fault.

    ``attempt`` is the 0-indexed retry counter (it parameterizes fault
    injection and is reported as ``attempts = attempt + 1``).  ``plan``
    overrides the process-active :class:`~repro.runner.faults.FaultPlan`
    (pass ``None`` to force fault-free execution).
    """
    if plan is _PLAN_UNSET:
        plan = faults.current_plan()
    fault = plan.fault_for(spec, attempt) if plan is not None else None
    try:
        if fault is not None:
            faults.execute_process_fault(fault, spec)
        summary = run_trial_spec(
            spec, fault_injector=faults.injector_for(fault)
        )
        return TrialOutcome(
            digest=spec.digest(),
            victim=spec.victim,
            scheme=spec.scheme,
            secret=spec.secret,
            seed=spec.seed,
            status=TrialStatus.OK,
            attempts=attempt + 1,
            summary=summary,
        )
    except faults.WorkerKilled as exc:
        return _failure_outcome(spec, TrialStatus.WORKER_LOST, exc, attempt)
    except DeadlockError as exc:
        # Covers forced deadlocks, starvation deadlocks (MSHR
        # exhaustion and similar structural hangs) and cycle-budget
        # overruns (CycleBudgetError); ``exc.cycle`` records how far
        # the simulation got.
        return _failure_outcome(
            spec, TrialStatus.DEADLOCK, exc, attempt, cycle=exc.cycle
        )
    except KeyboardInterrupt:
        raise  # the user's interrupt is not a trial fault
    except Exception as exc:
        return _failure_outcome(spec, TrialStatus.ERROR, exc, attempt)


def _failure_outcome(
    spec: TrialSpec,
    status: TrialStatus,
    exc: Optional[BaseException],
    attempt: int,
    *,
    cycle: Optional[int] = None,
) -> TrialOutcome:
    return TrialOutcome(
        digest=spec.digest(),
        victim=spec.victim,
        scheme=spec.scheme,
        secret=spec.secret,
        seed=spec.seed,
        status=status,
        attempts=attempt + 1,
        error_type=type(exc).__name__ if exc is not None else None,
        error_message=str(exc) if exc is not None else None,
        cycle=cycle,
    )


#: Simulator types that must never appear in a worker-shipped summary —
#: each would drag megabytes of state (or unpicklable closures) across
#: the process boundary.
_FORBIDDEN_TRANSPORT = frozenset(
    {"Machine", "Core", "CacheHierarchy", "Tracer", "TrialSetup"}
)


def _check_lean_transport(outcome: TrialOutcome) -> None:
    """Lean-transport guard: outcomes ship plain data only.

    Summaries reference heavyweight state by *path* (``snapshot_path``)
    when a spec asks for it; a live simulator object slipping into any
    summary field is a transport bug and fails loudly here, worker-side,
    instead of as an opaque pickling error in the parent."""
    summary = outcome.summary
    if summary is None:
        return
    for field_name in summary.__dataclass_fields__:
        value = getattr(summary, field_name)
        if type(value).__name__ in _FORBIDDEN_TRANSPORT:
            raise TypeError(
                f"TrialSummary.{field_name} holds a "
                f"{type(value).__name__}; simulator objects must not "
                f"cross the worker boundary"
            )


def _run_chunk_outcomes(
    tasks: List[Tuple[TrialSpec, int]],
    journal_path: Optional[str],
    plan_json: Optional[str],
    journal_fsync: bool = False,
) -> List[TrialOutcome]:
    """Pool-worker chunk body: run each (spec, attempt) with isolation,
    journaling every deterministic outcome as it completes — so the
    parent can recover a partially finished chunk if this worker dies."""
    plan = faults.FaultPlan.from_json(plan_json) if plan_json else None
    journal = (
        TrialJournal(journal_path, fsync=journal_fsync) if journal_path else None
    )
    outcomes = []
    for spec, attempt in tasks:
        outcome = run_trial_outcome(spec, attempt=attempt, plan=plan)
        _check_lean_transport(outcome)
        if journal is not None and journal.should_record(outcome):
            journal.record(outcome)
        outcomes.append(outcome)
    return outcomes


def _run_fork_group_outcomes(specs: List[TrialSpec]):
    """Pool-dispatchable fork-group body (module-level, picklable by
    reference).  Returns aligned outcomes, or None when the group must
    fall back to cold execution."""
    from repro.snapshot.fork import run_fork_group

    outcomes = run_fork_group(specs)
    if outcomes is not None:
        for outcome in outcomes:
            _check_lean_transport(outcome)
    return outcomes


def _run_batch_group_outcomes(specs: List[TrialSpec]):
    """Pool-dispatchable batch-group body (module-level, picklable by
    reference).  Returns ``(outcomes, ejected_lane_count)`` — outcomes
    aligned with ``specs``, or ``(None, 0)`` when the group must fall
    back to the fork/cold layers."""
    from repro.batch.engine import run_batch_group_detailed

    try:
        report = run_batch_group_detailed(specs)
    except KeyboardInterrupt:
        raise
    except Exception:
        return None, 0
    for outcome in report.outcomes:
        _check_lean_transport(outcome)
    return report.outcomes, report.ejected


class SweepRunner:
    """Interface shared by the serial and parallel runners."""

    #: Worker processes this runner fans out to (1 = in-process).
    workers: int = 1
    #: Re-runs allowed per trial on transient (timeout / worker-lost)
    #: failures; the first execution is not a retry.
    max_retries: int = 2
    #: Snapshot/fork execution (:mod:`repro.snapshot.fork`): trials
    #: differing only in secret/seed share one simulated prefix.
    fork: bool = False
    #: Batched lockstep execution (:mod:`repro.batch`): trials differing
    #: only in secret/seed/reference schedule step as SoA lanes of one
    #: leader run per secret.  Requires numpy; silently inert without it.
    batch: bool = False
    #: Content-addressed trial cache directory
    #: (:class:`repro.runner.cache.TrialCache`); None disables caching.
    cache_dir: Optional[str] = None
    #: Lazily created :class:`~repro.runner.cache.TrialCache` for
    #: ``cache_dir`` (one instance per runner, so its hit/miss/bypass
    #: counters accumulate across runs); None when caching is off.
    _trial_cache = None
    #: Batched-lockstep accounting (lanes batched / ejected, per-reason
    #: bypass counts).  Accumulates across runs on one runner, exactly
    #: like the trial cache's counters; None until a batch=True sweep
    #: runs.
    _batch_stats: Optional[Dict[str, int]] = None

    @property
    def trial_cache(self):
        if self.cache_dir is None:
            return None
        if self._trial_cache is None:
            from repro.runner.cache import TrialCache

            self._trial_cache = TrialCache(self.cache_dir)
        return self._trial_cache

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        raise NotImplementedError

    def _execute_outcomes(
        self,
        specs: Sequence[TrialSpec],
        *,
        journal: Optional[TrialJournal] = None,
    ) -> List[TrialOutcome]:
        """Cold execution of ``specs`` (isolation + retry + journal)."""
        raise NotImplementedError

    def run_outcomes(
        self,
        specs: Sequence[TrialSpec],
        *,
        journal: Optional[TrialJournal] = None,
    ) -> List[TrialOutcome]:
        """Execute ``specs``, layering the memoization fast paths over
        the runner's cold execution:

        1. **cache pre-check** — specs whose content digest (plus the
           snapshot state-schema hash) is already in ``cache_dir``
           return their memoized outcome without simulating;
        2. **journal merge** — checkpointed outcomes are reused;
        3. **batch groups** — with ``batch=True`` (numpy present, no
           fault plan active), remaining specs that differ only in
           secret/seed/reference schedule step as lockstep SoA lanes of
           one leader run per secret (:mod:`repro.batch`);
        4. **fork groups** — with ``fork=True`` (and no fault plan
           active), remaining specs that differ only in secret/seed run
           as probe-plus-forked-variants groups;
        5. everything still unresolved runs cold, exactly as before;
        6. fresh ``ok`` outcomes are written back to the cache.
        """
        specs = list(specs)
        outcomes: List[Optional[TrialOutcome]] = [None] * len(specs)
        cache = self.trial_cache
        cached: set = set()
        if cache is not None:
            for i, spec in enumerate(specs):
                hit = cache.get(spec)
                if hit is not None:
                    outcomes[i] = hit
                    cached.add(i)
        _merge_journal(specs, outcomes, journal)
        if self.batch:
            if self._batch_stats is None:
                self._batch_stats = {}
            if faults.current_plan() is None:
                self._run_batch_groups(specs, outcomes, journal)
            else:
                # An active fault plan disables the mirror wholesale
                # (injected faults must land on real per-spec machines);
                # account for it like any other bypass.
                from repro.batch.plan import BYPASS_FAULTS

                pending = sum(1 for o in outcomes if o is None)
                if pending:
                    self._tally_batch({f"bypass.{BYPASS_FAULTS}": pending})
        if self.fork and faults.current_plan() is None:
            self._run_fork_groups(specs, outcomes, journal)
        rest = [i for i in range(len(specs)) if outcomes[i] is None]
        if rest:
            for i, outcome in zip(
                rest,
                self._execute_outcomes(
                    [specs[i] for i in rest], journal=journal
                ),
                strict=False,
            ):
                outcomes[i] = outcome
        if cache is not None:
            for i, outcome in enumerate(outcomes):
                if i not in cached and outcome is not None:
                    cache.put(specs[i], outcome)
        return outcomes  # type: ignore[return-value]

    def _tally_batch(self, counts: Dict[str, int]) -> None:
        if self._batch_stats is None:
            self._batch_stats = {}
        for name, value in counts.items():
            self._batch_stats[name] = self._batch_stats.get(name, 0) + value

    def _run_batch_groups(
        self,
        specs: List[TrialSpec],
        outcomes: List[Optional[TrialOutcome]],
        journal: Optional[TrialJournal],
    ) -> None:
        """Fill ``outcomes`` slots via batched lockstep execution where
        it applies; anything it cannot cover (ineligible specs, groups
        without enough distinct reference schedules, a failed group)
        stays None for the fork/cold layers.  Planning bypasses, group
        failures, batched spec counts and lane ejections are tallied
        into :attr:`_batch_stats`."""
        from repro.batch.plan import plan_batch_groups_report

        pending = [i for i in range(len(specs)) if outcomes[i] is None]
        groups, _, bypassed = plan_batch_groups_report(
            [specs[i] for i in pending]
        )
        self._tally_batch(
            {f"bypass.{reason}": n for reason, n in bypassed.items()}
        )
        group_indices = [[pending[j] for j in group] for group in groups]
        if not group_indices:
            return
        try:
            results = self.map(
                _run_batch_group_outcomes,
                [[specs[i] for i in group] for group in group_indices],
            )
        except KeyboardInterrupt:
            raise
        except Exception:
            # Pool-level failure: the fork/cold layers below re-run
            # everything with their own fault tolerance.
            results = [(None, 0)] * len(group_indices)
            reset = getattr(self, "_reset_pool", None)
            if reset is not None:
                reset()
        tally: Dict[str, int] = {}
        for group, (group_outcomes, ejected) in zip(group_indices, results, strict=False):
            if group_outcomes is None:
                # Group failed wholesale; falls through to fork/cold.
                tally["failed"] = tally.get("failed", 0) + len(group)
                continue
            tally["batched"] = tally.get("batched", 0) + len(group)
            tally["ejected"] = tally.get("ejected", 0) + ejected
            for i, outcome in zip(group, group_outcomes, strict=False):
                outcomes[i] = outcome
                if journal is not None and journal.should_record(outcome):
                    journal.record(outcome)
        self._tally_batch(tally)

    def _run_fork_groups(
        self,
        specs: List[TrialSpec],
        outcomes: List[Optional[TrialOutcome]],
        journal: Optional[TrialJournal],
    ) -> None:
        """Fill ``outcomes`` slots via fork-group execution where it
        applies; anything it cannot (or fails to) cover stays None for
        the cold path."""
        from repro.snapshot.fork import plan_fork_groups

        pending = [i for i in range(len(specs)) if outcomes[i] is None]
        groups, _ = plan_fork_groups([specs[i] for i in pending])
        group_indices = [[pending[j] for j in group] for group in groups]
        if not group_indices:
            return
        try:
            results = self.map(
                _run_fork_group_outcomes,
                [[specs[i] for i in group] for group in group_indices],
            )
        except KeyboardInterrupt:
            raise
        except Exception:
            # Pool-level failure (e.g. a lost worker): the cold path
            # below re-runs everything with its own fault tolerance.
            results = [None] * len(group_indices)
            reset = getattr(self, "_reset_pool", None)
            if reset is not None:
                reset()
        for group, group_outcomes in zip(group_indices, results, strict=False):
            if group_outcomes is None:
                continue  # probe failed; group falls back to cold
            for i, outcome in zip(group, group_outcomes, strict=False):
                outcomes[i] = outcome
                if journal is not None and journal.should_record(outcome):
                    journal.record(outcome)

    def run(
        self,
        specs: Sequence[TrialSpec],
        *,
        journal: Optional[TrialJournal] = None,
        metrics_path: Optional[str] = None,
    ) -> SweepResult:
        """Execute ``specs`` and return a :class:`SweepResult`.

        ``metrics_path`` dumps the sweep's metrics as JSONL (one line
        per succeeded trial plus an aggregate line) alongside whatever
        journal is in use — see
        :func:`repro.runner.metrics_io.write_sweep_metrics`.  Useful
        only when specs set ``collect_metrics=True``.
        """
        start = time.perf_counter()
        outcomes = self.run_outcomes(specs, journal=journal)
        cache = self.trial_cache
        result = SweepResult(
            summaries=[o.summary for o in outcomes if o.ok],
            elapsed=time.perf_counter() - start,
            workers=self.workers,
            failures=[o for o in outcomes if not o.ok],
            outcomes=outcomes,
            cache_stats=cache.stats() if cache is not None else None,
            batch_stats=(
                dict(self._batch_stats)
                if self._batch_stats is not None
                else None
            ),
        )
        if metrics_path is not None:
            from repro.runner.metrics_io import write_sweep_metrics

            write_sweep_metrics(metrics_path, result)
        return result

    def close(self) -> None:
        """Release pool resources (no-op for the serial runner)."""

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _merge_journal(
    specs: Sequence[TrialSpec],
    outcomes: List[Optional[TrialOutcome]],
    journal: Optional[TrialJournal],
) -> None:
    """Fill ``outcomes`` slots from journaled records (checkpoint skip)."""
    if journal is None:
        return
    records = journal.load()
    if not records:
        return
    for i, spec in enumerate(specs):
        if outcomes[i] is None:
            hit = records.get(spec.digest())
            if hit is not None:
                outcomes[i] = hit


def _run_serial_outcomes(
    specs: Sequence[TrialSpec],
    journal: Optional[TrialJournal],
    max_retries: int,
) -> List[TrialOutcome]:
    """Shared in-process execution loop: isolation + retry + journal."""
    outcomes: List[Optional[TrialOutcome]] = [None] * len(specs)
    _merge_journal(specs, outcomes, journal)
    for i, spec in enumerate(specs):
        if outcomes[i] is not None:
            continue
        attempt = 0
        while True:
            outcome = run_trial_outcome(spec, attempt=attempt)
            if outcome.status not in RETRYABLE_STATUSES or attempt >= max_retries:
                break
            attempt += 1
            time.sleep(backoff_delay(attempt))
        if journal is not None and journal.should_record(outcome):
            journal.record(outcome)
        outcomes[i] = outcome
    return outcomes  # type: ignore[return-value]


class SerialSweepRunner(SweepRunner):
    """In-process reference runner (identical interface, zero fan-out).

    Fault isolation, retry and checkpoint–resume behave exactly as in
    the parallel runner, with two inherent differences: an injected
    worker kill surfaces as a retryable ``worker-lost`` outcome instead
    of killing the process, and wall-clock deadlines are not enforced
    (there is no worker to replace)."""

    workers = 1

    def __init__(
        self,
        *,
        max_retries: int = 2,
        fork: bool = False,
        batch: bool = False,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.max_retries = max_retries
        self.fork = fork
        self.batch = batch
        self.cache_dir = cache_dir

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]

    def _execute_outcomes(
        self,
        specs: Sequence[TrialSpec],
        *,
        journal: Optional[TrialJournal] = None,
    ) -> List[TrialOutcome]:
        return _run_serial_outcomes(list(specs), journal, self.max_retries)


class ParallelSweepRunner(SweepRunner):
    """Chunked fan-out over a ``ProcessPoolExecutor``.

    ``chunksize`` defaults to spreading the items roughly four chunks
    per worker — large enough to amortize pickling, small enough to
    load-balance uneven trials.  Results always come back in item order.

    ``trial_timeout`` (seconds) arms a wall-clock deadline per submitted
    chunk (``timeout * chunk_len`` plus grace).  A chunk that blows its
    deadline gets its workers replaced — stuck pool workers cannot be
    cancelled individually, so the pool is torn down and rebuilt — and
    its unfinished specs resubmitted, at most ``max_retries`` times
    each; in-flight chunks that die as collateral are resubmitted
    without burning one of their retries.  Worker loss (a crashed or
    OOM-killed worker breaks the whole pool) takes the same
    replace-and-resubmit path.  With a journal attached, workers record
    each finished trial immediately, so the retry round skips everything
    the lost chunk already completed.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        chunksize: Optional[int] = None,
        max_retries: int = 2,
        trial_timeout: Optional[float] = None,
        fork: bool = False,
        batch: bool = False,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.workers = max(1, workers if workers is not None else default_workers())
        self.max_retries = max_retries
        self.trial_timeout = trial_timeout
        self.fork = fork
        self.batch = batch
        self.cache_dir = cache_dir
        self._chunksize = chunksize
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _reset_pool(self) -> None:
        """Tear down a broken/stuck pool, killing its workers."""
        if self._pool is None:
            return
        # Stuck workers never drain the call queue, so shutdown() alone
        # would block forever; terminate them first.
        for proc in list(getattr(self._pool, "_processes", {}).values()):
            if proc.is_alive():
                proc.terminate()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def _chunk(self, n_items: int) -> int:
        if self._chunksize is not None:
            return max(1, self._chunksize)
        return max(1, n_items // (self.workers * 4) or 1)

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if not items:
            return []
        if self.workers == 1:
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        return list(pool.map(fn, items, chunksize=self._chunk(len(items))))

    # ------------------------------------------------------------------
    # fault-tolerant sweep execution
    # ------------------------------------------------------------------
    def _execute_outcomes(
        self,
        specs: Sequence[TrialSpec],
        *,
        journal: Optional[TrialJournal] = None,
    ) -> List[TrialOutcome]:
        specs = list(specs)
        if self.workers == 1:
            return _run_serial_outcomes(specs, journal, self.max_retries)
        outcomes: List[Optional[TrialOutcome]] = [None] * len(specs)
        attempts = [0] * len(specs)
        # Status to report for a spec whose retries run out.
        exhausted_status = [TrialStatus.WORKER_LOST] * len(specs)
        _merge_journal(specs, outcomes, journal)
        round_no = 0
        while True:
            todo = []
            for i in range(len(specs)):
                if outcomes[i] is not None:
                    continue
                if attempts[i] > self.max_retries:
                    status = exhausted_status[i]
                    outcomes[i] = TrialOutcome(
                        digest=specs[i].digest(),
                        victim=specs[i].victim,
                        scheme=specs[i].scheme,
                        secret=specs[i].secret,
                        seed=specs[i].seed,
                        status=status,
                        attempts=attempts[i],
                        error_type="RetriesExhausted",
                        error_message=(
                            f"gave up after {attempts[i]} attempt(s) "
                            f"({status.value})"
                        ),
                    )
                    continue
                todo.append(i)
            if not todo:
                break
            if round_no > 0:
                # Jittered capped exponential backoff between retry
                # rounds: give a transiently sick host (OOM pressure,
                # CPU squeeze) room to recover, without resubmitting
                # every reclaimed chunk in lockstep.
                time.sleep(backoff_delay(round_no))
            completed, lost, collateral = self._run_round(
                specs, todo, attempts, journal
            )
            for i, outcome in completed.items():
                outcomes[i] = outcome
            for i, status in lost:
                attempts[i] += 1
                exhausted_status[i] = status
            # Collateral of another chunk's fault is resubmitted without
            # burning one of its own retries.
            if lost or collateral:
                round_no += 1
                # Whatever the lost chunks had already journaled can be
                # merged instead of re-run.
                _merge_journal(specs, outcomes, journal)
        return outcomes  # type: ignore[return-value]

    def _run_round(
        self,
        specs: List[TrialSpec],
        indices: List[int],
        attempts: List[int],
        journal: Optional[TrialJournal],
    ) -> Tuple[
        Dict[int, TrialOutcome],
        List[Tuple[int, TrialStatus]],
        List[int],
    ]:
        """Submit one round of chunks and harvest until done or the pool
        fails.  Returns ``(completed, lost, collateral)``: ``lost`` pairs
        a spec index with the failure status that charges one of its
        retries; ``collateral`` indices resubmit free of charge."""
        pool = self._ensure_pool()
        plan = faults.current_plan()
        plan_json = plan.to_json() if plan is not None else None
        journal_path = journal.path if journal is not None else None
        csize = self._chunk(len(indices))
        futures: Dict = {}
        for start in range(0, len(indices), csize):
            chunk = indices[start : start + csize]
            tasks = [(specs[i], attempts[i]) for i in chunk]
            # The deadline clock starts at submit, so it must absorb
            # worker spin-up and time spent queued behind other chunks
            # — set trial_timeout with that headroom in mind.
            deadline = (
                time.monotonic()
                + self.trial_timeout * len(chunk)
                + _SPINUP_GRACE
                if self.trial_timeout is not None
                else None
            )
            fut = pool.submit(
                _run_chunk_outcomes,
                tasks,
                journal_path,
                plan_json,
                journal.fsync if journal is not None else False,
            )
            futures[fut] = (chunk, deadline)

        completed: Dict[int, TrialOutcome] = {}
        lost: List[Tuple[int, TrialStatus]] = []
        collateral: List[int] = []
        while futures:
            done, _ = wait(
                list(futures), timeout=_POLL_INTERVAL, return_when=FIRST_COMPLETED
            )
            broken = False
            for fut in done:
                chunk, _ = futures.pop(fut)
                try:
                    for i, outcome in zip(chunk, fut.result(), strict=False):
                        completed[i] = outcome
                except BrokenExecutor:
                    # A worker died (crash, OOM-kill, injected kill):
                    # the executor is broken and every in-flight chunk
                    # with it.  We cannot attribute the death to one
                    # spec, so the whole chunk retries.
                    lost.extend((i, TrialStatus.WORKER_LOST) for i in chunk)
                    broken = True
                except Exception as exc:
                    # The chunk body itself failed (e.g. an unpicklable
                    # result): isolate as structured errors, no retry.
                    for i in chunk:
                        completed[i] = _failure_outcome(
                            specs[i], TrialStatus.ERROR, exc, attempts[i]
                        )
            if broken:
                for chunk, _ in futures.values():
                    collateral.extend(chunk)
                futures.clear()
                self._reset_pool()
                break
            if futures and self.trial_timeout is not None:
                now = time.monotonic()
                expired = [
                    fut
                    for fut, (_, deadline) in futures.items()
                    if deadline is not None and now >= deadline
                ]
                if expired:
                    # Stuck workers cannot be cancelled individually;
                    # replace the pool.  Expired chunks burn a retry,
                    # the innocent in-flight rest is pure collateral.
                    for fut in expired:
                        chunk, _ = futures.pop(fut)
                        lost.extend((i, TrialStatus.TIMEOUT) for i in chunk)
                    for chunk, _ in futures.values():
                        collateral.extend(chunk)
                    futures.clear()
                    self._reset_pool()
                    break
        return completed, lost, collateral

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def default_workers() -> int:
    """Worker count from ``REPRO_SWEEP_WORKERS`` or the CPU count.

    A malformed override raises immediately with a clear message —
    silently falling back to serial would quietly forfeit the machine.
    """
    env = os.environ.get(WORKERS_ENV)
    if env is not None and env.strip():
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV}={env!r} is not an integer; unset it or "
                f"set a worker count like {WORKERS_ENV}=4"
            ) from None
        if value < 1:
            raise ValueError(
                f"{WORKERS_ENV}={env!r} must be >= 1 (1 selects the "
                f"serial runner)"
            )
        return value
    return os.cpu_count() or 1


def make_runner(
    workers: Optional[int] = None,
    *,
    max_retries: int = 2,
    trial_timeout: Optional[float] = None,
    fork: bool = False,
    batch: bool = False,
    cache_dir: Optional[str] = None,
) -> SweepRunner:
    """The sensible default: parallel when it can help, serial when a
    pool would only add process overhead (single CPU, or workers=1).
    ``max_retries`` / ``trial_timeout`` configure the fault-tolerant
    ``run`` path (see :class:`ParallelSweepRunner`); ``fork``, ``batch``
    and ``cache_dir`` enable snapshot/fork execution, batched lockstep
    execution (needs numpy) and the content-addressed trial cache (see
    :meth:`SweepRunner.run_outcomes`)."""
    resolved = workers if workers is not None else default_workers()
    if resolved <= 1:
        return SerialSweepRunner(
            max_retries=max_retries, fork=fork, batch=batch,
            cache_dir=cache_dir,
        )
    return ParallelSweepRunner(
        resolved,
        max_retries=max_retries,
        trial_timeout=trial_timeout,
        fork=fork,
        batch=batch,
        cache_dir=cache_dir,
    )
