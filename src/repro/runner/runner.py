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
  after a jittered capped exponential backoff; the spec's CRC32 seed
  travels with it, so a retried trial is bit-identical to a
  first-attempt run.  One :class:`RetryLedger` keeps the count, and
  it charges only the spec whose own attempt failed; a spec out of
  retries becomes one ``RetriesExhausted`` failure.  The service
  supervisor keeps the same ledger.
* **Checkpoint–resume** — pass a :class:`TrialJournal` and every
  finished trial is recorded as it completes (best-effort: a failed
  append costs a re-run on resume, never the outcome); a re-run over
  the same specs skips journaled digests and merges their outcomes back
  in spec order, making the resumed :class:`SweepResult` identical to
  an uninterrupted one.

:func:`run_chunk` is the one loop over (spec, attempt) pairs: the
serial runner calls it in-process, pool workers and service workers
call it on their chunk.  The parallel runner submits *chunks* so small
trials amortize IPC overhead, constructs every Machine/Core
worker-side, and ships only picklable outcome objects back.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, TypeVar

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

#: Grace added to every chunk deadline for pool spin-up.
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


class RetryLedger:
    """The retry bookkeeping of the serial runner, the pool and the
    service: per key (a spec's index in a sweep, or its digest in a
    service job) the attempts charged so far, the jittered time before
    which it must not run again, and the ``RetriesExhausted`` failure of
    a key whose retries ran out.

    An executor charges a key only when that spec's own attempt failed:
    it died or timed out alone, or it was the spec a dead worker was
    running.  Anything else a fault interrupted runs again uncharged.
    """

    def __init__(self, max_retries: int) -> None:
        self.max_retries = max_retries
        self.attempts: Dict[Hashable, int] = {}
        self.not_before: Dict[Hashable, float] = {}
        self.exhausted: Dict[Hashable, TrialOutcome] = {}

    def attempt(self, key: Hashable) -> int:
        """Attempts charged to ``key``: the 0-indexed attempt number its
        next run carries (fault injection keys on it)."""
        return self.attempts.get(key, 0)

    def ready(self, key: Hashable, now: float) -> bool:
        """May ``key`` run at ``now``: not exhausted, backoff elapsed."""
        return key not in self.exhausted and self.not_before.get(key, 0.0) <= now

    def charge(
        self, key: Hashable, spec: TrialSpec, status: TrialStatus, now: float
    ) -> Optional[TrialOutcome]:
        """Charge one failed attempt (``status`` is ``worker-lost`` or
        ``timeout``).  Returns None and holds the key back for
        :func:`backoff_delay` while retries remain, else the structured
        ``RetriesExhausted`` failure, with ``attempts == max_retries + 1``."""
        attempts = self.attempts[key] = self.attempt(key) + 1
        if attempts <= self.max_retries:
            # Jittered: keys charged together do not all come back at once.
            self.not_before[key] = now + backoff_delay(attempts)
            return None
        self.exhausted[key] = TrialOutcome(
            digest=spec.digest(),
            victim=spec.victim,
            scheme=spec.scheme,
            secret=spec.secret,
            seed=spec.seed,
            status=status,
            attempts=attempts,
            error_type="RetriesExhausted",
            error_message=f"gave up after {attempts} attempt(s) ({status.value})",
        )
        return self.exhausted[key]


#: Sentinel distinguishing "no plan argument" from "explicitly no plan".
_PLAN_UNSET = object()


def begin_trial_spec(spec: TrialSpec, *, tracer=None, fault_injector=None):
    """Prepare one trial from its picklable description, exactly as the
    cold path runs it; returns the :class:`~repro.core.harness.TrialSetup`
    (its ``spec`` is the victim built from the registry).

    Builds the victim from the registry and the Machine/Core inside the
    calling process, so it works identically in the parent, in pool
    workers, for a batch leader and when a snapshot handle is replayed.
    ``tracer`` overrides the default: none, or a stage-filtered one when
    the spec collects metrics.
    """
    # Imported here, not at module top: pool workers (re-)import this
    # module before running anything, and the light import keeps worker
    # spin-up cheap when the pool is larger than the task list.
    from repro.core.harness import begin_victim_trial
    from repro.core.victims import victim_by_name

    victim = victim_by_name(spec.victim, **dict(spec.victim_kwargs))
    if tracer is None and spec.collect_metrics:
        # Stage-filtered tracer: enough for the per-stage latency
        # histograms, compact enough to carry through long sweeps.
        # Tracing is observer-invariant (the differential invisibility
        # test enforces it), so metrics collection never perturbs the
        # trial's measurements.
        from repro.trace import Tracer
        from repro.trace.events import STAGE_KINDS

        tracer = Tracer(kinds=STAGE_KINDS)
    return begin_victim_trial(
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


def run_trial_spec(spec: TrialSpec, *, fault_injector=None) -> TrialSummary:
    """Execute one trial from its picklable description (strict path:
    simulator faults propagate).

    Module-level (picklable by reference) and self-contained, like
    :func:`begin_trial_spec`.
    """
    from repro.core.harness import finish_victim_trial

    setup = begin_trial_spec(spec, fault_injector=fault_injector)
    return summarize_trial(spec, setup.spec, finish_victim_trial(setup))


def run_spec_probe_phase(spec: TrialSpec, machine) -> Optional[Tuple[int, ...]]:
    """Run the spec's attacker probe phase on a finished trial's
    machine; None when the spec has no probe accesses."""
    if not spec.probe_accesses:
        return None
    from repro.core.harness import run_probe_phase

    return run_probe_phase(machine.hierarchy, machine.cycle, spec.probe_accesses)


def summarize_trial(
    spec: TrialSpec, victim, result, *, probe_latencies=None
) -> TrialSummary:
    """Build the picklable summary of one finished trial; the cold
    path (which relabel groups use too) and the batch path both end
    here.

    Runs the spec's attacker probe phase first (unless the caller
    already ran it and passes ``probe_latencies``), so metrics and
    snapshot handles see the post-probe state on every execution path.
    Metrics read the stage events of the trial's tracer.
    """
    if result.core is None:
        # Explicit, not an assert: asserts vanish under ``python -O``
        # and this invariant guards the summary below.
        raise RuntimeError(
            f"run_victim_trial returned no core handle for {spec.label()}"
        )
    if probe_latencies is None:
        probe_latencies = run_spec_probe_phase(spec, result.machine)
    metrics = None
    if spec.collect_metrics:
        from repro.system.stats import machine_metrics
        from repro.trace.events import STAGE_KINDS

        stage = frozenset(STAGE_KINDS)
        events = [e for e in result.core.tracer.events if e.kind in stage]
        metrics = machine_metrics(result.machine, events=events).to_json()
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


def run_chunk(
    tasks: Sequence[Tuple[TrialSpec, int]],
    *,
    journal: Optional[TrialJournal] = None,
    cache=None,
    plan=_PLAN_UNSET,
    on_outcome: Optional[Callable[[TrialOutcome], None]] = None,
) -> List[TrialOutcome]:
    """Run each ``(spec, attempt)`` in order with fault isolation: the
    chunk body of the serial runner, of pool workers and of service
    workers.

    Per spec: a :class:`~repro.runner.cache.TrialCache` probe when
    ``cache`` is given (the service's shared cache; a hit is not
    re-published), else :func:`run_trial_outcome` under ``plan`` and
    the lean-transport check; then a best-effort journal append
    (:meth:`TrialJournal.try_record`), so a dead worker's finished
    trials survive it and a failed append costs only a re-run on
    resume; then ``on_outcome`` (the service's stream delta and lease
    heartbeat); then the cache publish of a fresh outcome.
    """
    outcomes = []
    for spec, attempt in tasks:
        outcome = cache.get(spec) if cache is not None else None
        fresh = outcome is None
        if fresh:
            # Looked up as a module global on every call: perfbench's
            # cold-trial counter and tests wrap it.
            outcome = run_trial_outcome(spec, attempt=attempt, plan=plan)
            _check_lean_transport(outcome)
        if journal is not None:
            journal.try_record(outcome)
        if on_outcome is not None:
            on_outcome(outcome)
        if cache is not None and fresh:
            cache.put(spec, outcome)  # best-effort by construction
        outcomes.append(outcome)
    return outcomes


def _checked(outcomes: Optional[List[TrialOutcome]]):
    """A group body's outcomes, after the lean-transport guard."""
    if outcomes is not None:
        for outcome in outcomes:
            _check_lean_transport(outcome)
    return outcomes


def _run_batch_group_outcomes(specs: List[TrialSpec]):
    """Pool-dispatchable batch-group body (module-level, picklable by
    reference).  Returns ``(outcomes, ejected_lane_count)``, outcomes
    aligned with ``specs``, or ``(None, 0)`` when the group must fall
    through to the relabel/cold layers."""
    from repro.batch.engine import run_batch_group_detailed

    try:
        report = run_batch_group_detailed(specs)
    except KeyboardInterrupt:
        raise
    except Exception:
        return None, 0
    return _checked(report.outcomes), report.ejected


def _run_fork_group_outcomes(specs: List[TrialSpec]):
    """Pool-dispatchable relabel-group body, shaped like the batch body:
    ``(outcomes, 0)``, or ``(None, 0)`` when the group must fall through
    to the cold path."""
    from repro.snapshot.fork import run_fork_group

    return _checked(run_fork_group(specs)), 0


def _plan_fork_groups(specs: Sequence[TrialSpec]) -> List[List[int]]:
    from repro.snapshot.fork import plan_fork_groups

    return plan_fork_groups(specs)[0]


class SweepRunner:
    """Interface shared by the serial and parallel runners."""

    #: Worker processes this runner fans out to (1 = in-process).
    workers: int = 1
    #: Re-runs allowed per trial on transient (timeout / worker-lost)
    #: failures; the first execution is not a retry.
    max_retries: int = 2
    #: Relabel groups (:mod:`repro.snapshot.fork`): trials differing
    #: only in an inert seed run once, and every member gets that
    #: summary relabeled with its own seed.
    fork: bool = False
    #: Batched lockstep execution (:mod:`repro.batch`): trials differing
    #: only in secret/seed/reference schedule step as cache-hierarchy
    #: lanes of one leader run per secret.
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
        """Cold execution of ``specs``: rounds of :meth:`_run_round`
        until every spec has an outcome.  A ``worker-lost`` or
        ``timeout`` outcome charges its spec in a :class:`RetryLedger`,
        which holds it back for a jittered backoff and turns it into a
        ``RetriesExhausted`` failure once ``max_retries`` retries are
        spent."""
        specs = list(specs)
        outcomes: List[Optional[TrialOutcome]] = [None] * len(specs)
        ledger = RetryLedger(self.max_retries)
        while True:
            todo = [i for i, outcome in enumerate(outcomes) if outcome is None]
            if not todo:
                return outcomes  # type: ignore[return-value]
            now = time.monotonic()
            ready = [i for i in todo if ledger.ready(i, now)]
            if not ready:
                time.sleep(min(ledger.not_before[i] for i in todo) - now)
                continue
            for i, outcome in self._run_round(specs, ready, ledger, journal).items():
                if outcome.status in RETRYABLE_STATUSES:
                    outcome = ledger.charge(i, specs[i], outcome.status, time.monotonic())
                outcomes[i] = outcome

    def _run_round(
        self,
        specs: List[TrialSpec],
        indices: List[int],
        ledger: RetryLedger,
        journal: Optional[TrialJournal],
    ) -> Dict[int, TrialOutcome]:
        """Run ``specs[i]`` for each of ``indices`` once, at its ledger
        attempt; returns their outcomes by index.  This one runs them
        in this process, where an injected worker kill is a
        ``worker-lost`` outcome rather than a dead process."""
        tasks = [(specs[i], ledger.attempt(i)) for i in indices]
        return dict(zip(indices, run_chunk(tasks, journal=journal), strict=True))

    def run_outcomes(
        self,
        specs: Sequence[TrialSpec],
        *,
        journal: Optional[TrialJournal] = None,
    ) -> List[TrialOutcome]:
        """Execute ``specs``, layering the memoization fast paths over
        the runner's cold execution:

        1. **cache pre-check** — specs whose content digest (plus the
           build fingerprint) is already in ``cache_dir`` return their
           memoized outcome without simulating;
        2. **journal merge** — checkpointed outcomes are reused;
        3. **batch groups** — with ``batch=True``, remaining specs that
           differ only in secret/seed/reference schedule step as
           lockstep cache-hierarchy lanes of one leader run per secret
           (:mod:`repro.batch`);
        4. **relabel groups** — with ``fork=True``, remaining specs that
           differ only in an inert seed run once and are relabeled
           (:mod:`repro.snapshot.fork`);
        5. everything still unresolved runs cold, exactly as before;
        6. fresh ``ok`` outcomes are written back to the cache.

        Both group layers are off while a fault plan is active: injected
        faults must land on real per-spec machines.
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
        if self.batch and self._batch_stats is None:
            self._batch_stats = {}
        if faults.current_plan() is None:
            if self.batch:
                self._tally_batch(
                    self._fill_groups(
                        specs, outcomes, journal,
                        self._plan_batch_groups, _run_batch_group_outcomes,
                    )
                )
            if self.fork:
                self._fill_groups(
                    specs, outcomes, journal,
                    _plan_fork_groups, _run_fork_group_outcomes,
                )
        elif self.batch:
            # Account for the fault plan like any other batch bypass.
            from repro.batch.plan import BYPASS_FAULTS

            pending = sum(1 for o in outcomes if o is None)
            if pending:
                self._tally_batch({f"bypass.{BYPASS_FAULTS}": pending})
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

    def _plan_batch_groups(self, specs: Sequence[TrialSpec]) -> List[List[int]]:
        """Batch planner that tallies its per-reason bypasses."""
        from repro.batch.plan import plan_batch_groups_report

        groups, _, bypassed = plan_batch_groups_report(specs)
        self._tally_batch(
            {f"bypass.{reason}": n for reason, n in bypassed.items()}
        )
        return groups

    def _fill_groups(
        self,
        specs: List[TrialSpec],
        outcomes: List[Optional[TrialOutcome]],
        journal: Optional[TrialJournal],
        plan: Callable[[Sequence[TrialSpec]], List[List[int]]],
        body: Callable,
    ) -> Dict[str, int]:
        """Fill or fall through: ``plan`` groups the still-pending specs,
        :meth:`map` runs every group through ``body`` (so groups fan out
        over the pool), and each group that comes back fills its slots
        and is journaled.  A group that fails — ``body`` returns no
        outcomes, or the pool itself fails — leaves its slots None for
        the next layer and finally the cold path, whose fault isolation
        reports it.  Returns the spec counts (``batched``, ``ejected``
        lanes, ``failed``) in :attr:`_batch_stats` form."""
        pending = [i for i in range(len(specs)) if outcomes[i] is None]
        groups = [
            [pending[j] for j in group]
            for group in plan([specs[i] for i in pending])
        ]
        counts: Dict[str, int] = {}
        if not groups:
            return counts
        try:
            results = self.map(body, [[specs[i] for i in g] for g in groups])
        except KeyboardInterrupt:
            raise
        except Exception:
            # Pool-level failure (e.g. a lost worker): every group falls
            # through, and the cold path re-runs it with its own retries.
            results = [(None, 0)] * len(groups)
            reset = getattr(self, "_reset_pool", None)
            if reset is not None:
                reset()
        for group, (group_outcomes, ejected) in zip(groups, results, strict=True):
            if group_outcomes is None:
                counts["failed"] = counts.get("failed", 0) + len(group)
                continue
            counts["batched"] = counts.get("batched", 0) + len(group)
            counts["ejected"] = counts.get("ejected", 0) + ejected
            for i, outcome in zip(group, group_outcomes, strict=True):
                outcomes[i] = outcome
                if journal is not None:
                    journal.try_record(outcome)
        return counts

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


class SerialSweepRunner(SweepRunner):
    """In-process reference runner (identical interface, zero fan-out).

    Fault isolation, retry and checkpoint–resume behave exactly as in
    the parallel runner, with two inherent differences: an injected
    worker kill surfaces as a ``worker-lost`` outcome, charged to its
    spec, instead of killing the process, and wall-clock deadlines are
    not enforced (there is no worker to replace)."""

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


class ParallelSweepRunner(SweepRunner):
    """Chunked fan-out over a ``ProcessPoolExecutor``.

    ``chunksize`` defaults to spreading the items roughly four chunks
    per worker — large enough to amortize pickling, small enough to
    load-balance uneven trials.  Results always come back in item order.

    ``trial_timeout`` (seconds) arms a wall-clock deadline per submitted
    chunk (``timeout * chunk_len`` plus grace).  A chunk that blows its
    deadline gets its workers replaced — stuck pool workers cannot be
    cancelled individually, so the pool is torn down and rebuilt.
    Worker loss (a crashed or OOM-killed worker breaks the whole pool)
    takes the same replace-and-resubmit path.  At most ``workers``
    chunks are in flight, so a fault interrupts only running chunks: a
    single unfinished spec is charged one of its ``max_retries``;
    several are charged nothing and re-run one at a time, alone in the
    pool, where the spec at fault is charged by itself.  With a
    journal attached, workers record each finished trial immediately,
    so nothing a lost chunk already completed runs again.
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
    def _run_round(
        self,
        specs: List[TrialSpec],
        indices: List[int],
        ledger: RetryLedger,
        journal: Optional[TrialJournal],
    ) -> Dict[int, TrialOutcome]:
        """One round over the pool.  Fresh specs run in chunks, at most
        ``workers`` in flight.  Retried specs, and the specs a fault
        left unfinished without pinning it on one of them, then run one
        at a time, alone in the pool, so a fault they cause is their
        own."""
        if self.workers == 1:
            return super()._run_round(specs, indices, ledger, journal)
        results: Dict[int, TrialOutcome] = {}
        fresh = [i for i in indices if not ledger.attempt(i)]
        size = self._chunk(len(fresh))
        chunks = [fresh[start : start + size] for start in range(0, len(fresh), size)]
        alone = [i for i in indices if ledger.attempt(i)]
        alone += self._drain(specs, chunks, self.workers, ledger, journal, results)
        for i in alone:
            self._drain(specs, [[i]], 1, ledger, journal, results)
        return results

    def _drain(
        self,
        specs: List[TrialSpec],
        chunks: List[List[int]],
        limit: int,
        ledger: RetryLedger,
        journal: Optional[TrialJournal],
        results: Dict[int, TrialOutcome],
    ) -> List[int]:
        """Run ``chunks`` of spec indices through :func:`run_chunk` in
        the pool, at most ``limit`` in flight, so every chunk unfinished
        at a fault was running; outcomes go into ``results``.

        A dead worker breaks the pool and every chunk in flight with it.
        A chunk past its deadline (``trial_timeout`` per spec plus grace,
        from submit) has stuck workers, which cannot be cancelled one by
        one; the innocent chunks in flight go back on the queue.  Either
        way the pool is rebuilt, and the interrupted specs the journal
        does not hold are weighed: a single one is charged (its outcome
        is ``worker-lost`` or ``timeout``); several are returned,
        uncharged, for the caller to re-run alone."""
        plan = faults.current_plan()
        # Workers append through a fresh journal: no index to pickle.
        shipped = (
            TrialJournal(journal.path, fsync=journal.fsync)
            if journal is not None
            else None
        )
        chunks = list(chunks)
        running: Dict = {}  # future -> (chunk, deadline)
        suspects: List[int] = []
        while chunks or running:
            while chunks and len(running) < limit:
                chunk = chunks.pop(0)
                tasks = [(specs[i], ledger.attempt(i)) for i in chunk]
                try:
                    future = self._ensure_pool().submit(
                        run_chunk, tasks, journal=shipped, plan=plan
                    )
                except BrokenExecutor:
                    # A worker died between chunks: rebuild the pool once
                    # nothing is in flight.
                    chunks.insert(0, chunk)
                    if not running:
                        self._reset_pool()
                    break
                deadline = (
                    time.monotonic() + self.trial_timeout * len(chunk) + _SPINUP_GRACE
                    if self.trial_timeout is not None
                    else None
                )
                running[future] = (chunk, deadline)
            if not running:
                continue
            done, _ = wait(
                list(running), timeout=_POLL_INTERVAL, return_when=FIRST_COMPLETED
            )
            broken = []
            for future in done:
                chunk, _ = running.pop(future)
                try:
                    results.update(zip(chunk, future.result(), strict=True))
                except BrokenExecutor:
                    broken.append(chunk)
                except Exception as exc:
                    # The chunk body itself failed (e.g. an unpicklable
                    # result): isolate as structured errors, no retry.
                    for i in chunk:
                        results[i] = _failure_outcome(
                            specs[i], TrialStatus.ERROR, exc, ledger.attempt(i)
                        )
            now = time.monotonic()
            expired = [
                future
                for future, (_, deadline) in running.items()
                if deadline is not None and now >= deadline
            ]
            if broken:
                # Any chunk in flight may hold the spec that killed its
                # worker.
                status = TrialStatus.WORKER_LOST
                hit = broken + [chunk for chunk, _ in running.values()]
            elif expired:
                status = TrialStatus.TIMEOUT
                hit = [running.pop(future)[0] for future in expired]
                chunks[:0] = [chunk for chunk, _ in running.values()]
            else:
                continue
            running.clear()
            self._reset_pool()
            records = journal.load() if journal is not None else {}
            left = []
            for i in (i for chunk in hit for i in chunk):
                record = records.get(specs[i].digest())
                if record is not None:
                    results[i] = record
                else:
                    left.append(i)
            if len(left) == 1:
                results[left[0]] = _failure_outcome(
                    specs[left[0]], status, None, ledger.attempt(left[0])
                )
            else:
                suspects += left
        return suspects

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
    and ``cache_dir`` enable relabel groups (inert-seed variants run
    once), batched lockstep execution and the
    content-addressed trial cache (see :meth:`SweepRunner.run_outcomes`)."""
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
