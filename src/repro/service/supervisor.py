"""The supervised sweep daemon: leases, reclaim, bit-identical merge.

:class:`SweepSupervisor` turns the runner stack into a crash-
recoverable service.  It claims jobs from the durable queue, splits
them into chunks, grants each chunk a lease, and spawns one OS process
per chunk (:func:`~repro.service.worker.chunk_worker_main`).  Workers
journal every deterministic outcome as it completes; the supervisor
polls the journal and the lease table, and recovers from every process
fault the same way:

* **worker SIGKILL / crash** — the process dies without releasing its
  lease; the supervisor reclaims it and resubmits the chunk's
  *unjournaled* digests.  A worker runs and journals its specs in
  order, so only the first unjournaled one was running: the job's
  :class:`~repro.runner.runner.RetryLedger` charges it one attempt and
  holds it back for a jittered backoff, and the rest go back
  uncharged.
* **hung trial** — the worker stops heartbeating (heartbeats happen
  between trials); the lease expires, the worker is killed, same path.
* **supervisor crash** — a fresh supervisor on the same directory
  replays the queue, per-job journals, and lease journal.  Leases it
  does not own (orphan workers of the dead incarnation, possibly still
  running and journaling) are *adopted*: their job is held until each
  such lease releases or expires, so orphans finish or die before
  their work is resubmitted.  Double execution, if an orphan races a
  resubmission, is harmless: trials are deterministic and the merge is
  digest-keyed, last record wins, bit-identical either way.

When every spec digest of a job is covered (journal plus any
retries-exhausted failures), outcomes are merged **in spec order** —
exactly the runner's semantics — published atomically as
``result.json``, and the job is completed in the queue.  The merged
result is therefore bit-identical to an undisturbed in-process run of
the same specs, which is what the chaos differential asserts.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.runner.journal import TrialJournal
from repro.runner.runner import RetryLedger
from repro.runner.spec import SweepResult, TrialOutcome, TrialSpec, TrialStatus
from repro.service import stream, wal
from repro.service.codec import spec_to_json, sweep_result_to_json
from repro.service.lease import DEFAULT_SKEW_TOLERANCE, DEFAULT_TTL, LeaseTable
from repro.service.queue import DurableJobQueue, JobStatus, JobView
from repro.service.worker import chunk_worker_main

logger = logging.getLogger(__name__)


@dataclass
class _ActiveJob:
    view: JobView
    specs: List[TrialSpec]
    digests: List[str]
    #: the job's trial journal, which its workers append to.
    journal: TrialJournal
    #: attempts charged, backoff and exhausted failures, by digest.
    ledger: RetryLedger
    #: digest -> journaled outcome (incrementally polled).
    seen: Dict[str, TrialOutcome] = field(default_factory=dict)
    #: digests currently assigned to a live chunk of *this* supervisor.
    in_flight: Dict[str, str] = field(default_factory=dict)  # digest -> lease
    started: float = 0.0


@dataclass
class _RunningChunk:
    job_id: str
    lease_id: str
    digests: List[str]
    process: multiprocessing.process.BaseProcess


class SweepSupervisor:
    """Crash-recoverable sweep service over one service directory.

    ``workers`` bounds concurrent chunk processes; ``chunksize`` the
    trials per lease (smaller = finer recovery granularity, more
    process spin-up).  ``max_retries`` charges per *digest*: a spec
    that was the running spec of a dead chunk ``max_retries + 1`` times
    is reported as a structured ``worker-lost`` ``RetriesExhausted``
    failure rather than retried forever.  ``clock`` is injectable for
    tests.
    """

    def __init__(
        self,
        service_dir,
        *,
        workers: int = 2,
        chunksize: int = 4,
        lease_ttl: float = DEFAULT_TTL,
        skew_tolerance: float = DEFAULT_SKEW_TOLERANCE,
        max_retries: int = 3,
        poll_interval: float = 0.02,
        max_active_jobs: int = 4,
        quotas: Optional[Dict[str, int]] = None,
        default_quota: Optional[int] = None,
        cache: bool = True,
        journal_fsync: bool = True,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.service_dir = os.fspath(service_dir)
        os.makedirs(self.service_dir, exist_ok=True)
        self.workers = max(1, workers)
        self.chunksize = max(1, chunksize)
        self.max_retries = max_retries
        self.poll_interval = poll_interval
        self.max_active_jobs = max(1, max_active_jobs)
        self.journal_fsync = journal_fsync
        self.clock = clock
        self.queue = DurableJobQueue(
            self.service_dir, quotas=quotas, default_quota=default_quota
        )
        self.leases = LeaseTable(
            os.path.join(self.service_dir, "leases.jsonl"),
            ttl=lease_ttl,
            skew_tolerance=skew_tolerance,
            clock=clock,
        )
        self.cache_dir: Optional[str] = (
            os.path.join(self.service_dir, "cache") if cache else None
        )
        self._active: Dict[str, _ActiveJob] = {}
        self._running: List[_RunningChunk] = []
        self._lease_seq = 0
        self._mp = multiprocessing.get_context()
        self._adopt_running_jobs()

    # ------------------------------------------------------------------
    # startup recovery
    # ------------------------------------------------------------------
    def _adopt_running_jobs(self) -> None:
        """Resume jobs a previous incarnation left RUNNING."""
        for view in self.queue.running():
            self._activate(view)

    def _activate(self, view: JobView) -> None:
        try:
            specs = self.queue.load_specs(view.job_id)
        except (ValueError, KeyError, TypeError) as exc:
            logger.error("job %s has undecodable specs: %s", view.job_id, exc)
            self.queue.fail(view.job_id, f"undecodable specs: {exc}")
            return
        job = _ActiveJob(
            view=view,
            specs=specs,
            digests=[spec.digest() for spec in specs],
            journal=TrialJournal(self.queue.trial_journal_path(view.job_id)),
            ledger=RetryLedger(self.max_retries),
            started=self.clock(),
        )
        self._active[view.job_id] = job
        self._poll_journal(job)

    # ------------------------------------------------------------------
    # the supervision loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """One supervision round: poll, reap, reclaim, finalize, spawn."""
        self.leases.poll()
        self._reap_processes()
        self._reclaim_expired()
        self._apply_cancellations()
        for job in list(self._active.values()):
            self._poll_journal(job)
            self._maybe_finalize(job)
        self._claim_jobs()
        self._spawn_ready()

    def run_until_idle(self, *, timeout: Optional[float] = None) -> None:
        """Step until no open jobs remain (tests, one-shot drains)."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            self.step()
            if not self._active and not self._has_queued():
                return
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"service did not drain within {timeout}s; active="
                    f"{sorted(self._active)}"
                )
            time.sleep(self.poll_interval)

    def run_forever(
        self, *, should_stop: Optional[Callable[[], bool]] = None
    ) -> None:
        """Daemon loop: supervise until stopped (or KeyboardInterrupt)."""
        try:
            while not (should_stop is not None and should_stop()):
                self.step()
                time.sleep(self.poll_interval)
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop spawned workers (their leases will be reclaimed by the
        next incarnation; journals keep everything already finished)."""
        for chunk in self._running:
            if chunk.process.is_alive():
                chunk.process.terminate()
        for chunk in self._running:
            chunk.process.join(timeout=2.0)
        self._running.clear()

    def _has_queued(self) -> bool:
        return any(
            v.status is JobStatus.QUEUED for v in self.queue.jobs().values()
        )

    # -- journal polling ----------------------------------------------
    def _poll_journal(self, job: _ActiveJob) -> None:
        job.seen = job.journal.load()

    # -- process reaping / lease reclaim -------------------------------
    def _reap_processes(self) -> None:
        still_running: List[_RunningChunk] = []
        for chunk in self._running:
            if chunk.process.is_alive():
                still_running.append(chunk)
                continue
            chunk.process.join()
            job = self._active.get(chunk.job_id)
            if job is not None:
                self._poll_journal(job)
            if not self.leases.released(chunk.lease_id):
                # Died without releasing: crash or injected kill.
                self.leases.reclaim(chunk.lease_id)
            self._return_chunk(chunk)
        self._running = still_running

    def _reclaim_expired(self) -> None:
        expired = {lease.lease_id for lease in self.leases.expired()}
        if not expired:
            return
        still_running: List[_RunningChunk] = []
        for chunk in self._running:
            if chunk.lease_id not in expired:
                still_running.append(chunk)
                continue
            # A hung chunk: heartbeats happen between trials, so a
            # trial stuck past the TTL expires the lease.  Kill hard —
            # stuck workers cannot be joined politely.
            if chunk.process.is_alive() and chunk.process.pid is not None:
                try:
                    os.kill(chunk.process.pid, signal.SIGKILL)
                except OSError:
                    pass
            chunk.process.join(timeout=2.0)
            job = self._active.get(chunk.job_id)
            if job is not None:
                self._poll_journal(job)
            self.leases.reclaim(chunk.lease_id)
            self._return_chunk(chunk)
        self._running = still_running
        # Foreign expired leases (orphan workers of a dead incarnation)
        # are reclaimed without a kill: we hold no handle to them, and
        # if the orphan is in fact alive it will either finish (its
        # journal records merge) or die — duplicates dedup by digest.
        own = {chunk.lease_id for chunk in self._running}
        for lease_id in expired - own:
            self.leases.reclaim(lease_id)

    def _return_chunk(self, chunk: _RunningChunk) -> None:
        """Put a finished/reclaimed chunk's unjournaled digests back in
        the pending pool.  The worker ran and journaled them in order,
        so only the first was running when it died (or lost its journal
        append): that one is charged, the rest never started."""
        job = self._active.get(chunk.job_id)
        if job is None:
            return
        for digest in chunk.digests:
            job.in_flight.pop(digest, None)
        lost = next((d for d in chunk.digests if d not in job.seen), None)
        if lost is not None:
            job.ledger.charge(
                lost,
                job.specs[job.digests.index(lost)],
                TrialStatus.WORKER_LOST,
                self.clock(),
            )

    # -- cancellation --------------------------------------------------
    def _apply_cancellations(self) -> None:
        views = self.queue.jobs()
        for job_id in list(self._active):
            view = views.get(job_id)
            if view is not None and view.status is JobStatus.CANCELLED:
                for chunk in self._running:
                    if chunk.job_id == job_id and chunk.process.is_alive():
                        chunk.process.terminate()
                self._running = [
                    c for c in self._running if c.job_id != job_id
                ]
                del self._active[job_id]
                try:
                    stream.append_event(
                        self.queue.stream_path(job_id),
                        {"event": "job-cancelled", "job": job_id},
                    )
                except OSError:
                    pass

    # -- completion ----------------------------------------------------
    def _maybe_finalize(self, job: _ActiveJob) -> None:
        job_id = job.view.job_id
        if any(chunk.job_id == job_id for chunk in self._running):
            # A worker journals each trial before streaming its delta:
            # wait until the job's chunks are reaped, so ``job-done``
            # is the last record of the stream.
            return
        exhausted = job.ledger.exhausted
        if any(d not in job.seen and d not in exhausted for d in job.digests):
            return
        outcomes = [job.seen.get(d) or exhausted[d] for d in job.digests]
        result = SweepResult(
            summaries=[
                o.summary for o in outcomes if o.ok and o.summary is not None
            ],
            elapsed=self.clock() - job.started,
            workers=self.workers,
            failures=[o for o in outcomes if not o.ok],
            outcomes=outcomes,
        )
        try:
            wal.atomic_write_json(
                self.queue.result_path(job_id), sweep_result_to_json(result)
            )
            self.queue.complete(job_id)
            stream.append_event(
                self.queue.stream_path(job_id),
                {
                    "event": "job-done",
                    "job": job_id,
                    "n_trials": len(outcomes),
                    "n_failures": len(result.failures),
                },
            )
        except OSError as exc:
            # Transient I/O trouble (injected ENOSPC, full disk): leave
            # the job active and retry next step.  All transitions are
            # idempotent under replay.
            logger.warning("finalize of %s deferred: %s", job_id, exc)
            return
        del self._active[job_id]

    # -- claiming / spawning -------------------------------------------
    def _claim_jobs(self) -> None:
        while len(self._active) < self.max_active_jobs:
            try:
                view = self.queue.claim_next()
            except OSError:
                return  # queue journal unwritable right now; retry later
            if view is None:
                return
            self._activate(view)

    def _job_held_by_foreign_leases(self, job_id: str) -> bool:
        """True while live leases on this job belong to another (dead)
        supervisor incarnation — its orphan workers may still be
        journaling; wait for release or expiry before resubmitting."""
        own = {chunk.lease_id for chunk in self._running}
        prefix = job_id + "/"
        return any(
            lease_id.startswith(prefix) and lease_id not in own
            for lease_id in self.leases.live()
        )

    def _spawn_ready(self) -> None:
        if len(self._running) >= self.workers:
            return
        now = self.clock()
        # Jobs in claim order: higher priority first, then seq.
        for job in sorted(
            self._active.values(),
            key=lambda j: (-j.view.priority, j.view.seq),
        ):
            if self._job_held_by_foreign_leases(job.view.job_id):
                continue
            ready: List[str] = [
                d
                for d in job.digests
                if d not in job.seen
                and d not in job.in_flight
                and job.ledger.ready(d, now)
            ]
            while ready and len(self._running) < self.workers:
                chunk_digests = ready[: self.chunksize]
                ready = ready[self.chunksize:]
                self._spawn_chunk(job, chunk_digests)
            if len(self._running) >= self.workers:
                return

    def _spawn_chunk(self, job: _ActiveJob, digests: List[str]) -> None:
        job_id = job.view.job_id
        self._lease_seq += 1
        lease_id = f"{job_id}/{self._lease_seq}"
        worker_id = f"svc-{os.getpid()}-{self._lease_seq}"
        index = {d: i for i, d in enumerate(job.digests)}
        specs = [job.specs[index[d]] for d in digests]
        attempts = [job.ledger.attempt(d) for d in digests]
        self.leases.grant(lease_id, worker_id)
        process = self._mp.Process(
            target=chunk_worker_main,
            args=(
                self.service_dir,
                job_id,
                lease_id,
                worker_id,
                [spec_to_json(spec) for spec in specs],
                attempts,
                self.cache_dir,
                self.journal_fsync,
            ),
            name=f"repro-sweep-{lease_id}",
        )
        process.start()
        if process.pid is not None:
            live = self.leases.live().get(lease_id)
            if live is not None:
                self.leases._live[lease_id].pid = process.pid
        for digest in digests:
            job.in_flight[digest] = lease_id
        self._running.append(
            _RunningChunk(
                job_id=job_id,
                lease_id=lease_id,
                digests=digests,
                process=process,
            )
        )
