"""Process-level chaos harness for the sweep service.

The service's recovery story is only trustworthy if its failure paths
are exercised with *real* faults: ``SIGKILL`` delivered to live worker
processes (including mid-cache-publish and mid-journal-append, via the
:mod:`repro.runner.faults` I/O fault plan), the daemon itself killed
and restarted, injected ``ENOSPC``/``EIO``, torn cache entries, and
clock-skewed worker heartbeats.  :class:`ChaosHarness` runs a job under
a seeded :class:`ChaosSchedule` of such faults and returns the merged
result; :func:`chaos_differential` additionally executes the same specs
undisturbed in-process and asserts the two runs are **bit-identical**
(same digests, statuses, and summaries, in spec order — see
:func:`repro.service.codec.result_signature`), with zero lost and zero
duplicated trials.

Schedules are generated deterministically from a seed.  The fault
*interleaving* still depends on OS scheduling — that is the point: the
differential asserts the result is invariant under any interleaving
the schedule can produce, not that one particular interleaving
reproduces.

Retry budget caveat: every reclaimed chunk charges its first
unjournaled digest one attempt, so a schedule must not exceed the
supervisor's ``max_retries`` for any single digest or the run
legitimately reports ``worker-lost`` failures and the differential
(correctly) fails.
:attr:`DEFAULT_MAX_RETRIES` is sized for the schedules
:meth:`ChaosSchedule.generate` emits.
"""

from __future__ import annotations

import os
import random
import signal
import time
import multiprocessing
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runner import faults
from repro.runner.runner import run_trial_outcome
from repro.runner.spec import SweepResult, TrialSpec
from repro.service import wal
from repro.service.api import ServiceClient
from repro.service.codec import result_signature
from repro.service.lease import LeaseTable
from repro.service.supervisor import SweepSupervisor
from repro.service.worker import CLOCK_SKEW_ENV

#: Chaos action kinds.
KILL_WORKER = "kill-worker"  # SIGKILL one live leased worker process
KILL_DAEMON = "kill-daemon"  # SIGKILL the supervisor; a fresh one adopts
TEAR_CACHE = "tear-cache"  # corrupt one published cache entry in place

#: Retry headroom for generated schedules (see module docstring).
DEFAULT_MAX_RETRIES = 8


@dataclass(frozen=True)
class ChaosAction:
    """One scheduled fault: ``kind`` fired ``at`` seconds into the run,
    once the daemon has granted its first lease (see
    :meth:`ChaosHarness.run_job`)."""

    kind: str
    at: float


@dataclass(frozen=True)
class ChaosSchedule:
    """A seeded, reproducible fault schedule.

    ``fs_plan`` and ``worker_skew`` apply to the **first** daemon
    incarnation only (exported through its environment, inherited by
    its workers); restarted daemons come up clean, so injected I/O
    faults model a bounded outage rather than a livelock.
    """

    seed: int
    actions: Tuple[ChaosAction, ...] = ()
    fs_plan: Optional[faults.FSFaultPlan] = None
    #: Seconds added to the first incarnation's worker clocks.
    worker_skew: float = 0.0

    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        worker_kills: int = 2,
        daemon_kills: int = 1,
        cache_tears: int = 1,
        horizon: float = 1.0,
        io_faults: bool = True,
    ) -> "ChaosSchedule":
        """A deterministic schedule from ``seed``.

        Process kills land in ``(0.05, horizon)`` seconds; the I/O plan
        tears a journal append and a cache publish by real ``SIGKILL``
        (``after >= 1`` so every killed round still makes progress — the
        convergence argument needs monotonicity, not luck) and injects
        a transient ``ENOSPC`` on the stream.
        """
        rng = random.Random(seed)
        actions: List[ChaosAction] = []
        for _ in range(worker_kills):
            actions.append(ChaosAction(KILL_WORKER, rng.uniform(0.05, horizon)))
        for _ in range(daemon_kills):
            actions.append(ChaosAction(KILL_DAEMON, rng.uniform(0.1, horizon)))
        for _ in range(cache_tears):
            actions.append(ChaosAction(TEAR_CACHE, rng.uniform(0.05, horizon)))
        fs_plan = None
        if io_faults:
            fs_plan = faults.FSFaultPlan(
                faults=(
                    faults.FSFaultSpec(
                        faults.FS_KILL,
                        op=faults.OP_JOURNAL_APPEND,
                        after=rng.randint(1, 2),
                    ),
                    faults.FSFaultSpec(
                        faults.FS_KILL,
                        op=faults.OP_CACHE_PUBLISH,
                        after=rng.randint(1, 2),
                    ),
                    faults.FSFaultSpec(
                        faults.FS_ENOSPC,
                        op=faults.OP_STREAM_APPEND,
                        after=rng.randint(0, 2),
                        times=2,
                    ),
                )
            )
        worker_skew = rng.choice((-1.5, 0.0, 3.0))
        return cls(
            seed=seed,
            actions=tuple(sorted(actions, key=lambda a: a.at)),
            fs_plan=fs_plan,
            worker_skew=worker_skew,
        )


def _daemon_main(
    service_dir: str, env: Dict[str, str], kwargs: Dict[str, Any], stop_path: str
) -> None:
    """Daemon process body: install the chaos environment, supervise."""
    for key in (faults.FS_FAULT_PLAN_ENV, CLOCK_SKEW_ENV):
        os.environ.pop(key, None)
    os.environ.update(env)
    supervisor = SweepSupervisor(service_dir, **kwargs)
    supervisor.run_forever(should_stop=lambda: os.path.exists(stop_path))


def _child_of(pid: int, parent_pid: int) -> bool:
    """Is ``pid`` a direct child of ``parent_pid``?  (Linux /proc; used
    as a guard so the harness never signals an unrelated process that
    happens to share a recycled pid.)"""
    try:
        with open(f"/proc/{pid}/stat", "r") as fh:
            fields = fh.read().split()
        return int(fields[3]) == parent_pid
    except (OSError, ValueError, IndexError):
        return False


class ChaosHarness:
    """Run one job under a chaos schedule, daemon in a real OS process.

    The harness owns the daemon lifecycle: it starts the first
    incarnation with the schedule's fault environment, fires scheduled
    actions at their offsets, restarts the daemon whenever it dies
    (scheduled kill or collateral damage from an I/O fault plan —
    restarts always come up with a clean environment), and waits for
    the merged result.
    """

    def __init__(
        self,
        service_dir,
        schedule: ChaosSchedule,
        **supervisor_kwargs: Any,
    ) -> None:
        self.service_dir = os.fspath(service_dir)
        self.schedule = schedule
        # chunksize must exceed the fs plan's ``after`` for mid-chunk
        # I/O kills to arm (a 1-spec chunk makes only one journal append).
        self.supervisor_kwargs: Dict[str, Any] = {
            "workers": 2,
            "chunksize": 4,
            "lease_ttl": 1.0,
            "poll_interval": 0.01,
            "max_retries": DEFAULT_MAX_RETRIES,
            **supervisor_kwargs,
        }
        self.client = ServiceClient(self.service_dir)
        self._mp = multiprocessing.get_context()
        self._daemon: Optional[multiprocessing.process.BaseProcess] = None
        self._incarnations = 0
        #: Whether the lease journal holds a grant yet, and the offset
        #: it has been read up to.
        self._granted = False
        self._lease_offset = 0
        #: Action log for reporting/tests: (offset, kind, detail).
        self.events: List[Tuple[float, str, str]] = []

    # -- daemon lifecycle ----------------------------------------------
    @property
    def _stop_path(self) -> str:
        return os.path.join(self.service_dir, "daemon.stop")

    def _chaos_env(self) -> Dict[str, str]:
        env: Dict[str, str] = {}
        if self.schedule.fs_plan is not None:
            env[faults.FS_FAULT_PLAN_ENV] = self.schedule.fs_plan.to_json()
        if self.schedule.worker_skew:
            env[CLOCK_SKEW_ENV] = str(self.schedule.worker_skew)
        return env

    def start_daemon(self) -> None:
        """Spawn a supervisor incarnation (first one gets the chaos
        environment; later ones are clean)."""
        env = self._chaos_env() if self._incarnations == 0 else {}
        self._incarnations += 1
        self._daemon = self._mp.Process(
            target=_daemon_main,
            args=(self.service_dir, env, self.supervisor_kwargs, self._stop_path),
            name=f"repro-service-daemon-{self._incarnations}",
        )
        self._daemon.start()

    def stop_daemon(self, *, grace: float = 5.0) -> None:
        """Ask the daemon to exit; escalate to SIGKILL after ``grace``."""
        daemon = self._daemon
        if daemon is None:
            return
        with open(self._stop_path, "w"):
            pass
        daemon.join(timeout=grace)
        if daemon.is_alive():
            daemon.kill()
            daemon.join(timeout=2.0)
        self._daemon = None

    # -- actions --------------------------------------------------------
    def _work_granted(self) -> bool:
        """Has any incarnation granted a lease yet?"""
        if not self._granted:
            records, self._lease_offset = wal.read_records(
                os.path.join(self.service_dir, "leases.jsonl"), self._lease_offset
            )
            self._granted = any(record.get("event") == "grant" for record in records)
        return self._granted

    def _live_worker_pids(self) -> List[int]:
        daemon = self._daemon
        if daemon is None or daemon.pid is None:
            return []
        table = LeaseTable(os.path.join(self.service_dir, "leases.jsonl"))
        return sorted(
            lease.pid
            for lease in table.live().values()
            if lease.pid is not None
            and lease.pid != daemon.pid
            and _child_of(lease.pid, daemon.pid)
        )

    def _kill_worker(self) -> str:
        pids = self._live_worker_pids()
        if not pids:
            return "no live worker to kill"
        victim = pids[0]
        try:
            os.kill(victim, signal.SIGKILL)
        except OSError as exc:
            return f"kill {victim} failed: {exc}"
        return f"SIGKILL worker {victim}"

    def _kill_daemon(self) -> str:
        daemon = self._daemon
        if daemon is None or not daemon.is_alive():
            return "daemon already down"
        # kill() is SIGKILL: no handlers, no cleanup — worker processes
        # survive as orphans and the next incarnation must adopt them.
        daemon.kill()
        daemon.join(timeout=2.0)
        pid = daemon.pid
        self._daemon = None
        return f"SIGKILL daemon {pid}"

    def _tear_cache_entry(self) -> str:
        cache_dir = os.path.join(self.service_dir, "cache")
        for dirpath, _dirnames, filenames in os.walk(cache_dir):
            for name in sorted(filenames):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    with open(path, "r+b") as fh:
                        fh.seek(0, os.SEEK_END)
                        size = fh.tell()
                        fh.truncate(max(1, size // 2))
                except OSError as exc:
                    return f"tear of {name} failed: {exc}"
                return f"tore cache entry {name}"
        return "no published cache entry to tear"

    def _fire(self, action: ChaosAction, offset: float) -> None:
        if action.kind == KILL_WORKER:
            detail = self._kill_worker()
        elif action.kind == KILL_DAEMON:
            detail = self._kill_daemon()
        elif action.kind == TEAR_CACHE:
            detail = self._tear_cache_entry()
        else:
            detail = f"unknown action {action.kind!r} ignored"
        self.events.append((offset, action.kind, detail))

    # -- the run --------------------------------------------------------
    def run(
        self,
        specs: Sequence[TrialSpec],
        *,
        timeout: float = 120.0,
        priority: int = 0,
        tenant: str = "default",
    ) -> SweepResult:
        """Submit ``specs``, supervise under chaos, return the result."""
        job_id = self.client.submit(specs, priority=priority, tenant=tenant)
        return self.run_job(job_id, timeout=timeout)

    def run_job(self, job_id: str, *, timeout: float = 120.0) -> SweepResult:
        pending = list(self.schedule.actions)
        start = time.monotonic()
        self.start_daemon()
        try:
            while True:
                offset = time.monotonic() - start
                # Faults wait for the first lease grant as well as their
                # offset: before it there is no worker, lease or cache
                # entry to hit, and a fast job can finish before any
                # fixed offset but not before its first grant.
                if pending and pending[0].at <= offset and self._work_granted():
                    while pending and pending[0].at <= offset:
                        self._fire(pending.pop(0), offset)
                result = self.client.result(job_id)
                if result is not None:
                    return result
                # The daemon may die from schedule collateral (an I/O
                # kill fault matching one of its own appends): always
                # bring one back while work remains.
                if self._daemon is None or not self._daemon.is_alive():
                    if self._daemon is not None:
                        self._daemon.join(timeout=1.0)
                        self._daemon = None
                        self.events.append(
                            (offset, "daemon-died", "restarting")
                        )
                    self.start_daemon()
                if time.monotonic() - start > timeout:
                    raise TimeoutError(
                        f"chaos run of job {job_id} exceeded {timeout}s "
                        f"(events: {self.events})"
                    )
                time.sleep(0.02)
        finally:
            self.stop_daemon()


def chaos_differential(
    specs: Sequence[TrialSpec],
    base_dir,
    *,
    seed: int = 0,
    timeout: float = 120.0,
    schedule: Optional[ChaosSchedule] = None,
    **supervisor_kwargs: Any,
) -> Dict[str, Any]:
    """The acceptance check: chaos run vs. undisturbed run, bit-identical.

    Executes ``specs`` once in-process with no faults (the ground
    truth), once through the service under ``schedule`` (generated from
    ``seed`` if not given), and compares
    :func:`~repro.service.codec.result_signature` — digest, status, and
    summary per trial, in spec order.  Also verifies **zero lost** and
    **zero duplicated** trials against the submitted digests.
    """
    specs = list(specs)
    clean = [run_trial_outcome(spec, attempt=0) for spec in specs]
    harness = ChaosHarness(
        os.path.join(os.fspath(base_dir), "chaos-svc"),
        schedule if schedule is not None else ChaosSchedule.generate(seed),
        **supervisor_kwargs,
    )
    result = harness.run(specs, timeout=timeout)
    expected = [spec.digest() for spec in specs]
    got = [outcome.digest for outcome in result.outcomes]
    lost = sorted(set(expected) - set(got))
    duplicated = sorted({d for d in got if got.count(d) > 1})
    clean_sig = result_signature(clean)
    chaos_sig = result_signature(result.outcomes)
    return {
        "identical": clean_sig == chaos_sig and not lost and not duplicated,
        "n_trials": len(specs),
        "lost": lost,
        "duplicated": duplicated,
        "mismatches": [
            {"index": i, "clean": repr(a), "chaos": repr(b)}
            for i, (a, b) in enumerate(zip(clean_sig, chaos_sig, strict=False))
            if a != b
        ],
        "daemon_incarnations": harness._incarnations,
        "events": [
            {"at": round(at, 3), "kind": kind, "detail": detail}
            for at, kind, detail in harness.events
        ],
        "schedule_seed": harness.schedule.seed,
        "worker_skew": harness.schedule.worker_skew,
    }
