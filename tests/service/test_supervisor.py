"""Supervisor: lease recovery, retry exhaustion, adoption, streaming.

These tests run real worker processes (multiprocessing) over small
grids, except one that drives a stub chunk process by hand; fault
injection goes through the ``repro.runner.faults`` I/O plan, shipped
to workers via the environment.
"""

import os

import pytest

from repro.runner import TrialJournal, faults
from repro.runner.runner import run_trial_outcome
from repro.runner.spec import TrialStatus, expand_grid
from repro.service import ServiceClient, SweepSupervisor, stream
from repro.service.codec import result_signature
from repro.service.lease import LeaseTable

GRID = expand_grid(["gdnpeu"], ["unsafe", "dom-nontso"], (0, 1))

DRAIN_TIMEOUT = 120.0


@pytest.fixture(autouse=True)
def _no_leftover_fs_plan():
    faults.clear_fs_plan()
    yield
    faults.clear_fs_plan()
    os.environ.pop(faults.FS_FAULT_PLAN_ENV, None)


def _clean_signature(specs):
    return result_signature([run_trial_outcome(s, attempt=0) for s in specs])


def _supervisor(tmp_path, **kwargs):
    defaults = dict(
        workers=2, chunksize=2, poll_interval=0.01, lease_ttl=2.0
    )
    defaults.update(kwargs)
    return SweepSupervisor(tmp_path, **defaults)


def test_drains_to_bit_identical_result(tmp_path):
    client = ServiceClient(tmp_path)
    job_id = client.submit(GRID)
    _supervisor(tmp_path).run_until_idle(timeout=DRAIN_TIMEOUT)
    result = client.result(job_id)
    assert result is not None
    assert result_signature(result.outcomes) == _clean_signature(GRID)
    assert client.status(job_id).status.value == "done"


def test_recovers_from_worker_killed_mid_journal_append(tmp_path):
    """A worker SIGKILLed mid-append (torn journal line) loses only the
    in-flight trial; the supervisor reclaims and converges."""
    client = ServiceClient(tmp_path)
    job_id = client.submit(GRID)
    # Every first-incarnation worker dies half-way through its second
    # journal append (the env ships the plan to worker processes).
    os.environ[faults.FS_FAULT_PLAN_ENV] = faults.FSFaultPlan(
        faults=(
            faults.FSFaultSpec(
                faults.FS_KILL, op=faults.OP_JOURNAL_APPEND, after=1
            ),
        )
    ).to_json()
    supervisor = _supervisor(tmp_path, lease_ttl=1.0)
    try:
        supervisor.run_until_idle(timeout=DRAIN_TIMEOUT)
    finally:
        os.environ.pop(faults.FS_FAULT_PLAN_ENV, None)
    result = client.result(job_id)
    assert result_signature(result.outcomes) == _clean_signature(GRID)
    # The fault actually fired: some trial needed more than one attempt.
    assert max(o.attempts for o in result.outcomes) > 1


def test_retry_exhaustion_reports_worker_lost(tmp_path):
    """A chunk that dies on *every* attempt must surface as structured
    worker-lost failures, not loop forever."""
    client = ServiceClient(tmp_path)
    specs = expand_grid(["gdnpeu"], ["unsafe"], (0,))
    job_id = client.submit(specs)
    # after=0: the very first journal append of every worker dies, so
    # no attempt can ever journal its outcome.
    os.environ[faults.FS_FAULT_PLAN_ENV] = faults.FSFaultPlan(
        faults=(
            faults.FSFaultSpec(
                faults.FS_KILL, op=faults.OP_JOURNAL_APPEND, times=10**6
            ),
        )
    ).to_json()
    supervisor = _supervisor(
        tmp_path, chunksize=1, lease_ttl=1.0, max_retries=1
    )
    try:
        supervisor.run_until_idle(timeout=DRAIN_TIMEOUT)
    finally:
        os.environ.pop(faults.FS_FAULT_PLAN_ENV, None)
    result = client.result(job_id)
    assert [o.status for o in result.outcomes] == [TrialStatus.WORKER_LOST]
    assert result.outcomes[0].error_type == "RetriesExhausted"
    assert client.status(job_id).status.value == "done"


def test_dead_chunk_charges_only_its_running_spec(tmp_path):
    """A worker runs and journals its chunk in order, so a dead chunk's
    first unjournaled spec is the one it was running; the specs after
    it never started and must not be charged."""
    specs = expand_grid(["gdnpeu"], ["unsafe", "dom-nontso"])
    client = ServiceClient(tmp_path)
    job_id = client.submit(specs)
    kill = faults.FaultSpec(
        "worker-kill", victim="gdnpeu", scheme="unsafe", secret=0, max_attempts=99
    )
    faults.install_plan(faults.FaultPlan((kill,)))
    try:
        _supervisor(
            tmp_path, workers=1, chunksize=4, max_retries=0
        ).run_until_idle(timeout=DRAIN_TIMEOUT)
    finally:
        faults.clear_plan()
    outcomes = client.result(job_id).outcomes
    killed, rest = outcomes[0], outcomes[1:]
    assert (killed.victim, killed.scheme, killed.secret) == ("gdnpeu", "unsafe", 0)
    assert killed.status is TrialStatus.WORKER_LOST
    assert killed.error_type == "RetriesExhausted"
    assert killed.attempts == 1
    assert result_signature(rest) == _clean_signature(specs[1:])


def test_fresh_supervisor_adopts_abandoned_job(tmp_path):
    """Supervisor 'crash': the first instance claims the job and spawns
    workers, then is abandoned.  A second instance on the same
    directory must adopt the RUNNING job — waiting out the foreign
    leases rather than killing the orphans — and finish it."""
    client = ServiceClient(tmp_path)
    job_id = client.submit(GRID)
    first = _supervisor(tmp_path, lease_ttl=1.5)
    first.step()  # claims the job and spawns its first chunks
    assert client.status(job_id).status.value == "running"
    # No shutdown(): the orphan workers keep running, as after SIGKILL
    # of the daemon (their leases stay live in the journal).
    second = _supervisor(tmp_path, lease_ttl=1.5)
    second.run_until_idle(timeout=DRAIN_TIMEOUT)
    result = client.result(job_id)
    assert result_signature(result.outcomes) == _clean_signature(GRID)
    # Hygiene: reap the abandoned instance's processes.
    for chunk in first._running:
        chunk.process.join(timeout=10.0)
    first.shutdown()


def test_cancellation_mid_run(tmp_path):
    client = ServiceClient(tmp_path)
    job_id = client.submit(GRID)
    supervisor = _supervisor(tmp_path)
    supervisor.step()
    assert client.cancel(job_id)
    supervisor.run_until_idle(timeout=DRAIN_TIMEOUT)
    assert client.status(job_id).status.value == "cancelled"
    assert client.result(job_id) is None
    records, _ = client.deltas(job_id)
    assert any(r.get("event") == "job-cancelled" for r in records)
    supervisor.shutdown()


def test_stream_carries_deltas_and_terminal_event(tmp_path):
    client = ServiceClient(tmp_path)
    job_id = client.submit(GRID)
    _supervisor(tmp_path).run_until_idle(timeout=DRAIN_TIMEOUT)
    records, _ = client.deltas(job_id)
    trials = [r for r in records if r.get("event") == "trial"]
    assert {r["digest"] for r in trials} == {s.digest() for s in GRID}
    assert records[-1]["event"] == "job-done"
    assert records[-1]["n_trials"] == len(GRID)


class _StubProcess:
    """A chunk process the test drives by hand: it runs nothing and is
    alive from ``start`` until the test clears ``alive``."""

    def __init__(self, target, args, name):
        self.args = args
        self.pid = None
        self.alive = False

    def start(self):
        self.alive = True

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        pass


class _StubContext:
    def __init__(self):
        self.processes = []

    def Process(self, target, args, name):
        process = _StubProcess(target, args, name)
        self.processes.append(process)
        return process


def test_job_done_waits_for_the_chunk_to_exit(tmp_path):
    """A worker journals a trial before streaming its delta.  With every
    digest journaled but the chunk still alive, the delta may be in
    flight, so ``job-done`` waits for the step after the chunk exits."""
    specs = expand_grid(["gdnpeu"], ["unsafe"], (0,))
    outcome = run_trial_outcome(specs[0], attempt=0)
    client = ServiceClient(tmp_path)
    job_id = client.submit(specs)
    supervisor = _supervisor(tmp_path, workers=1, lease_ttl=600.0)
    context = _StubContext()
    supervisor._mp = context
    supervisor.step()  # claims the job and spawns its one chunk
    (process,) = context.processes
    _, _, lease_id, worker_id = process.args[:4]

    TrialJournal(supervisor.queue.trial_journal_path(job_id)).record(outcome)
    supervisor.step()
    records, _ = client.deltas(job_id)
    assert records == []
    assert client.status(job_id).status.value == "running"

    stream.append_outcome(supervisor.queue.stream_path(job_id), outcome)
    LeaseTable(os.path.join(str(tmp_path), "leases.jsonl")).release(
        lease_id, worker_id
    )
    process.alive = False
    supervisor.step()
    records, _ = client.deltas(job_id)
    assert [r["event"] for r in records] == ["trial", "job-done"]
    assert client.status(job_id).status.value == "done"


def test_two_jobs_respect_priority(tmp_path):
    client = ServiceClient(tmp_path)
    low = client.submit(expand_grid(["gdnpeu"], ["unsafe"], (0,)))
    high = client.submit(
        expand_grid(["gdnpeu"], ["dom-nontso"], (0,)), priority=9
    )
    supervisor = _supervisor(tmp_path, max_active_jobs=1, workers=1)
    supervisor.step()
    # With one active-job slot, the high-priority job is claimed first.
    assert client.status(high).status.value == "running"
    assert client.status(low).status.value == "queued"
    supervisor.run_until_idle(timeout=DRAIN_TIMEOUT)
    assert client.status(low).status.value == "done"
    assert client.status(high).status.value == "done"


def test_cache_shared_across_jobs(tmp_path):
    """Two jobs over the same specs: the second is served from the
    shared durable cache (its journal outcomes preserve attempts=1 and
    identical summaries)."""
    client = ServiceClient(tmp_path)
    specs = expand_grid(["gdnpeu"], ["unsafe"], (0, 1))
    first = client.submit(specs)
    supervisor = _supervisor(tmp_path)
    supervisor.run_until_idle(timeout=DRAIN_TIMEOUT)
    second = client.submit(specs)
    supervisor.run_until_idle(timeout=DRAIN_TIMEOUT)
    sig_first = result_signature(client.result(first).outcomes)
    sig_second = result_signature(client.result(second).outcomes)
    assert sig_first == sig_second
    cache_dir = os.path.join(str(tmp_path), "cache")
    assert os.path.isdir(cache_dir)
    published = [
        name
        for _, _, files in os.walk(cache_dir)
        for name in files
        if name.endswith(".json")
    ]
    assert len(published) == len(specs)
