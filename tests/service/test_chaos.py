"""The chaos differential: service under fire == undisturbed run.

This is the acceptance property of the whole service tier, exercised
with real processes: worker SIGKILLs, a daemon SIGKILL + restart
(orphan adoption), injected I/O faults mid-journal-append and
mid-cache-publish, a torn cache entry, and skewed worker clocks — and
the merged result must still be bit-identical with zero lost and zero
duplicated trials.
"""

import os

import pytest

from repro.runner import faults
from repro.runner.spec import expand_grid
from repro.service.chaos import (
    KILL_DAEMON,
    ChaosAction,
    ChaosSchedule,
    chaos_differential,
)

pytestmark = pytest.mark.slow


@pytest.fixture(autouse=True)
def _clean_env():
    faults.clear_fs_plan()
    yield
    faults.clear_fs_plan()
    os.environ.pop("REPRO_CLOCK_SKEW", None)


def test_schedule_generation_is_deterministic():
    a = ChaosSchedule.generate(42)
    b = ChaosSchedule.generate(42)
    assert a == b
    assert a != ChaosSchedule.generate(43)
    assert all(a.actions[i].at <= a.actions[i + 1].at
               for i in range(len(a.actions) - 1))


def test_schedule_io_kills_always_leave_progress():
    """The convergence argument needs ``after >= 1`` on every injected
    I/O kill: each killed round must journal at least one record."""
    for seed in range(30):
        plan = ChaosSchedule.generate(seed).fs_plan
        assert plan is not None
        for fault in plan.faults:
            if fault.kind == faults.FS_KILL:
                assert fault.after >= 1


def test_chaos_differential_converges_bit_identically(tmp_path):
    specs = expand_grid(["gdnpeu", "gdmshr"], ["dom-nontso", "fence-spectre"])
    report = chaos_differential(specs, tmp_path, seed=7, timeout=240.0)
    assert report["lost"] == []
    assert report["duplicated"] == []
    assert report["mismatches"] == []
    assert report["identical"], report
    assert report["n_trials"] == len(specs)


def test_chaos_differential_with_daemon_kill_and_skew(tmp_path):
    """Force the interesting pair explicitly rather than relying on the
    seed: a daemon SIGKILL early in the run (adoption path) plus a
    fast worker clock (heartbeat clamping path)."""
    specs = expand_grid(["gdnpeu"], ["dom-nontso", "fence-spectre"], (0, 1))
    schedule = ChaosSchedule(
        seed=0,
        actions=(ChaosAction(KILL_DAEMON, 0.0),),
        fs_plan=None,
        worker_skew=5.0,
    )
    # One worker, one-spec chunks: the kill fires at the first harness
    # poll (every 20 ms) that sees a lease grant, not at a wall-clock
    # offset the job may already have finished by.  The first
    # incarnation grants one chunk at a time, each after the last one's
    # worker exits, so most of the job is still to run at that poll.
    report = chaos_differential(
        specs, tmp_path, schedule=schedule, timeout=240.0,
        workers=1, chunksize=1, lease_ttl=1.0,
    )
    assert report["identical"], report
    assert report["daemon_incarnations"] >= 2
