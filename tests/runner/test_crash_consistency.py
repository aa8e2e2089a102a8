"""Crash consistency of the durability layer under real SIGKILL.

The I/O fault plan (``repro.runner.faults``) delivers a *real*
``SIGKILL`` to a subprocess exactly mid-write — half the payload on
disk, no cleanup — and the parent then asserts the recovery
guarantees:

* a cache publish killed mid-write leaves only an unpublished temp
  file: the torn bytes are never served, and GC sweeps the debris;
* a published-then-corrupted cache entry is quarantined on first read
  (renamed ``*.corrupt``), re-executed, and never consulted again;
* a journal append killed mid-write loses exactly the in-flight
  record: the torn line is skipped on load and a resumed sweep
  converges to a result bit-identical to an uninterrupted run.

Also here: the jittered-backoff bounds and the journal's opt-in fsync
mode (both part of the same robustness PR).
"""

import json
import os
import random
import signal
import subprocess
import sys

import pytest

from repro.runner import faults
from repro.runner.cache import TrialCache
from repro.runner.journal import TrialJournal
from repro.runner.runner import (
    SerialSweepRunner,
    _BACKOFF_BASE,
    _BACKOFF_CAP,
    backoff_delay,
    run_trial_outcome,
)
from repro.runner.spec import expand_grid

SPECS = expand_grid(["gdnpeu"], ["unsafe", "dom-nontso"], (0, 1))

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture(autouse=True)
def _no_leftover_fs_plan():
    faults.clear_fs_plan()
    yield
    faults.clear_fs_plan()


def _run_killed_child(script: str, plan: faults.FSFaultPlan) -> None:
    """Run ``script`` in a subprocess under ``plan``; it must die by
    SIGKILL (the injected mid-write kill actually fired)."""
    env = dict(os.environ)
    env[faults.FS_FAULT_PLAN_ENV] = plan.to_json()
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, timeout=120,
        capture_output=True,
    )
    assert proc.returncode == -signal.SIGKILL, (
        proc.returncode,
        proc.stdout,
        proc.stderr,
    )


# ---------------------------------------------------------------------
# cache publish crash
# ---------------------------------------------------------------------
def _cache_files(cache_dir):
    return sorted(
        name
        for _, _, files in os.walk(cache_dir)
        for name in files
    )


def test_sigkill_mid_cache_publish_never_serves_torn_bytes(tmp_path):
    cache_dir = str(tmp_path / "cache")
    script = f"""
from repro.runner.cache import TrialCache
from repro.runner.runner import run_trial_outcome
from repro.runner.spec import expand_grid
spec = expand_grid(["gdnpeu"], ["unsafe"], (0,))[0]
outcome = run_trial_outcome(spec, attempt=0)
TrialCache({cache_dir!r}, durable=True).put(spec, outcome)
raise SystemExit("put survived an injected mid-publish kill")
"""
    _run_killed_child(
        script,
        faults.FSFaultPlan(
            faults=(
                faults.FSFaultSpec(faults.FS_KILL, op=faults.OP_CACHE_PUBLISH),
            )
        ),
    )
    # On-disk aftermath: a torn temp file, no published entry.
    leftovers = _cache_files(cache_dir)
    assert leftovers, "the kill should have left a torn temp file behind"
    assert all(name.startswith(".tmp-") for name in leftovers)
    # The torn bytes are invisible to readers; the trial re-runs and the
    # re-published entry round-trips exactly.
    spec = expand_grid(["gdnpeu"], ["unsafe"], (0,))[0]
    cache = TrialCache(cache_dir, durable=True)
    assert cache.get(spec) is None
    outcome = run_trial_outcome(spec, attempt=0)
    assert cache.put(spec, outcome)
    assert cache.get(spec) == outcome
    assert cache.stats()["put_errors"] == 0
    # GC (with no grace, for the test) sweeps the orphaned temp file.
    cache.gc(tmp_grace=0.0)
    assert all(
        not name.startswith(".tmp-") for name in _cache_files(cache_dir)
    )


def test_kill_mid_publish_with_existing_entry_keeps_old_entry(tmp_path):
    """The publish is atomic: dying mid-write of a *replacement* entry
    must leave the previously published one intact and servable."""
    cache_dir = str(tmp_path / "cache")
    spec = expand_grid(["gdnpeu"], ["unsafe"], (0,))[0]
    outcome = run_trial_outcome(spec, attempt=0)
    assert TrialCache(cache_dir, durable=True).put(spec, outcome)
    script = f"""
from repro.runner.cache import TrialCache
from repro.runner.runner import run_trial_outcome
from repro.runner.spec import expand_grid
spec = expand_grid(["gdnpeu"], ["unsafe"], (0,))[0]
outcome = run_trial_outcome(spec, attempt=0)
TrialCache({cache_dir!r}, durable=True).put(spec, outcome)
raise SystemExit("unreachable")
"""
    _run_killed_child(
        script,
        faults.FSFaultPlan(
            faults=(
                faults.FSFaultSpec(faults.FS_KILL, op=faults.OP_CACHE_PUBLISH),
            )
        ),
    )
    cache = TrialCache(cache_dir)
    assert cache.get(spec) == outcome
    assert cache.stats()["hits"] == 1
    assert cache.stats()["quarantined"] == 0


def test_corrupted_published_entry_quarantined_and_reexecuted(tmp_path):
    cache_dir = str(tmp_path / "cache")
    spec = SPECS[0]
    outcome = run_trial_outcome(spec, attempt=0)
    cache = TrialCache(cache_dir)
    assert cache.put(spec, outcome)
    [entry] = [
        os.path.join(root, name)
        for root, _, files in os.walk(cache_dir)
        for name in files
    ]
    with open(entry, "r+b") as fh:
        fh.truncate(os.path.getsize(entry) // 2)
    reader = TrialCache(cache_dir)
    assert reader.get(spec) is None  # never served torn
    assert reader.stats()["quarantined"] == 1
    assert os.path.exists(entry + ".corrupt")
    assert not os.path.exists(entry)
    # Re-execution republishes; the quarantined file is never re-read.
    assert reader.put(spec, run_trial_outcome(spec, attempt=0))
    assert reader.get(spec) == outcome
    # GC removes the quarantined debris.
    reader.gc()
    assert not os.path.exists(entry + ".corrupt")


def test_structurally_corrupt_entry_quarantined(tmp_path):
    """Valid JSON that is not a valid entry must quarantine too."""
    cache_dir = str(tmp_path / "cache")
    spec = SPECS[0]
    cache = TrialCache(cache_dir)
    assert cache.put(spec, run_trial_outcome(spec, attempt=0))
    [entry] = [
        os.path.join(root, name)
        for root, _, files in os.walk(cache_dir)
        for name in files
    ]
    from repro.runner.cache import build_fingerprint

    with open(entry, "w") as fh:
        # Right build and digest (so neither freshness check rejects
        # it as a plain miss), but a garbage outcome payload.
        json.dump(
            {
                "build": build_fingerprint(),
                "digest": spec.digest(),
                "outcome": 3,
            },
            fh,
        )
    assert TrialCache(cache_dir).get(spec) is None
    assert os.path.exists(entry + ".corrupt")


# ---------------------------------------------------------------------
# journal append crash + resume
# ---------------------------------------------------------------------
def test_sigkill_mid_journal_append_resumes_bit_identical(tmp_path):
    journal_path = str(tmp_path / "sweep.jsonl")
    script = f"""
from repro.runner.journal import TrialJournal
from repro.runner.runner import run_trial_outcome
from repro.runner.spec import expand_grid
specs = expand_grid(["gdnpeu"], ["unsafe", "dom-nontso"], (0, 1))
journal = TrialJournal({journal_path!r}, fsync=True)
for spec in specs:
    journal.record(run_trial_outcome(spec, attempt=0))
raise SystemExit("unreachable: the second append must kill the process")
"""
    _run_killed_child(
        script,
        faults.FSFaultPlan(
            faults=(
                faults.FSFaultSpec(
                    faults.FS_KILL, op=faults.OP_JOURNAL_APPEND, after=1
                ),
            )
        ),
    )
    # Exactly one acknowledged record survives; the torn second line is
    # on disk but skipped by the tolerant loader.
    with open(journal_path, "rb") as fh:
        raw = fh.read()
    assert not raw.endswith(b"\n"), "expected a torn (unterminated) line"
    journal = TrialJournal(journal_path)
    loaded = journal.load()
    assert set(loaded) == {SPECS[0].digest()}
    # Resume: the journaled sweep converges to the uninterrupted result.
    resumed = SerialSweepRunner().run(SPECS, journal=journal)
    clean = SerialSweepRunner().run(SPECS)
    assert [o.summary for o in resumed.outcomes] == [
        o.summary for o in clean.outcomes
    ]
    assert [o.status for o in resumed.outcomes] == [
        o.status for o in clean.outcomes
    ]
    # And the journal now holds every digest, once each.
    assert set(TrialJournal(journal_path).load()) == {
        s.digest() for s in SPECS
    }


def test_journal_fsync_mode_round_trips(tmp_path):
    journal = TrialJournal(tmp_path / "j.jsonl", fsync=True)
    assert journal.fsync is True
    outcome = run_trial_outcome(SPECS[0], attempt=0)
    journal.record(outcome)
    assert journal.load()[SPECS[0].digest()] == outcome
    # Default stays off: benchmarks measure non-durable throughput.
    assert TrialJournal(tmp_path / "k.jsonl").fsync is False


# ---------------------------------------------------------------------
# jittered backoff
# ---------------------------------------------------------------------
def test_backoff_jitter_bounds():
    for round_no in range(1, 8):
        base = min(_BACKOFF_CAP, _BACKOFF_BASE * 2 ** (round_no - 1))
        for seed in range(20):
            delay = backoff_delay(round_no, rng=random.Random(seed))
            assert 0.5 * base <= delay <= base


def test_backoff_jitter_decorrelates():
    """Two workers entering the same retry round must not sleep the
    same wall-clock time (that synchronized-wave shape is what the
    jitter exists to break)."""
    delays = {
        backoff_delay(3, rng=random.Random(seed)) for seed in range(16)
    }
    assert len(delays) > 1


def test_backoff_deterministic_given_rng():
    assert backoff_delay(2, rng=random.Random(7)) == backoff_delay(
        2, rng=random.Random(7)
    )
