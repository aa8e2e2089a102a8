"""Chunk worker: the per-process execution body the supervisor spawns.

A worker owns one leased chunk of one job.  For each spec it first
consults the shared :class:`~repro.runner.cache.TrialCache` (durable
publishes: the cache is multi-reader, so a torn write from a killed
sibling must never be served — the hardened cache quarantines it),
then executes, journals the deterministic outcome (``fsync`` so an
acknowledged trial survives the host, not just the process), streams
the delta, and heartbeats its lease.

Everything a worker writes is crash-safe by construction: the journal
and stream are append-only with torn-line-tolerant replay, and cache
publishes are atomic.  SIGKILL at *any* byte therefore loses at most
the in-flight trial, which the supervisor re-runs after the lease
expires — deterministically, so the merged result is bit-identical.

``REPRO_CLOCK_SKEW`` (seconds, float) shifts the timestamps this
worker stamps on heartbeats, emulating a host with a skewed clock for
the chaos harness; the supervisor's lease table clamps such
timestamps rather than trusting them.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence

from repro.runner.cache import TrialCache
from repro.runner.journal import TrialJournal
from repro.runner.runner import _check_lean_transport, run_trial_outcome
from repro.service import stream
from repro.service.codec import spec_from_json
from repro.service.lease import LeaseTable

#: Environment variable carrying a float clock-skew (seconds) applied
#: to this worker's heartbeat timestamps.
CLOCK_SKEW_ENV = "REPRO_CLOCK_SKEW"


def _skewed_clock():
    """The worker's wall clock, shifted by :data:`CLOCK_SKEW_ENV`."""
    import time

    raw = os.environ.get(CLOCK_SKEW_ENV)
    try:
        skew = float(raw) if raw else 0.0
    except ValueError:
        skew = 0.0
    if not skew:
        return time.time
    return lambda: time.time() + skew


def chunk_worker_main(
    service_dir: str,
    job_id: str,
    lease_id: str,
    worker_id: str,
    spec_payloads: Sequence[Dict[str, Any]],
    attempts: Sequence[int],
    cache_dir: Optional[str],
    journal_fsync: bool = True,
) -> None:
    """Execute one leased chunk (module-level: the spawn target).

    ``spec_payloads`` are codec-encoded specs (JSON dicts — the chunk
    must survive any spawn method); ``attempts`` aligns with them and
    parameterizes fault injection exactly like the pool runner's
    retry counter.
    """
    specs = [spec_from_json(payload) for payload in spec_payloads]
    journal = TrialJournal(
        os.path.join(service_dir, "jobs", job_id, "journal.jsonl"),
        fsync=journal_fsync,
    )
    stream_path = os.path.join(service_dir, "jobs", job_id, "stream.jsonl")
    leases = LeaseTable(
        os.path.join(service_dir, "leases.jsonl"), clock=_skewed_clock()
    )
    cache = (
        TrialCache(cache_dir, durable=True) if cache_dir is not None else None
    )
    pid = os.getpid()
    leases.heartbeat(lease_id, worker_id, pid=pid)
    for spec, attempt in zip(specs, attempts, strict=False):
        outcome = cache.get(spec) if cache is not None else None
        fresh = outcome is None
        if outcome is None:
            outcome = run_trial_outcome(spec, attempt=attempt)
            _check_lean_transport(outcome)
        try:
            if journal.should_record(outcome):
                journal.record(outcome)
        except OSError:
            # Journal I/O failure (disk full, EIO): the outcome is not
            # persisted — the supervisor will see the gap at chunk end
            # and resubmit just this spec.  Keep going; later appends
            # may succeed (transient) or fail the same way (bounded by
            # the retry budget either way).
            pass
        try:
            stream.append_outcome(stream_path, outcome)
        except OSError:
            pass  # a lost delta degrades the live view, never the result
        if cache is not None and fresh:
            cache.put(spec, outcome)  # best-effort by construction
        leases.heartbeat(lease_id, worker_id, pid=pid)
    leases.release(lease_id, worker_id)


def decode_chunk(spec_payloads: Sequence[Dict[str, Any]]) -> List[Any]:
    """Decode a chunk's spec payloads (exposed for tests)."""
    return [spec_from_json(payload) for payload in spec_payloads]
