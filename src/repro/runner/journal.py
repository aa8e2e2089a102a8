"""Append-only JSONL checkpoint journal for sweeps.

One line per finished trial, keyed by :meth:`TrialSpec.digest`.  A sweep
given a journal skips every spec whose digest already has a record, so
an interrupted sweep (ctrl-C, OOM-kill, power loss) resumes where it
left off and the merged :class:`SweepResult` is identical to an
uninterrupted run's.

Robustness properties:

* **Append-only, one line per record** — each record is written with a
  single ``O_APPEND`` write, so concurrent pool workers can journal into
  the same file without a lock.
* **Tolerant loader** — a torn final line (the process died mid-write)
  or any corrupt line is skipped, never fatal; the affected trial simply
  re-runs.
* **Incremental index** — a :class:`TrialJournal` remembers how far it
  has read, so each :meth:`~TrialJournal.load` decodes only the records
  appended since the last one.  A line counts once its newline is on
  disk; an unterminated final line waits for the next append.
* **Last record wins** — re-recording a digest (e.g. a parent replaying
  a chunk a worker already journaled) is harmless.
* **Deterministic outcomes only** — ``ok``, ``deadlock`` and ``error``
  outcomes are journaled; transient ``timeout`` / ``worker-lost``
  outcomes are not, so a resumed sweep retries them instead of
  resurrecting a stale failure.
* **Optional durability** — ``fsync=True`` fsyncs after every append,
  so a record survives power loss (not just process death) once
  :meth:`record` returns.  Off by default: an fsync per trial costs
  real throughput (see the tradeoff note on :class:`TrialJournal`),
  and process-crash recovery — the common case — does not need it.
* **Best-effort from sweeps** — the runners and service workers append
  through :meth:`TrialJournal.try_record`: a failed append (full disk,
  EIO) is counted and logged once, and only costs that trial a re-run
  on resume.

The framing lives in two helpers, :func:`append_record` and
:func:`read_records`.  The service tier's logs use the same two
(:mod:`repro.service.wal` imports them), so the runner and the service
write and scan JSONL one way.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.memory.hierarchy import AccessKind, VisibleAccess
from repro.runner import faults
from repro.runner.spec import TrialOutcome, TrialStatus, TrialSummary

logger = logging.getLogger(__name__)

#: Journal format version, embedded in every record.
JOURNAL_VERSION = 1

#: Statuses that are deterministic re-run outcomes and thus worth
#: checkpointing.  Transient statuses re-run on resume.
JOURNALED_STATUSES = frozenset(
    {TrialStatus.OK, TrialStatus.DEADLOCK, TrialStatus.ERROR}
)


def append_record(path: str, record: Dict[str, Any], *, op: str, fsync: bool = False) -> None:
    """Append one JSON record (atomic single write, optional fsync).

    The record is framed as ``"\\n" + json + "\\n"``.  The leading
    newline is a record separator, not formatting: if the previous
    writer died mid-append, its torn prefix has no terminator, and
    without the separator this record would concatenate onto it and be
    lost with it.  Readers skip the resulting blank lines.

    ``op`` names the I/O point for the fault-injection layer
    (:mod:`repro.runner.faults`), so chaos schedules can tear or
    ENOSPC-fail exactly this append.
    """
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    payload = ("\n" + line + "\n").encode()
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        faults.fs_write(fd, payload, op)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


def read_records(
    path: str, offset: int = 0
) -> Tuple[List[Dict[str, Any]], int]:
    """Complete records at ``offset`` onward, plus the new offset.

    Corrupt or torn lines are skipped (their bytes are still consumed
    once a newline terminates them); a partial final line is *not*
    consumed — its bytes stay pending until the writer finishes or
    dies, at which point a later record's leading separator closes it.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read()
    except FileNotFoundError:
        return [], offset
    records: List[Dict[str, Any]] = []
    consumed = 0
    while True:
        newline = data.find(b"\n", consumed)
        if newline < 0:
            break
        line = data[consumed:newline].strip()
        consumed = newline + 1
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn or corrupt record: skipped, bytes consumed
        if isinstance(record, dict):
            records.append(record)
    return records, offset + consumed


def summary_to_json(summary: TrialSummary) -> dict:
    return {
        "victim": summary.victim,
        "scheme": summary.scheme,
        "secret": summary.secret,
        "seed": summary.seed,
        "cycles": summary.cycles,
        "access_cycle": [
            [line, cycle] for line, cycle in sorted(summary.access_cycle.items())
        ],
        "visible": [
            [a.cycle, a.line, a.kind.value, a.core, a.hit]
            for a in summary.visible
        ],
        "retired": summary.retired,
        "line_a": summary.line_a,
        "line_b": summary.line_b,
        **({"metrics": summary.metrics} if summary.metrics is not None else {}),
        **(
            {"snapshot_path": summary.snapshot_path}
            if summary.snapshot_path is not None
            else {}
        ),
        **(
            {"probe_latencies": list(summary.probe_latencies)}
            if summary.probe_latencies is not None
            else {}
        ),
    }


def summary_from_json(data: dict) -> TrialSummary:
    return TrialSummary(
        victim=data["victim"],
        scheme=data["scheme"],
        secret=data["secret"],
        seed=data["seed"],
        cycles=data["cycles"],
        access_cycle={line: cycle for line, cycle in data["access_cycle"]},
        visible=tuple(
            VisibleAccess(
                cycle=cycle,
                line=line,
                kind=AccessKind(kind),
                core=core,
                hit=bool(hit),
            )
            for cycle, line, kind, core, hit in data["visible"]
        ),
        retired=data["retired"],
        line_a=data["line_a"],
        line_b=data["line_b"],
        metrics=data.get("metrics"),
        snapshot_path=data.get("snapshot_path"),
        probe_latencies=(
            tuple(data["probe_latencies"])
            if data.get("probe_latencies") is not None
            else None
        ),
    )


def outcome_to_json(outcome: TrialOutcome) -> dict:
    return {
        "v": JOURNAL_VERSION,
        "digest": outcome.digest,
        "victim": outcome.victim,
        "scheme": outcome.scheme,
        "secret": outcome.secret,
        "seed": outcome.seed,
        "status": outcome.status.value,
        "attempts": outcome.attempts,
        "summary": (
            summary_to_json(outcome.summary) if outcome.summary is not None else None
        ),
        "error_type": outcome.error_type,
        "error_message": outcome.error_message,
        "cycle": outcome.cycle,
    }


def outcome_from_json(data: dict) -> TrialOutcome:
    return TrialOutcome(
        digest=data["digest"],
        victim=data["victim"],
        scheme=data["scheme"],
        secret=data["secret"],
        seed=data["seed"],
        status=TrialStatus(data["status"]),
        attempts=data["attempts"],
        summary=(
            summary_from_json(data["summary"])
            if data.get("summary") is not None
            else None
        ),
        error_type=data.get("error_type"),
        error_message=data.get("error_message"),
        cycle=data.get("cycle"),
    )


class TrialJournal:
    """Digest-keyed, append-only JSONL record of finished trials.

    ``fsync=True`` trades throughput for crash *durability*: each
    append is flushed to stable storage before :meth:`record` returns,
    so even a power cut cannot lose an acknowledged record.  The
    default (off) is still crash *consistent* — a torn final line from
    a dying process is skipped on load and that one trial re-runs — it
    just allows the page cache to hold recent records.  Keep it off
    for benchmarks (an fsync per trial can dominate short-trial
    sweeps); turn it on for the supervised service tier, where an
    acknowledged trial must survive host failure.
    """

    def __init__(self, path, *, fsync: bool = False) -> None:
        self.path = os.fspath(path)
        self.fsync = fsync
        #: Appends :meth:`try_record` lost to an I/O error.
        self.record_errors = 0
        # The index: every outcome decoded so far, the byte offset the
        # reads reached, and the (device, inode) of the file they read.
        self._records: Dict[str, TrialOutcome] = {}
        self._offset = 0
        self._file: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    def record(self, outcome: TrialOutcome) -> None:
        """Append one outcome with :func:`append_record`: a single
        ``O_APPEND`` write, so records from concurrent workers never
        interleave mid-line.  The next :meth:`load` indexes it."""
        append_record(
            self.path,
            outcome_to_json(outcome),
            op=faults.OP_JOURNAL_APPEND,
            fsync=self.fsync,
        )

    def should_record(self, outcome: TrialOutcome) -> bool:
        return outcome.status in JOURNALED_STATUSES

    def try_record(self, outcome: TrialOutcome) -> None:
        """:meth:`record` a deterministic outcome, best-effort.  An I/O
        failure (full disk, EIO) is counted in :attr:`record_errors` and
        logged once per journal, never raised: the sweep keeps the
        outcome, and a resume re-runs the trial the journal missed."""
        if not self.should_record(outcome):
            return
        try:
            self.record(outcome)
        except OSError as exc:
            self.record_errors += 1
            if self.record_errors == 1:
                logger.warning(
                    "journal append to %s failed (suppressing further "
                    "append-failure logs for this journal): %s",
                    self.path,
                    exc,
                )

    # ------------------------------------------------------------------
    def load(self) -> Dict[str, TrialOutcome]:
        """All journaled outcomes by digest (a copy of the index).

        Reads only the bytes past the previous load and decodes each new
        complete record once; the last record for a digest wins.
        Corrupt lines are skipped (a torn final write just means that
        trial re-runs), and an unterminated final line waits until a
        later append terminates it.  A missing file, a file shorter
        than the offset, or a replaced one (a new inode) resets the
        index, so the next read starts again from byte 0.
        """
        try:
            stat = os.stat(self.path)
        except FileNotFoundError:
            self._records, self._offset, self._file = {}, 0, None
            return {}
        ident = (stat.st_dev, stat.st_ino)
        if ident != self._file or stat.st_size < self._offset:
            self._records, self._offset, self._file = {}, 0, ident
        if stat.st_size > self._offset:
            records, self._offset = read_records(self.path, self._offset)
            for data in records:
                try:
                    outcome = outcome_from_json(data)
                except (ValueError, KeyError, TypeError):
                    continue  # corrupt record: re-run that trial
                self._records[outcome.digest] = outcome
        return dict(self._records)

    def __len__(self) -> int:
        return len(self.load())

    def __contains__(self, digest: str) -> bool:
        return digest in self.load()
