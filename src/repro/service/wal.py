"""Append-only JSONL write-ahead-log helpers for the service tier.

The append and the scan are the trial journal's own:
:func:`append_record` and :func:`read_records` are imported from
:mod:`repro.runner.journal` (the service imports the runner, never the
reverse).  Every record is written with a single ``O_APPEND`` write as
``"\\n" + json + "\\n"``.  The leading newline is a record separator,
not formatting — if a previous writer died mid-record, its torn prefix
sits on the line *before* the separator, so the next record still
starts on a fresh line and replay loses only the torn record, never the
one appended after it.  Blank lines are skipped on read.

:func:`read_records` supports incremental tailing: pass the offset a
previous call returned and only complete (newline-terminated) records
past it are parsed; a partial final line is left unconsumed for the
next call.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, Optional

from repro.runner.journal import append_record, read_records

__all__ = [
    "append_record",
    "atomic_write_json",
    "json_line",
    "load_json",
    "read_records",
    "replay",
]


def json_line(record: Dict[str, Any]) -> str:
    """One canonical JSONL line (compact, sorted keys, newline-terminated)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def replay(path: str) -> Iterator[Dict[str, Any]]:
    """All complete records in ``path`` (order preserved)."""
    records, _ = read_records(path, 0)
    return iter(records)


def atomic_write_json(path: str, payload: Any, *, durable: bool = True) -> None:
    """Publish a whole JSON document atomically (temp + rename), with
    fsync-before-rename by default — the reader either sees the old
    file, nothing, or the complete new document, even across a crash."""
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    tmp = path + ".tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, data)
        if durable:
            os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)


def load_json(path: str) -> Optional[Any]:
    """The parsed document, or None if absent or torn."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (FileNotFoundError, ValueError, OSError):
        return None
