"""Snapshot handles: a replay recipe for one finished trial.

A trial is a pure function of its :class:`~repro.runner.spec.TrialSpec`,
so a handle stores no machine state.  It is a small JSON file,
``<digest>.snap``, holding the handle version, the spec digest, and a
fingerprint of the trial's final state: the machine cycle; each core's
halted flag, retired count and registers; and a hash of the memory
hierarchy's capture.  The handle does not name the build that wrote
it: the replay check refuses any handle this build cannot reproduce.

Sweeps ship the handle's *path* in the summary (lean transport).
:func:`rehydrate_trial` replays the spec through the cold path's own
code and checks the replay against the fingerprint, so an analysis
process gets the trial's final machine back, live, for post-hoc
inspection of its microarchitectural state.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict

HANDLE_VERSION = 2


class SnapshotSchemaError(RuntimeError):
    """The handle cannot be replayed by this build: it is unreadable or
    of an old format, names another spec, or its replay does not reach
    the recorded state."""


def state_fingerprint(machine) -> Dict[str, Any]:
    """JSON-ready fingerprint of ``machine``'s current state."""
    hierarchy = repr(machine.hierarchy.capture()).encode()
    return {
        "cycle": machine.cycle,
        "cores": [
            {
                "core": core_id,
                "halted": core.halted,
                "retired": core.stats.retired,
                "registers": dict(core.regfile),
            }
            for core_id, core in sorted(machine.cores.items())
        ],
        "hierarchy": hashlib.sha256(hierarchy).hexdigest(),
    }


def save_trial_snapshot(machine, spec, snapshot_dir: str) -> str:
    """Write the handle of a finished trial under its spec digest
    (atomically); returns the handle path, which
    :attr:`TrialSummary.snapshot_path` carries."""
    digest = spec.digest()
    handle = {
        "version": HANDLE_VERSION,
        "digest": digest,
        "fingerprint": state_fingerprint(machine),
    }
    directory = os.fspath(snapshot_dir)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, digest + ".snap")
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".snap")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(handle, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_snapshot(path: str) -> Dict[str, Any]:
    """Read a handle and return it as a dict.

    Raises :class:`SnapshotSchemaError` when the file is not a handle of
    this format (a version-1 pickle, say).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            handle = json.load(fh)
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise SnapshotSchemaError(f"snapshot {path} is unreadable: {exc}") from exc
    if not isinstance(handle, dict) or handle.get("version") != HANDLE_VERSION:
        raise SnapshotSchemaError(
            f"snapshot {path} is not a version-{HANDLE_VERSION} handle"
        )
    return handle


def rehydrate_trial(spec, path: str):
    """Replay ``spec`` to the final state its handle at ``path`` records.

    Returns the replayed :class:`~repro.core.harness.TrialSetup`: the
    trial is built and run by the cold path's own code, probe phase
    included.  Raises :class:`SnapshotSchemaError` unless the handle
    names this spec and the replay reaches its fingerprint.
    """
    from repro.core.harness import finish_victim_trial
    from repro.runner.runner import begin_trial_spec, run_spec_probe_phase

    handle = load_snapshot(path)
    if handle.get("digest") != spec.digest():
        raise SnapshotSchemaError(
            f"snapshot {path} records spec {handle.get('digest')!r}, "
            f"not {spec.digest()!r}"
        )
    setup = begin_trial_spec(spec)
    finish_victim_trial(setup)
    run_spec_probe_phase(spec, setup.machine)
    if state_fingerprint(setup.machine) != handle.get("fingerprint"):
        raise SnapshotSchemaError(
            f"replaying {spec.label()} does not reach the state "
            f"recorded in {path}"
        )
    return setup
