"""Trial snapshot handles and relabel groups.

* :mod:`repro.snapshot.handle` — a snapshot handle is a replay recipe:
  a small JSON file naming a finished trial's spec by digest and
  fingerprinting its final state.  :func:`rehydrate_trial` replays the
  spec and checks the fingerprint, for post-hoc state inspection.

:mod:`repro.snapshot.fork` is the sweep runner's ``fork=True`` layer
and needs no snapshot at all: it groups specs that differ only in an
inert seed, runs each group's first spec cold, and relabels that
summary for every member.
"""

from repro.snapshot.fork import group_key, plan_fork_groups, run_fork_group
from repro.snapshot.handle import (
    SnapshotSchemaError,
    load_snapshot,
    rehydrate_trial,
    save_trial_snapshot,
)

__all__ = [
    "plan_fork_groups",
    "run_fork_group",
    "group_key",
    "save_trial_snapshot",
    "load_snapshot",
    "rehydrate_trial",
    "SnapshotSchemaError",
]
