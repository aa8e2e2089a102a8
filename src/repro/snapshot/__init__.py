"""Machine snapshots: capture, persist, rehydrate — plus relabel groups.

Built on the per-component ``capture()``/``restore()`` protocol
(Machine, Core, ROB, reservation station, execution units, CDB, LSU,
caches, MSHRs, coherence directory, main memory, schemes, predictors —
all flat typed tuples, no ``copy.deepcopy``):

* :mod:`repro.snapshot.schema` — state-schema hash versioning every
  persisted artifact derived from simulator state;
* :mod:`repro.snapshot.handle` — portable end-of-trial snapshot
  save/rehydrate for post-hoc state inspection.

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
    save_snapshot,
    save_trial_snapshot,
)
from repro.snapshot.schema import schema_components, state_schema_hash

__all__ = [
    "state_schema_hash",
    "schema_components",
    "plan_fork_groups",
    "run_fork_group",
    "group_key",
    "save_snapshot",
    "save_trial_snapshot",
    "load_snapshot",
    "rehydrate_trial",
    "SnapshotSchemaError",
]
