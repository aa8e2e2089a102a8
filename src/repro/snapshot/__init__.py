"""Snapshot/fork simulation engine.

Three pieces built on the per-component ``capture()``/``restore()``
protocol (Machine, Core, ROB, reservation station, execution units,
CDB, LSU, caches, MSHRs, coherence directory, main memory, schemes,
predictors — all flat typed tuples, no ``copy.deepcopy``):

* :mod:`repro.snapshot.schema` — state-schema hash versioning every
  persisted artifact derived from simulator state;
* :mod:`repro.snapshot.fork` — fork-point finder + group executor: one
  probe per sweep group, shared-prefix simulation, N forked variants
  bit-identical to cold starts;
* :mod:`repro.snapshot.handle` — portable end-of-trial snapshot
  save/rehydrate for post-hoc state inspection.
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
