"""Batched structure-of-arrays sweep execution (``repro.batch``).

Simulates all reference-schedule variants of a sweep group in lockstep:
one scalar leader machine per secret cohort, with every other variant's
memory-system state mirrored as numpy structure-of-arrays and stepped by
the leader's observed operations.  See :mod:`repro.batch.engine` for the
soundness story (per-op comparison + divergence ejection) and
``docs/API.md`` for usage.

numpy is an optional extra (``pip install repro[batch]``); without it
:func:`plan_batch_groups` plans nothing and sweeps fall through to the
relabel/cold layers.
"""

from repro.batch._numpy import HAVE_NUMPY, require_numpy
from repro.batch.engine import (
    BatchGroupReport,
    BatchMirrorError,
    CohortRun,
    LockstepMirror,
    run_batch_group_detailed,
)
from repro.batch.plan import (
    MIN_LANES,
    batch_bypass_reason,
    batch_eligible,
    group_key,
    plan_batch_groups,
    plan_batch_groups_report,
)
from repro.batch.state import BatchSchemaError, BatchState, LaneCache

__all__ = [
    "BatchGroupReport",
    "BatchMirrorError",
    "BatchSchemaError",
    "BatchState",
    "CohortRun",
    "HAVE_NUMPY",
    "LaneCache",
    "LockstepMirror",
    "MIN_LANES",
    "batch_bypass_reason",
    "batch_eligible",
    "group_key",
    "plan_batch_groups",
    "plan_batch_groups_report",
    "require_numpy",
    "run_batch_group_detailed",
]
