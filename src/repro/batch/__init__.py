"""Batched lockstep sweep execution (``repro.batch``).

Simulates all reference-schedule variants of a sweep group in lockstep:
one scalar leader machine per secret cohort, with every variant's
memory system a real :class:`~repro.memory.hierarchy.CacheHierarchy`
lane, replayed call by call from the leader's observed operations.  See
:mod:`repro.batch.engine` for the soundness story (per-call comparison
+ divergence ejection) and ``docs/API.md`` for usage.
"""

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

__all__ = [
    "BatchGroupReport",
    "BatchMirrorError",
    "CohortRun",
    "LockstepMirror",
    "MIN_LANES",
    "batch_bypass_reason",
    "batch_eligible",
    "group_key",
    "plan_batch_groups",
    "plan_batch_groups_report",
    "run_batch_group_detailed",
]
