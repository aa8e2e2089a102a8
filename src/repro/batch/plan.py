"""Batch-group planning: which specs can run lanes-in-lockstep.

A batch group is a set of :class:`~repro.runner.spec.TrialSpec`s that
differ only in ``secret``, ``seed``, and ``reference_accesses`` — the
attacker's fixed-cycle "clock" reads of §3.3.  Reference-access sweeps
are exactly the dimension relabeling cannot merge (a relabel group
spans only inert seeds), and exactly what the lockstep engine
simulates as lanes.

Since the counter-based RNG streams landed (:mod:`repro.memory.stream`),
DRAM jitter, noise injection, and metrics collection all batch: jitter
draws are keyed ``(seed, cycle, core, seq)`` so each lane hierarchy
draws its own, the noise schedule is a pure function of
``(seed, cycle)``, and a lane's metrics read its own cache and DRAM
counters.  What still cannot batch: sanitizer hooks (per-cycle machine
instrumentation the mirror cannot replay), snapshot collection (needs
the variant's own Machine), and — checked by the runner — active fault
plans.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runner.spec import TrialSpec, stream_dependent

#: Minimum lanes (distinct reference schedules) worth a mirror: with
#: one schedule the mirror has no follower lanes, and the relabel layer
#: makes the same one run per secret without the mirror's cost.
MIN_LANES = 2

#: Bypass-reason keys surfaced as ``sweep.batch.bypass.*`` counters.
BYPASS_SANITIZE = "sanitize"
BYPASS_SNAPSHOT = "snapshot"
BYPASS_MIN_LANES = "min_lanes"
BYPASS_FAULTS = "faults"


def batch_bypass_reason(spec: TrialSpec) -> Optional[str]:
    """Why this spec cannot batch, or None when it is eligible."""
    if spec.sanitize:
        return BYPASS_SANITIZE
    if spec.snapshot_dir is not None:
        return BYPASS_SNAPSHOT
    return None


def batch_eligible(spec: TrialSpec) -> bool:
    """True when the lockstep mirror can soundly simulate this spec."""
    return batch_bypass_reason(spec) is None


def group_key(spec: TrialSpec) -> str:
    """Digest with the batchable dimensions normalized out.

    Seed is normalized even for stream-dependent specs: noise and
    jitter parameters stay in the key, and the engine re-partitions a
    stream-dependent group into per-``(secret, seed)`` cohorts.
    """
    return (
        "batch:"
        + replace(spec, secret=0, seed=0, reference_accesses=()).digest()
    )


def plan_batch_groups_report(
    specs: Sequence[TrialSpec],
) -> Tuple[List[List[int]], List[int], Dict[str, int]]:
    """Partition spec indices into batch groups, a passthrough rest,
    and per-reason bypass counts.

    Each group is a list of indices (in spec order) whose specs differ
    only in secret / seed / reference schedule, with at least
    :data:`MIN_LANES` distinct schedules (for stream-dependent groups:
    within at least one ``(secret, seed)`` cohort, since seeds cannot
    share lanes there); everything else flows to the relabel/cold layers,
    with the reason tallied in the returned mapping.
    """
    buckets: Dict[str, List[int]] = {}
    passthrough: List[int] = []
    bypassed: Dict[str, int] = {}
    for i, spec in enumerate(specs):
        reason = batch_bypass_reason(spec)
        if reason is not None:
            bypassed[reason] = bypassed.get(reason, 0) + 1
            passthrough.append(i)
            continue
        buckets.setdefault(group_key(spec), []).append(i)
    groups: List[List[int]] = []
    for indices in buckets.values():
        if _worth_mirroring(specs, indices):
            groups.append(indices)
        else:
            bypassed[BYPASS_MIN_LANES] = bypassed.get(BYPASS_MIN_LANES, 0) + len(
                indices
            )
            passthrough.extend(indices)
    passthrough.sort()
    return groups, passthrough, bypassed


def _worth_mirroring(specs: Sequence[TrialSpec], indices: List[int]) -> bool:
    if len(indices) < MIN_LANES:
        return False
    if stream_dependent(specs[indices[0]]):
        # Lanes can only share a cohort when they share the seed, so
        # demand enough distinct schedules inside one (secret, seed).
        cohorts: Dict[Tuple[int, int], set] = {}
        for i in indices:
            spec = specs[i]
            cohorts.setdefault((spec.secret, spec.seed), set()).add(
                tuple(spec.reference_accesses)
            )
        return max(len(s) for s in cohorts.values()) >= MIN_LANES
    schedules = {tuple(specs[i].reference_accesses) for i in indices}
    return len(schedules) >= MIN_LANES


def plan_batch_groups(
    specs: Sequence[TrialSpec],
) -> Tuple[List[List[int]], List[int]]:
    """:func:`plan_batch_groups_report` without the bypass tally."""
    groups, passthrough, _ = plan_batch_groups_report(specs)
    return groups, passthrough
