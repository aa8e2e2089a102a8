"""Relabel groups: run one trial per group of inert-seed variants.

A relabel group is a set of :class:`~repro.runner.spec.TrialSpec`s
that differ only in ``seed``, where the seed is inert
(:func:`repro.runner.spec.stream_dependent` is false: no DRAM jitter,
no noise injection).  The per-trial seed then feeds only RNGs that are
never drawn during the run (the attacker agent's shuffle RNG and the
DRAM jitter RNG), so every member of the group simulates the exact same
machine.  The group's first spec runs through the cold path's
:func:`~repro.runner.runner.run_trial_spec`, and every member gets that
summary relabeled with its own seed — no further simulation at all.
``tests/snapshot/test_differential.py`` asserts the result: relabeled
outcomes are bit-identical to cold runs for every scheme.

The module keeps its historical name (and the runner's ``fork=`` flag
its name) because external tooling wraps :func:`plan_fork_groups` and
:func:`run_fork_group` by name.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runner.spec import (
    TrialOutcome,
    TrialSpec,
    TrialStatus,
    stream_dependent,
)

#: Minimum group size worth planning (a singleton gains nothing).
MIN_GROUP = 2


def group_key(spec: TrialSpec) -> str:
    """Digest of the spec with the seed normalized out."""
    return replace(spec, seed=0).digest()


def plan_fork_groups(
    specs: Sequence[TrialSpec],
) -> Tuple[List[List[int]], List[int]]:
    """Partition spec indices into relabel groups and a cold remainder.

    Returns ``(groups, passthrough)``: each group is a list of indices
    (in spec order) whose specs differ only in an inert seed;
    ``passthrough`` indices run on the cold path.  Stream-dependent
    specs (their seed is live), sanitized specs (the sanitizer must
    watch every run) and specs with a ``snapshot_dir`` (each must save
    its own snapshot file) are never grouped, nor are singletons.
    """
    buckets: Dict[str, List[int]] = {}
    passthrough: List[int] = []
    for i, spec in enumerate(specs):
        if spec.sanitize or spec.snapshot_dir is not None or stream_dependent(spec):
            passthrough.append(i)
            continue
        buckets.setdefault(group_key(spec), []).append(i)
    groups: List[List[int]] = []
    for indices in buckets.values():
        if len(indices) >= MIN_GROUP:
            groups.append(indices)
        else:
            passthrough.extend(indices)
    passthrough.sort()
    return groups, passthrough


def run_fork_group(specs: Sequence[TrialSpec]) -> Optional[List[TrialOutcome]]:
    """Run one relabel group; outcomes align with ``specs``.

    Returns ``None`` when the group's trial raises — the caller re-runs
    the whole group on the cold path, whose fault isolation reproduces
    the failure as a structured outcome for every member.
    """
    from repro.runner.runner import run_trial_spec

    try:
        summary = run_trial_spec(specs[0])
    except KeyboardInterrupt:
        raise
    except Exception:
        return None
    return [
        TrialOutcome(
            digest=spec.digest(),
            victim=spec.victim,
            scheme=spec.scheme,
            secret=spec.secret,
            seed=spec.seed,
            status=TrialStatus.OK,
            attempts=1,
            summary=replace(summary, seed=spec.seed),
        )
        for spec in specs
    ]
