"""Snapshot handle round trip: write a handle, then replay it.

A handle is a replay recipe with a fingerprint of the final state, so
the round trip is exact only if replaying the spec through the cold
path reproduces the trial that wrote it — under every scheme, with
DRAM jitter, reference and probe accesses, noise and metrics
collection.  A handle whose fingerprint or spec does not match refuses
to replay.
"""

import json

import pytest

from repro.core.victims import ADDR_REF, victim_by_name
from repro.memory.hierarchy import HierarchyConfig
from repro.runner import TrialSpec, run_trial_spec
from repro.schemes.registry import SCHEME_FACTORIES
from repro.snapshot import (
    SnapshotSchemaError,
    load_snapshot,
    rehydrate_trial,
)
from repro.workloads import probe_addresses

ALL_SCHEMES = sorted(SCHEME_FACTORIES)

CASES = {
    "plain": {},
    "jitter": {"hierarchy_config": HierarchyConfig(dram_jitter=5), "seed": 3},
    "ref-probe": {
        "reference_accesses": ((ADDR_REF, 60),),
        "probe_accesses": probe_addresses(victim_by_name("gdnpeu")),
    },
    "noise-metrics": {
        "noise_rate": 0.3,
        "noise_pool": (ADDR_REF + 4096, ADDR_REF + 4096 + 64),
        "collect_metrics": True,
    },
}


def _summary(tmp_path, scheme="dom-nontso", **kw):
    spec = TrialSpec(
        victim="gdnpeu", scheme=scheme, secret=1, snapshot_dir=str(tmp_path), **kw
    )
    return spec, run_trial_spec(spec)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_replay_reproduces_handle(tmp_path, scheme, case):
    """Replaying the spec reaches the handle's fingerprint (else
    rehydrate_trial raises) and the summary's cycles and retired
    count."""
    spec, summary = _summary(tmp_path, scheme, **CASES[case])
    handle = load_snapshot(summary.snapshot_path)
    assert handle["digest"] == spec.digest()
    setup = rehydrate_trial(spec, summary.snapshot_path)
    assert setup.machine.cycle == summary.cycles
    assert setup.core.stats.retired == summary.retired
    assert setup.core.halted


def test_edited_fingerprint_refuses_replay(tmp_path):
    spec, summary = _summary(tmp_path)
    with open(summary.snapshot_path) as fh:
        handle = json.load(fh)
    handle["fingerprint"]["cycle"] += 1
    with open(summary.snapshot_path, "w") as fh:
        json.dump(handle, fh)
    with pytest.raises(SnapshotSchemaError, match="does not reach"):
        rehydrate_trial(spec, summary.snapshot_path)


def test_other_specs_handle_refuses_replay(tmp_path):
    spec, _ = _summary(tmp_path, seed=0)
    _, other = _summary(tmp_path, seed=1)
    with pytest.raises(SnapshotSchemaError, match="records spec"):
        rehydrate_trial(spec, other.snapshot_path)


def test_version_one_pickle_handle_is_unreadable(tmp_path):
    """Handles of the old format (a pickled machine capture) raise
    instead of being replayed."""
    import pickle

    path = tmp_path / "old.snap"
    path.write_bytes(pickle.dumps({"version": 1, "state": ()}))
    with pytest.raises(SnapshotSchemaError, match="unreadable"):
        load_snapshot(str(path))
