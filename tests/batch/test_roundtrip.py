"""BatchState round-trip properties.

The Snapshot protocol's flat ``capture()`` tuples are the SoA layout
spec: ``BatchState.from_snapshot(hierarchy, snap, n)`` followed by
``.to_snapshot(lane)`` must be the identity on every component schema
(caches under all six replacement policies, main memory, MSHRs,
coherence directory on and off, sliced LLCs), from any mid-run state.
"""

import pytest

pytest.importorskip("numpy")

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchSchemaError, BatchState
from repro.batch.state import POLICY_FIELDS
from repro.batch.ops import cache_access, cache_fill
from repro.core.harness import begin_victim_trial
from repro.core.victims import victim_by_name
from repro.memory.hierarchy import HierarchyConfig, LevelConfig
from repro.memory.replacement import POLICY_NAMES
from repro.schemes.registry import SCHEME_FACTORIES

ALL_SCHEMES = sorted(SCHEME_FACTORIES)


def _mid_run_hierarchy(scheme, cycles, secret=1, config=None):
    """A hierarchy paused mid-trial: organically populated caches,
    in-flight MSHRs, a non-trivial coherence directory."""
    victim = victim_by_name("gdnpeu")
    setup = begin_victim_trial(
        victim, scheme, secret, hierarchy_config=config
    )
    machine, core = setup.machine, setup.core
    while machine.cycle < cycles and not core.halted:
        machine.step()
    return machine.hierarchy


@settings(max_examples=20, deadline=None)
@given(
    scheme=st.sampled_from(ALL_SCHEMES),
    cycles=st.integers(min_value=0, max_value=250),
    lanes=st.integers(min_value=1, max_value=4),
    secret=st.sampled_from((0, 1)),
)
def test_from_snapshots_to_snapshot_identity(scheme, cycles, lanes, secret):
    """Property: every lane of a freshly loaded BatchState re-captures
    the exact snapshot tuple it was loaded from."""
    hierarchy = _mid_run_hierarchy(scheme, cycles, secret=secret)
    snap = hierarchy.capture()
    state = BatchState.from_snapshot(hierarchy, snap, lanes)
    for lane in range(lanes):
        assert state.to_snapshot(lane) == snap


@settings(max_examples=12, deadline=None)
@given(
    l1_policy=st.sampled_from(POLICY_NAMES),
    llc_policy=st.sampled_from(POLICY_NAMES),
    coherence=st.booleans(),
    slices=st.sampled_from((1, 2, 4)),
    cycles=st.integers(min_value=50, max_value=250),
)
def test_identity_across_policies_and_coherence(
    l1_policy, llc_policy, coherence, slices, cycles
):
    """Property: the identity holds for every replacement policy's
    metadata schema, with and without coherence, across LLC slicing."""
    config = HierarchyConfig(
        l1d=LevelConfig(16, 4, latency=3, policy=l1_policy),
        l2=LevelConfig(64, 4, latency=12, policy=l1_policy),
        llc=LevelConfig(
            64, 8, latency=40, policy=llc_policy, num_slices=slices
        ),
        enable_coherence=coherence,
    )
    hierarchy = _mid_run_hierarchy("unsafe", cycles, config=config)
    snap = hierarchy.capture()
    state = BatchState.from_snapshot(hierarchy, snap, 2)
    assert state.to_snapshot(0) == snap
    assert state.to_snapshot(1) == snap


def test_lanes_are_independent():
    """Mutating one lane's arrays must leave its sibling untouched —
    the soundness of divergence-ejection rests on this isolation."""
    hierarchy = _mid_run_hierarchy("dom-nontso", 150)
    snap = hierarchy.capture()
    state = BatchState.from_snapshot(hierarchy, snap, 2)
    llc = state.caches[-1]  # all_caches() order: the LLC is last
    lane0 = np.array([0], dtype=np.int64)
    line = 0x7F00_0000  # definitely absent: forces a miss then a fill
    assert not cache_access(llc, lane0, line, True, None).any()
    cache_fill(llc, lane0, line, True, None)
    assert state.to_snapshot(1) == snap
    assert state.to_snapshot(0) != snap


def test_every_lane_owns_its_rows():
    """One capture is copied into every lane: no array may be a
    broadcast view whose lanes share memory."""
    hierarchy = _mid_run_hierarchy("unsafe", 120)
    state = BatchState.from_snapshot(hierarchy, hierarchy.capture(), 3)
    for cache in state.caches:
        arrays = [cache.lines, cache.stats] + [
            getattr(cache, attr) for _, attr in POLICY_FIELDS[cache.policy]
        ]
        for array in arrays:
            assert array.flags.owndata and 0 not in array.strides
            assert not np.shares_memory(array[0], array[1])
    assert state.mem_data[0] is not state.mem_data[1]
    assert state.visible_log[0] is not state.visible_log[1]
    assert state.policy_rng[0] is not state.policy_rng[1]


def _with_first_cache(snap, sets_state):
    caches, *rest = snap
    _, stats = caches[0]
    return ((sets_state, stats),) + tuple(caches[1:]), *rest


def test_set_count_mismatch_raises():
    hierarchy = _mid_run_hierarchy("unsafe", 50)
    snap = hierarchy.capture()
    sets_state = snap[0][0][0]
    bad = _with_first_cache(snap, sets_state[:-1])
    with pytest.raises(BatchSchemaError, match="sets, geometry says"):
        BatchState.from_snapshot(hierarchy, bad, 2)


def test_policy_field_mismatch_raises():
    hierarchy = _mid_run_hierarchy("unsafe", 50)
    snap = hierarchy.capture()
    sets_state = list(snap[0][0][0])
    lines, policy_state = sets_state[-1]
    sets_state[-1] = (lines, policy_state + (("_extra", 0),))
    bad = _with_first_cache(snap, tuple(sets_state))
    with pytest.raises(BatchSchemaError, match="policy snapshot fields"):
        BatchState.from_snapshot(hierarchy, bad, 2)


def test_restore_into_round_trips():
    """restore_into() writes a lane's state back into a live hierarchy
    so that a scalar re-capture reproduces the lane snapshot."""
    hierarchy = _mid_run_hierarchy("muontrap", 120)
    snap = hierarchy.capture()
    state = BatchState.from_snapshot(hierarchy, snap, 1)
    state.restore_into(hierarchy, 0)
    assert hierarchy.capture() == snap
