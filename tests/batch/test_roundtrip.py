"""Lane hierarchies restore exactly.

A batch lane is a fresh ``CacheHierarchy`` restored from the leader's
``capture()``.  Restore followed by capture must be the identity on
every component schema (caches under all six replacement policies,
main memory, MSHRs, coherence directory on and off, sliced LLCs), from
any mid-run state, and lanes restored from one capture must share no
mutable state.
"""

from collections import deque
from enum import Enum

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.harness import begin_victim_trial
from repro.core.victims import victim_by_name
from repro.memory.hierarchy import CacheHierarchy, HierarchyConfig, LevelConfig
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


def _lane(hierarchy, snap):
    """A lane exactly as the batch engine builds one."""
    lane = CacheHierarchy(hierarchy.num_cores, hierarchy.config)
    lane.restore(snap)
    return lane


@settings(max_examples=20, deadline=None)
@given(
    scheme=st.sampled_from(ALL_SCHEMES),
    cycles=st.integers(min_value=0, max_value=250),
    lanes=st.integers(min_value=1, max_value=4),
    secret=st.sampled_from((0, 1)),
)
def test_from_snapshots_to_snapshot_identity(scheme, cycles, lanes, secret):
    """Property: every lane restored from a mid-run capture re-captures
    the exact tuple it was restored from."""
    hierarchy = _mid_run_hierarchy(scheme, cycles, secret=secret)
    snap = hierarchy.capture()
    for _ in range(lanes):
        assert _lane(hierarchy, snap).capture() == snap


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
    assert _lane(hierarchy, snap).capture() == snap
    assert _lane(hierarchy, snap).capture() == snap


def test_lanes_are_independent():
    """Filling one lane must leave its sibling untouched — the
    soundness of divergence-ejection rests on this isolation."""
    hierarchy = _mid_run_hierarchy("dom-nontso", 150)
    snap = hierarchy.capture()
    lane0, lane1 = _lane(hierarchy, snap), _lane(hierarchy, snap)
    line = 0x7F00_0000  # definitely absent: forces a miss then a fill
    assert not lane0.llc.access(line)
    lane0.llc.fill(line)
    assert lane1.capture() == snap
    assert lane0.capture() != snap


def _mutable_containers(root):
    """ids of every list, dict, set and deque reachable from ``root``
    through repro objects and containers."""
    found = set()
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, Enum):
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, dict, set, deque)):
            found.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            stack.extend(vars(obj).values() if hasattr(obj, "__dict__") else ())
            for slot in getattr(type(obj), "__slots__", ()):
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
    return found


def test_every_lane_owns_its_rows():
    """Two hierarchies restored from one capture share no list, dict or
    log: every mutable container is a lane's own."""
    hierarchy = _mid_run_hierarchy("unsafe", 120)
    snap = hierarchy.capture()
    a, b = _lane(hierarchy, snap), _lane(hierarchy, snap)
    assert a.visible_log is not b.visible_log
    assert a.memory._data is not b.memory._data
    assert a.policy_rng is not b.policy_rng
    shared = _mutable_containers(a) & _mutable_containers(b)
    assert not shared
    assert _mutable_containers(a) & _mutable_containers(hierarchy) == set()
