"""The ROB's safety frontier checked against the prefix definition.

``reference_safety_flags`` is the prefix definition of the flags, a
loop over every entry, kept as the reference.  A bare ``ROB`` is
driven through random steps (hypothesis), and the frontier,
the three in-order indices and the index-backed queries are checked
against it after every step.  A second check wraps ``ROB.safety_flags``
and compares the two on every cycle of the paper's backward victims
under every scheme and of the Fig. 12 kernels.
"""

from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiments import run_workload
from repro.core.harness import run_victim_trial
from repro.core.victims import victim_by_name
from repro.isa import instructions as ins
from repro.pipeline.dyninstr import DynInstr, Phase
from repro.pipeline.rob import _FLAGS_CACHE, ROB, SafetyFlags
from repro.schemes.registry import SCHEME_FACTORIES
from repro.workloads.synthetic import synthetic_suite

#: The seven backward (§3) victims; with the 16 schemes they are the
#: 112 cells of the three-way matrix.
BACKWARD_VICTIMS = (
    "gdnpeu",
    "gdmshr",
    "girs",
    "gdnpeu-arith",
    "gdnpeu-architectural",
    "gdnpeu-store",
    "gdnpeu-occupancy",
)
FIG12_SCHEMES = ("unsafe", "fence-spectre", "fence-futuristic")


def reference_safety_flags(rob: ROB) -> Dict[int, SafetyFlags]:
    """Prefix safety predicates for every current entry, by seq."""
    flags: Dict[int, SafetyFlags] = {}
    branches_resolved = True
    stores_addr_resolved = True
    mem_addr_resolved = True
    loads_completed = True
    all_completed = True
    first = True
    for entry in rob:
        flags[entry.seq] = _FLAGS_CACHE[
            (
                branches_resolved,
                stores_addr_resolved,
                mem_addr_resolved,
                loads_completed,
                all_completed,
                first,
            )
        ]
        first = False
        if entry.is_unresolved_branch:
            branches_resolved = False
        if (entry.is_load or entry.is_store) and entry.addr is None:
            mem_addr_resolved = False
            if entry.is_store:
                stores_addr_resolved = False
        if entry.is_load and entry.phase is not Phase.COMPLETED:
            loads_completed = False
        if entry.phase is not Phase.COMPLETED:
            all_completed = False
    return flags


def _ids(instrs):
    return [id(i) for i in instrs]


def assert_matches_reference(rob: ROB) -> None:
    entries = list(rob)
    assert _ids(rob.loads) == _ids(e for e in entries if e.is_load)
    assert _ids(rob.stores) == _ids(e for e in entries if e.is_store)
    assert _ids(rob.branches) == _ids(
        e for e in entries if e.is_branch and not e.static.unconditional
    )

    frontier = rob.safety_flags()
    for seq, flags in reference_safety_flags(rob).items():
        assert frontier.get(seq) is flags, seq
        assert frontier[seq] is flags, seq
    if entries:
        outside = (0, entries[0].seq - 1, entries[-1].seq + 1, entries[-1].seq + 99)
    else:
        outside = (0, 1, 2, 99)
    for seq in outside:
        assert frontier.get(seq) is None, seq
        with pytest.raises(KeyError):
            frontier[seq]

    assert rob.oldest_unresolved_branch() is next(
        (e for e in entries if e.is_unresolved_branch), None
    )
    probes = {e.seq for e in entries} | {entries[-1].seq + 1 if entries else 1}
    for seq in probes:
        assert _ids(rob.older_stores(seq)) == _ids(
            e for e in entries if e.is_store and e.seq < seq
        )


KINDS = {
    "alu": lambda: ins.imm("r", 0),
    "load": lambda: ins.load("a", (), lambda: 0),
    "store": lambda: ins.store(("a",), lambda v: v, "b"),
    "branch": lambda: ins.branch(("a",), lambda v: v, "x"),
    "jump": lambda: ins.branch((), lambda: True, "x", unconditional=True),
}

STEPS = st.one_of(
    # seq gaps stand in for fetched-then-squashed instructions
    st.tuples(st.just("push"), st.sampled_from(sorted(KINDS)), st.integers(1, 3)),
    st.tuples(
        st.sampled_from(
            ["complete", "issue", "resolve_addr", "resolve_branch", "squash"]
        ),
        st.integers(0, 1_000),
    ),
    st.tuples(st.just("pop_head")),
    st.tuples(st.just("restore"), st.booleans()),
)


def _apply(rob: ROB, step, next_seq: int):
    op = step[0]
    entries = list(rob)
    if op == "push":
        if not rob.full:
            next_seq += step[2]
            static = KINDS[step[1]]()
            rob.push(DynInstr(seq=next_seq, slot=0, static=static, pc_addr=0))
    elif op == "pop_head":
        if entries:
            rob.pop_head()
    elif op == "restore":
        # fresh=True restores into a new ROB, else in place.
        target = ROB(rob.size) if step[1] else rob
        table = {e.seq: e for e in entries}
        target.restore(rob.capture(), table.__getitem__)
        rob = target
    elif entries:
        pick = step[1]
        if op == "complete":
            entries[pick % len(entries)].phase = Phase.COMPLETED
        elif op == "issue":
            entries[pick % len(entries)].phase = Phase.ISSUED
        elif op == "resolve_addr":
            mem = [e for e in entries if e.is_load or e.is_store]
            if mem:
                mem[pick % len(mem)].addr = 0x40 * pick
        elif op == "resolve_branch":
            branches = [e for e in entries if e.is_branch]
            if branches:
                branches[pick % len(branches)].resolved = True
        elif op == "squash":
            # Squash behind an entry, or just below it (a gap seq).
            rob.squash_younger_than(entries[pick % len(entries)].seq - pick % 2)
    return rob, next_seq


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(STEPS, max_size=80))
def test_frontier_and_indices_follow_random_steps(steps):
    rob = ROB(12)
    next_seq = 0
    assert_matches_reference(rob)
    for step in steps:
        rob, next_seq = _apply(rob, step, next_seq)
        assert_matches_reference(rob)


def test_frontier_is_a_start_of_cycle_value():
    rob = ROB(8)
    load = DynInstr(seq=1, slot=0, static=KINDS["load"](), pc_addr=0)
    younger = DynInstr(seq=2, slot=0, static=KINDS["alu"](), pc_addr=0)
    rob.push(load)
    rob.push(younger)
    frontier = rob.safety_flags()
    load.phase = Phase.COMPLETED
    rob.pop_head()
    assert not frontier[2].older_loads_completed
    assert frontier[1].is_oldest
    assert rob.safety_flags()[2].older_loads_completed
    assert rob.safety_flags().get(1) is None


# ----------------------------------------------------------------------
# every cycle of real runs
# ----------------------------------------------------------------------
@pytest.fixture
def checked_frontier(monkeypatch):
    """Wrap ``ROB.safety_flags`` to compare each frontier it returns
    with the reference; returns a one-item list counting them."""
    real = ROB.safety_flags
    checked = [0]

    def safety_flags(rob):
        frontier = real(rob)
        for seq, flags in reference_safety_flags(rob).items():
            if frontier.get(seq) is not flags:
                raise AssertionError(
                    f"frontier {frontier} gives {frontier.get(seq)} for "
                    f"#{seq}, the prefix definition {flags}"
                )
        checked[0] += 1
        return frontier

    monkeypatch.setattr(ROB, "safety_flags", safety_flags)
    return checked


@pytest.mark.parametrize("scheme", sorted(SCHEME_FACTORIES))
def test_frontier_matches_reference_every_cycle_of_backward_victims(
    scheme, checked_frontier
):
    for victim in BACKWARD_VICTIMS:
        for secret in (0, 1):
            run_victim_trial(victim_by_name(victim), scheme, secret)
    assert checked_frontier[0] > 0


@pytest.mark.parametrize("scheme", FIG12_SCHEMES)
def test_frontier_matches_reference_every_cycle_of_fig12_kernels(
    scheme, checked_frontier
):
    for workload in synthetic_suite():
        assert run_workload(workload, scheme).halted
    assert checked_frontier[0] > 0
