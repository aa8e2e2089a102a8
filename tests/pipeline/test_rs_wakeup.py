"""Event-driven wakeup checked against the RS scan it replaced.

``reference_ready`` scans every RS entry and every source, side-effect
free.  A wrapper around ``Core._issue`` compares it, on every stepped
cycle, with the entries of the RS ready list that are ready by that
cycle.  The runs cover the paper's backward victims under every scheme,
the Fig. 12 kernels, random forward gadgets under ``priority`` (whose
§5.4 preemption re-admits occupants to the ready list) and ``fwd-eu``.
A bare ``ReservationStation`` is also driven through random steps
(hypothesis), and its ready list is checked against the entries whose
count of unbroadcast producers is zero.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiments import run_workload
from repro.core.harness import run_victim_trial
from repro.core.victims import victim_by_name
from repro.isa import instructions as ins
from repro.pipeline.core import Core
from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.reservation_station import ReservationStation
from repro.schemes.registry import SCHEME_FACTORIES
from repro.staticcheck.sanitizer import reference_ready
from repro.workloads import random_forward_gadget
from repro.workloads.synthetic import synthetic_suite

from tests.pipeline.test_safety_frontier import BACKWARD_VICTIMS, FIG12_SCHEMES


@pytest.fixture
def checked_ready(monkeypatch):
    """Wrap ``Core._issue`` to compare the ready list with the scan
    before each issue stage; returns a one-item list counting them."""
    real = Core._issue
    checked = [0]

    def _issue(core):
        ready = [e.seq for e in core.rs.ready if e.ready_cycle <= core.cycle]
        scanned = [e.seq for e in reference_ready(core)]
        if ready != scanned:
            raise AssertionError(
                f"cycle {core.cycle}: ready list gives {ready}, "
                f"the scan {scanned}"
            )
        checked[0] += 1
        real(core)

    monkeypatch.setattr(Core, "_issue", _issue)
    return checked


@pytest.mark.parametrize("scheme", sorted(SCHEME_FACTORIES))
def test_ready_list_matches_scan_every_cycle_of_backward_victims(
    scheme, checked_ready
):
    for victim in BACKWARD_VICTIMS:
        for secret in (0, 1):
            run_victim_trial(victim_by_name(victim), scheme, secret)
    assert checked_ready[0] > 0


@pytest.mark.parametrize("scheme", FIG12_SCHEMES)
def test_ready_list_matches_scan_every_cycle_of_fig12_kernels(
    scheme, checked_ready
):
    for workload in synthetic_suite():
        assert run_workload(workload, scheme).halted
    assert checked_ready[0] > 0


def test_ready_list_matches_scan_under_preemption(checked_ready):
    preempting = 0
    for seed in range(40):
        spec = random_forward_gadget(seed)
        for secret in (0, 1):
            result = run_victim_trial(spec, "priority", secret)
            preempting += result.core.stats.eu_preemptions > 0
    assert preempting == 19


def test_ready_list_matches_scan_on_fwd_eu(checked_ready):
    result = run_victim_trial(victim_by_name("fwd-eu"), "priority", 0)
    assert result.core.stats.eu_preemptions > 0
    assert checked_ready[0] > 0


# ----------------------------------------------------------------------
# a bare reservation station
# ----------------------------------------------------------------------
STEPS = st.one_of(
    # seq gaps stand in for squashed or non-RS instructions
    st.tuples(st.just("insert"), st.integers(0, 2), st.integers(1, 3)),
    st.tuples(
        st.sampled_from(["wake", "issue", "squash", "reinsert"]),
        st.integers(0, 1_000),
    ),
)


def _apply(rs: ReservationStation, issued: list, step, next_seq: int) -> int:
    op = step[0]
    entries = list(rs)
    if op == "insert":
        instr = DynInstr(
            seq=next_seq + step[2], slot=0, static=ins.imm("r", 0), pc_addr=0
        )
        if rs.can_accept(instr):
            instr.pending_sources = step[1]
            rs.insert(instr)
            next_seq = instr.seq
    elif op == "wake":
        waiting = [e for e in entries if e.pending_sources]
        if waiting:
            instr = waiting[step[1] % len(waiting)]
            instr.pending_sources -= 1
            if not instr.pending_sources:
                rs.wake(instr)
    elif op == "issue":
        if rs.ready:
            instr = rs.ready[step[1] % len(rs.ready)]
            rs.remove_on_issue(instr)
            issued.append(instr)
    elif op == "squash":
        if entries:
            cut = entries[step[1] % len(entries)].seq - step[1] % 2
            rs.squash_younger_than(cut)
            issued[:] = [e for e in issued if e.seq <= cut]
    elif op == "reinsert":
        # A §5.4 preempted occupant: issued earlier, older than the
        # youngest waiting entry, operands already captured.
        if issued:
            instr = issued.pop(step[1] % len(issued))
            if rs.can_accept(instr):
                rs.insert(instr)
    return next_seq


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(STEPS, max_size=80))
def test_ready_list_follows_random_steps(steps):
    rs = ReservationStation(6)
    issued: list = []
    next_seq = 0
    for step in steps:
        next_seq = _apply(rs, issued, step, next_seq)
        ready = [e.seq for e in rs.ready]
        assert ready == [e.seq for e in rs if not e.pending_sources]
        assert ready == sorted(set(ready))
