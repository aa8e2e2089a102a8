"""Direct unit tests for ROB, branch predictors, reservation station,
and the CDB — the pieces the attack-enabling behaviours live in."""

import pytest

from repro.isa import instructions as ins
from repro.pipeline.branch import OraclePredictor, StaticTakenPredictor, TwoBitPredictor
from repro.pipeline.config import PortConfig
from repro.pipeline.dyninstr import DynInstr, Phase
from repro.pipeline.execution_unit import CommonDataBus
from repro.pipeline.reservation_station import ReservationStation
from repro.pipeline.rob import ROB


def dyn(seq, inst=None, **kw):
    d = DynInstr(seq=seq, slot=0, static=inst or ins.nop(), pc_addr=0x400000)
    for key, value in kw.items():
        setattr(d, key, value)
    return d


class TestROB:
    def test_fifo_behaviour(self):
        rob = ROB(4)
        rob.push(dyn(1))
        rob.push(dyn(2))
        assert rob.head().seq == 1
        assert rob.pop_head().seq == 1
        assert rob.head().seq == 2

    def test_squash_returns_in_order_and_marks(self):
        rob = ROB(8)
        for seq in (1, 2, 3, 4):
            rob.push(dyn(seq))
        squashed = rob.squash_younger_than(2)
        assert [i.seq for i in squashed] == [3, 4]
        assert all(i.phase is Phase.SQUASHED for i in squashed)
        assert len(rob) == 2

    def test_oldest_unresolved_branch_skips_unconditional(self):
        rob = ROB(8)
        rob.push(dyn(1))
        jump = ins.branch((), lambda: True, "x", unconditional=True)
        # fake label resolution not needed for this unit test
        rob.push(DynInstr(seq=2, slot=0, static=jump, pc_addr=0))
        assert rob.oldest_unresolved_branch() is None
        cond = ins.branch(("r",), lambda v: v, "x")
        rob.push(DynInstr(seq=3, slot=0, static=cond, pc_addr=0))
        assert rob.oldest_unresolved_branch().seq == 3

    def test_safety_flags_prefix_semantics(self):
        rob = ROB(8)
        load = dyn(1, ins.load("a", (), lambda: 0))
        rob.push(load)
        branch = dyn(2, ins.branch(("a",), lambda v: v, "x"))
        rob.push(branch)
        younger = dyn(3, ins.load("b", (), lambda: 64))
        rob.push(younger)
        flags = rob.safety_flags()
        assert flags[1].older_branches_resolved       # nothing older
        assert flags[1].is_oldest
        assert flags[2].older_branches_resolved        # load is not a branch
        assert not flags[2].older_loads_completed      # load 1 incomplete
        assert not flags[3].older_branches_resolved    # branch 2 unresolved
        assert flags[3].older_stores_addr_resolved     # no stores at all

    def test_safety_flags_store_address(self):
        rob = ROB(8)
        store = dyn(1, ins.store(("a",), lambda v: v, "b"))
        rob.push(store)
        load = dyn(2, ins.load("c", (), lambda: 0))
        rob.push(load)
        flags = rob.safety_flags()
        assert not flags[2].older_stores_addr_resolved
        store.addr = 0x100
        flags = rob.safety_flags()
        assert flags[2].older_stores_addr_resolved

    def test_older_stores(self):
        rob = ROB(8)
        s1 = dyn(1, ins.store(("a",), lambda v: v, "b"))
        rob.push(s1)
        rob.push(dyn(2))
        s2 = dyn(3, ins.store(("a",), lambda v: v, "b"))
        rob.push(s2)
        assert [s.seq for s in rob.older_stores(3)] == [1]
        assert [s.seq for s in rob.older_stores(9)] == [1, 3]


class TestPredictors:
    def test_two_bit_hysteresis(self):
        p = TwoBitPredictor()
        assert not p.predict(0)        # weak not-taken initially
        p.update(0, True)
        assert p.predict(0)            # weak taken
        p.update(0, False)
        assert not p.predict(0)

    def test_strong_state_survives_one_flip(self):
        p = TwoBitPredictor()
        p.train(0, True, times=3)      # strong taken
        p.update(0, False)
        assert p.predict(0)            # still predicts taken

    def test_per_pc_isolation(self):
        p = TwoBitPredictor()
        p.train(5, True, times=3)
        assert p.predict(5)
        assert not p.predict(6)

    def test_reset(self):
        p = TwoBitPredictor()
        p.train(0, True, times=3)
        p.reset()
        assert not p.predict(0)

    def test_initial_state_validation(self):
        with pytest.raises(ValueError):
            TwoBitPredictor(initial=5)

    def test_oracle_replays_and_flags_exhaustion(self):
        p = OraclePredictor([True, False])
        assert p.predict(0) is True
        assert p.predict(9) is False
        assert not p.exhausted
        assert p.predict(0) is False
        assert p.exhausted
        p.reset()
        assert p.predict(0) is True

    def test_static_never_learns(self):
        p = StaticTakenPredictor(True)
        p.update(0, False)
        assert p.predict(0)


class TestReservationStationHolding:
    def test_hold_slot_keeps_occupancy(self):
        rs = ReservationStation(4)
        instr = dyn(1, ins.imm("r", 0))
        rs.insert(instr)
        rs.remove_on_issue(instr, hold_slot=True)
        assert rs.occupied_micro_ops == 1  # §5.4 rule 1
        rs.release_held(1)
        assert rs.occupied_micro_ops == 0

    def test_normal_issue_frees_immediately(self):
        rs = ReservationStation(4)
        instr = dyn(1, ins.imm("r", 0))
        rs.insert(instr)
        rs.remove_on_issue(instr, hold_slot=False)
        assert rs.occupied_micro_ops == 0

    def test_squash_releases_held_slots(self):
        rs = ReservationStation(4)
        older = dyn(1, ins.imm("r", 0))
        younger = dyn(5, ins.imm("r", 0))
        for i in (older, younger):
            rs.insert(i)
        rs.remove_on_issue(younger, hold_slot=True)
        rs.squash_younger_than(1)
        assert rs.occupied_micro_ops == 1  # only the older remains

    def test_micro_op_weights(self):
        rs = ReservationStation(3)
        fat = dyn(1, ins.alu("r", [], lambda: 0, micro_ops=3))
        rs.insert(fat)
        assert not rs.can_accept(dyn(2, ins.imm("r", 0)))

    def test_peak_occupancy_tracked(self):
        rs = ReservationStation(4)
        rs.insert(dyn(1, ins.imm("r", 0)))
        rs.insert(dyn(2, ins.imm("r", 0)))
        assert rs.peak_occupancy == 2


class TestReservationStationOrder:
    def seqs(self, rs):
        return [i.seq for i in rs.waiting_sorted()]

    def test_older_insert_lands_in_place(self):
        rs = ReservationStation(8)
        for seq in (1, 3, 5):
            rs.insert(dyn(seq, ins.imm("r", 0)))
        rs.insert(dyn(2, ins.imm("r", 0)))  # a preempted occupant
        assert self.seqs(rs) == [1, 2, 3, 5]

    def test_issue_and_squash_keep_order(self):
        rs = ReservationStation(8)
        instrs = {seq: dyn(seq, ins.imm("r", 0)) for seq in (1, 2, 4, 7, 9)}
        for instr in instrs.values():
            rs.insert(instr)
        rs.remove_on_issue(instrs[4])
        assert self.seqs(rs) == [1, 2, 7, 9]
        assert [i.seq for i in rs.squash_younger_than(5)] == [7, 9]
        assert self.seqs(rs) == [1, 2]
        assert rs.occupied_micro_ops == 2

    def test_issuing_an_absent_instruction_raises(self):
        rs = ReservationStation(8)
        rs.insert(dyn(1, ins.imm("r", 0)))
        with pytest.raises(ValueError):
            rs.remove_on_issue(dyn(1, ins.imm("r", 0)))  # same seq, other object

    def test_restore_sorts(self):
        rs = ReservationStation(8)
        instrs = {seq: dyn(seq, ins.imm("r", 0)) for seq in (2, 3, 6)}
        rs.restore(((6, 2, 3), 3, (), 3), instrs.__getitem__)
        assert self.seqs(rs) == [2, 3, 6]

    def test_order_holds_every_cycle_through_preemption(self):
        """§5.4 preemption is the one out-of-order insert."""
        from repro.core.harness import begin_victim_trial
        from repro.core.victims import victim_by_name

        setup = begin_victim_trial(victim_by_name("fwd-eu"), "priority", 0)
        machine, core = setup.machine, setup.core
        while not core.halted:
            machine.step()
            seqs = self.seqs(core.rs)
            assert seqs == sorted(set(seqs)), machine.cycle
        assert core.stats.eu_preemptions > 0


class TestCDB:
    def test_oldest_first_broadcast(self):
        cdb = CommonDataBus(1)
        cdb.enqueue(dyn(5))
        cdb.enqueue(dyn(2))
        assert [i.seq for i in cdb.broadcast()] == [2]
        assert [i.seq for i in cdb.broadcast()] == [5]

    def test_width_respected(self):
        cdb = CommonDataBus(2)
        for seq in (1, 2, 3):
            cdb.enqueue(dyn(seq))
        assert len(cdb.broadcast()) == 2
        assert cdb.stall_cycles == 1

    def test_squash_filters_queue(self):
        cdb = CommonDataBus(2)
        for seq in (1, 5, 9):
            cdb.enqueue(dyn(seq))
        victims = cdb.squash_younger_than(5)
        assert [v.seq for v in victims] == [9]
        assert len(cdb) == 2
