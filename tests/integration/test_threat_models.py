"""Threat-model variations (§2.1) and software mitigations.

* SameThread model: the receiver's accesses come from the victim's own
  core (sandbox setting) — the channel still decodes.
* Software mitigation: an explicit serializing fence after the branch
  (lfence-style) closes the window even on the unsafe machine.
"""

from repro.core.harness import prepare_machine
from repro.core.receivers import QLRUReceiver
from repro.core.victims import gdnpeu_victim
from repro.isa.instructions import OpClass
from repro.isa import instructions as ins
from repro.isa.program import Program
from repro.system.agent import AttackerAgent


class TestSameThreadModel:
    def run_bit(self, secret):
        spec = gdnpeu_victim()
        machine, core, _ = prepare_machine(spec, "dom-nontso", secret)
        # Receiver primitives issued from the *victim's* core (core 0):
        # the sandboxed-attacker setting.
        agent = AttackerAgent(machine, 0)
        receiver = QLRUReceiver(agent, spec.line_a, spec.line_b)
        receiver.prime()
        # the prime polluted the victim's private caches with A; restore
        # the spec's required state (A out of the victim's L1/L2)
        agent.evict_own_copy(spec.line_a)
        machine.run(until=lambda: core.halted, max_cycles=30_000)
        return receiver.probe_and_decode()

    def test_same_thread_receiver_decodes(self):
        assert self.run_bit(0) == 0
        assert self.run_bit(1) == 1


def with_fence_after_branch(program: Program) -> Program:
    """Insert an explicit FENCE at the head of the branch's protected
    body — where compilers emit lfence for Spectre v1 (the fence must
    sit on the *speculatively executed* path to be effective)."""
    insert_at = program.labels["body"]
    instructions = list(program.instructions)
    instructions.insert(insert_at, ins.fence(name="lfence"))
    labels = {
        name: slot + 1 if slot > insert_at else slot
        for name, slot in program.labels.items()
    }
    # the body label itself must now point at the fence
    labels["body"] = insert_at
    return Program(
        instructions=instructions,
        labels=labels,
        code_base=program.code_base,
        inst_size=program.inst_size,
    )


class TestSoftwareFence:
    def run_orders(self, mutate=None):
        spec = gdnpeu_victim()
        if mutate:
            spec.program = mutate(spec.program)
            spec.branch_slot = next(
                s
                for s, inst in enumerate(spec.program)
                if inst.name == "victim branch"
            )
        orders = []
        for secret in (0, 1):
            from repro.core.harness import run_victim_trial

            result = run_victim_trial(spec, "unsafe", secret)
            orders.append(result.order(spec.line_a, spec.line_b))
        return orders

    def test_unmitigated_unsafe_leaks(self):
        orders = self.run_orders()
        assert orders[0] != orders[1]

    def test_lfence_after_branch_blocks(self):
        """The fence keeps the gadget from issuing until the branch
        retires — no interference, no reorder, even on 'unsafe'."""
        orders = self.run_orders(mutate=with_fence_after_branch)
        assert orders[0] == orders[1]


class TestFenceSemantics:
    def test_fence_placement_helper(self):
        spec = gdnpeu_victim()
        fenced = with_fence_after_branch(spec.program)
        body = fenced.slot_of_label("body")
        assert fenced.at(body).opclass is OpClass.FENCE
        # all other labels still resolve to their original instructions
        for label in spec.program.labels:
            if label == "body":
                continue  # deliberately repointed at the fence
            old_inst = spec.program.at(spec.program.slot_of_label(label))
            new_inst = fenced.at(fenced.slot_of_label(label))
            assert old_inst.name == new_inst.name
