"""The facts an :class:`Instruction` decodes once, when it is built.

Each fact must equal its definition over the instruction's fields, for
every ISA constructor and for raw ``Instruction(...)`` records;
``dataclasses.replace`` must re-derive it; ``==``, ``hash`` and
``repr`` must ignore it; and the ``DynInstr`` predicates and the ROB's
per-kind indices, which read it, must agree with the opclass.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import instructions as ins
from repro.isa.instructions import Instruction, OpClass
from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.rob import ROB

DECODED = (
    "is_load",
    "is_store",
    "is_branch",
    "cond_branch",
    "needs_rs",
    "rename_dst",
    "rename_srcs",
    "label",
)


def definitions(inst):
    """Every decoded fact, computed from its definition."""
    oc = inst.opclass
    store = oc is OpClass.STORE
    return {
        "is_load": oc is OpClass.LOAD,
        "is_store": store,
        "is_branch": oc is OpClass.BRANCH,
        "cond_branch": oc is OpClass.BRANCH and not inst.unconditional,
        "needs_rs": oc
        in (OpClass.ALU, OpClass.BRANCH, OpClass.LOAD, OpClass.STORE),
        "rename_dst": None if store else inst.dst,
        "rename_srcs": tuple(inst.srcs) + ((inst.value_src,) if store else ()),
        "label": inst.name or oc.value,
    }


def decoded(inst):
    return {name: getattr(inst, name) for name in DECODED}


CONSTRUCTED = {
    "alu": ins.alu("r1", ["r2", "r3"], lambda a, b: a + b),
    "alu_named": ins.alu("r1", ["r2"], lambda a: a, name="sqrt", micro_ops=3),
    "imm": ins.imm("r1", 7),
    "load": ins.load("r1", ["r2"], lambda base: base + 8),
    "store": ins.store(["r1"], lambda a: a, "r2"),
    "store_fixed_address": ins.store([], lambda: 0x100, "r2"),
    "branch": ins.branch(["r1"], lambda v: v < 10, "out"),
    "jump": ins.branch([], lambda: True, "out", unconditional=True),
    "fence": ins.fence(),
    "nop": ins.nop(),
    "halt": ins.halt(),
}

REGS = st.sampled_from(["r0", "r1", "r2", "x"])


@st.composite
def raw_instructions(draw):
    """Raw records over every opclass, valid per ``__post_init__``."""
    opclass = draw(st.sampled_from(list(OpClass)))
    target = draw(st.none() | st.just("out"))
    value_src = draw(st.none() | REGS)
    if opclass is OpClass.BRANCH and target is None:
        target = "out"
    if opclass is OpClass.STORE and value_src is None:
        value_src = "r0"
    srcs = draw(st.lists(REGS, max_size=3))
    return Instruction(
        opclass=opclass,
        dst=draw(st.none() | REGS),
        # A list is coerced to a tuple before the facts are derived.
        srcs=tuple(srcs) if draw(st.booleans()) else srcs,
        latency=draw(st.integers(1, 4)),
        name=draw(st.sampled_from(["", "a", "load"])),
        target=target,
        value_src=value_src,
        micro_ops=draw(st.integers(1, 3)),
        unconditional=draw(st.booleans()),
    )


def test_decoded_fields_are_exactly_the_listed_facts():
    """A new decoded fact must be added to these tests too."""
    derived = [f.name for f in dataclasses.fields(Instruction) if not f.init]
    assert tuple(derived) == DECODED


@pytest.mark.parametrize("name", sorted(CONSTRUCTED))
def test_constructors_decode_their_definitions(name):
    inst = CONSTRUCTED[name]
    assert decoded(inst) == definitions(inst)
    assert isinstance(inst.rename_srcs, tuple)


def test_constructor_facts_by_hand():
    """Spot values, so a wrong definition above cannot hide a wrong
    decode."""
    c = CONSTRUCTED
    assert c["store"].rename_srcs == ("r1", "r2")
    assert c["store"].rename_dst is None
    assert c["store_fixed_address"].rename_srcs == ("r2",)
    assert c["load"].rename_dst == "r1" and c["load"].needs_rs
    assert c["branch"].cond_branch and not c["jump"].cond_branch
    assert c["jump"].is_branch and c["jump"].needs_rs
    assert not any(c[k].needs_rs for k in ("fence", "nop", "halt"))
    assert c["alu_named"].label == "sqrt"
    assert c["halt"].label == "halt"


@settings(max_examples=200, deadline=None)
@given(raw_instructions())
def test_raw_instructions_decode_their_definitions(inst):
    assert decoded(inst) == definitions(inst)
    assert isinstance(inst.rename_srcs, tuple)


@settings(max_examples=200, deadline=None)
@given(raw_instructions(), raw_instructions())
def test_replace_rederives_the_facts(inst, other):
    """``dataclasses.replace`` with another record's fields decodes
    those fields, not the facts ``inst`` started with."""
    changes = {
        f.name: getattr(other, f.name)
        for f in dataclasses.fields(Instruction)
        if f.init
    }
    replaced = dataclasses.replace(inst, **changes)
    assert replaced == other
    assert decoded(replaced) == decoded(other) == definitions(other)


def test_replace_rederives_single_field_changes():
    load = CONSTRUCTED["load"]
    as_alu = dataclasses.replace(load, opclass=OpClass.ALU)
    assert not as_alu.is_load and as_alu.label == "load"
    assert dataclasses.replace(load, name="").label == "load"
    assert dataclasses.replace(load, name="probe").label == "probe"
    store = CONSTRUCTED["store"]
    assert dataclasses.replace(store, value_src="r9").rename_srcs == ("r1", "r9")
    branch = CONSTRUCTED["branch"]
    assert not dataclasses.replace(branch, unconditional=True).cond_branch


def test_facts_are_not_constructor_arguments():
    with pytest.raises(TypeError):
        Instruction(opclass=OpClass.NOP, is_load=True)
    with pytest.raises(ValueError):
        dataclasses.replace(CONSTRUCTED["nop"], label="x")


@pytest.mark.parametrize("name", sorted(CONSTRUCTED))
def test_eq_hash_and_repr_ignore_the_facts(name):
    inst = CONSTRUCTED[name]
    twin = dataclasses.replace(inst)
    # Corrupt every fact of the twin: it must still compare, hash and
    # print as the original.
    vars(twin).update(
        is_load=not inst.is_load,
        is_store=not inst.is_store,
        is_branch=not inst.is_branch,
        cond_branch=not inst.cond_branch,
        needs_rs=not inst.needs_rs,
        rename_dst="zz",
        rename_srcs=("zz",),
        label="zz",
    )
    assert decoded(twin) != decoded(inst)
    assert twin == inst
    assert hash(twin) == hash(inst)
    assert repr(twin) == repr(inst)
    for fact in DECODED:
        assert f"{fact}=" not in repr(inst)


@settings(max_examples=200, deadline=None)
@given(raw_instructions(), st.booleans())
def test_dyninstr_predicates_read_the_facts(inst, resolved):
    dyn = DynInstr(1, 0, inst, 0x40_0000)
    dyn.resolved = resolved
    assert dyn.is_load is inst.is_load
    assert dyn.is_store is inst.is_store
    assert dyn.is_branch is inst.is_branch
    assert dyn.is_unresolved_branch is (inst.cond_branch and not resolved)
    assert dyn.name == inst.label
    assert dyn.opclass is inst.opclass


@settings(max_examples=100, deadline=None)
@given(st.lists(raw_instructions(), min_size=1, max_size=12), st.data())
def test_rob_indices_follow_the_opclass(program, data):
    """ROB.push and pop_head file entries by the decoded facts; the
    indices must equal the entries filtered by opclass."""
    rob = ROB(len(program))
    for seq, inst in enumerate(program, start=1):
        rob.push(DynInstr(seq, seq - 1, inst, 0x40_0000 + 4 * seq))
    for _ in range(data.draw(st.integers(0, len(program)))):
        rob.pop_head()
    entries = list(rob)
    assert list(rob.loads) == [e for e in entries if e.static.opclass is OpClass.LOAD]
    assert list(rob.stores) == [
        e for e in entries if e.static.opclass is OpClass.STORE
    ]
    assert list(rob.branches) == [
        e
        for e in entries
        if e.static.opclass is OpClass.BRANCH and not e.static.unconditional
    ]
