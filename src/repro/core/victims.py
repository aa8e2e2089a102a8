"""Victim/gadget program builders for the three interference gadgets.

Each builder returns a :class:`VictimSpec`: the program, its initial
memory/register state, which lines the harness must prime or flush, and
which lines the attack monitors.  The victims follow the paper's figures:

* :func:`gdnpeu_victim` — Figure 6 / Figure 9: a mis-speculated implicit
  gadget of non-pipelined-unit operations delays the address generation
  of retirement-bound load A, reordering it against reference load B.
* :func:`gdmshr_victim` — Figure 4: a mis-speculated explicit gadget of
  M loads exhausts the L1-D MSHRs iff the secret is 1, delaying the
  retirement-bound (missing) load A.
* :func:`girs_victim` — Figure 5 / §4.3: a mis-speculated transmitter
  load plus a swarm of dependent adds fills the reservation station iff
  the transmitter misses, throttling the frontend and suppressing the
  fetch of a target instruction line.

Address planning: the attack hierarchy has a 64-set single-slice LLC;
monitored lines are placed in high set indices that the victim's code
lines (low sets) and bookkeeping data (middle sets) never touch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.memory.hierarchy import HierarchyConfig, LevelConfig
from repro.pipeline.config import CoreConfig

#: Hierarchy used by the attack experiments (scaled-down Kaby Lake:
#: 16-way QLRU LLC as required by the §4.2.2 receiver, 8 L1-D MSHRs).
ATTACK_HIERARCHY = HierarchyConfig(
    l1i=LevelConfig(64, 8, latency=3),
    l1d=LevelConfig(64, 8, latency=3),
    l2=LevelConfig(128, 4, latency=12),
    llc=LevelConfig(64, 16, latency=40, policy="qlru", num_slices=1),
    dram_latency=240,
    dram_jitter=0,
    l1d_mshrs=8,
)

LINE = 64
#: LLC set stride for the attack hierarchy (line_size * num_sets).
SET_STRIDE = LINE * 64


def _addr_in_set(set_index: int, *, region: int = 0x100_000, way: int = 0) -> int:
    """A data address mapping to LLC ``set_index`` (way-th congruent line)."""
    return region + set_index * LINE + way * SET_STRIDE


# Monitored / bookkeeping data placement (LLC sets; code uses sets 0..~15).
SET_A = 48
SET_S = 32  # transmitter probe lines occupy sets 32..39
SET_SECRET = 26
SET_CHASE0 = 28
SET_CHASE1 = 30
SET_REF = 44  # attacker reference line

ADDR_A = _addr_in_set(SET_A)
ADDR_B = _addr_in_set(SET_A, way=1)  # congruent with A (same LLC set)
ADDR_S = _addr_in_set(SET_S)
ADDR_SECRET = _addr_in_set(SET_SECRET)
ADDR_CHASE0 = _addr_in_set(SET_CHASE0)
ADDR_CHASE1 = _addr_in_set(SET_CHASE1)
ADDR_REF = _addr_in_set(SET_REF)


@dataclass(frozen=True, eq=False)
class VictimSpec:
    """Everything a harness needs to run one interference victim.

    Frozen, with tuple sequences and read-only mappings (lists and
    dicts passed in are copied), so :func:`victim_by_name` can hand one
    built victim to every trial, analysis and sweep in the process.
    Make a variant with :func:`dataclasses.replace`.  Equality is
    identity: two builds of a victim hold distinct lambdas and never
    compared equal field by field anyway.
    """

    name: str
    gadget: str  # "gdnpeu" | "gdmshr" | "girs"
    ordering: str  # "vd-vd" | "vd-ad" | "vi-ad" | ...
    program: Program
    registers: Mapping[str, int]
    memory_image: Mapping[int, int]
    #: Static slot of the branch the attacker mistrains (taken).
    branch_slot: int
    #: The attacker-controlled secret bit lives at this address.
    secret_addr: int
    #: Lines pre-installed in the victim's L1-D before each run.
    prime_l1: Tuple[int, ...]
    #: Lines flushed system-wide before each run.
    flush_lines: Tuple[int, ...]
    #: Monitored unprotected victim data access (VD).
    line_a: Optional[int] = None
    #: Reference victim data access (second VD), if any.
    line_b: Optional[int] = None
    #: Label whose I-line is monitored (VI), if any.
    target_label: Optional[str] = None
    #: I-lines to leave cold when pre-warming the victim's I-cache.
    cold_ilines: Tuple[int, ...] = ()
    #: Per-victim core configuration (GIRS shrinks the RS).
    core_config: Optional[CoreConfig] = None
    notes: str = ""

    def __post_init__(self) -> None:
        freeze = object.__setattr__
        freeze(self, "registers", MappingProxyType(dict(self.registers)))
        freeze(self, "memory_image", MappingProxyType(dict(self.memory_image)))
        for name in ("prime_l1", "flush_lines", "cold_ilines"):
            freeze(self, name, tuple(getattr(self, name)))

    @property
    def target_iline(self) -> Optional[int]:
        if self.target_label is None:
            return None
        return self.program.address_of_label(self.target_label) & ~(LINE - 1)

    def monitored_lines(self) -> List[int]:
        lines = []
        if self.line_a is not None:
            lines.append(self.line_a)
        if self.line_b is not None:
            lines.append(self.line_b)
        if self.target_iline is not None:
            lines.append(self.target_iline)
        return lines


def _emit_chase(b: ProgramBuilder, hops: int) -> str:
    """Slow-to-resolve branch predicate: ``hops`` dependent DRAM loads.

    Returns the register holding the final value (architecturally 0).
    """
    b.load("n0", [], lambda: ADDR_CHASE0, name="chase0")
    reg = "n0"
    if hops >= 2:
        b.load("n1", ["n0"], lambda p: p, name="chase1")
        reg = "n1"
    return reg


def _emit_vi_tail(b: ProgramBuilder, emit_gadget) -> None:
    """VI-AD program tail: the correct (fall-through) path jumps to a
    *cold, monitored* join line that the mis-speculated path never
    fetches (the speculative body jumps to its own join), so the
    monitored line's only visible fetch is the post-squash one whose
    timing the gadget shifts (§3.3.1 VD-VI / VI-AD construction)."""
    b.jump("correct_join")
    b.label("body")
    emit_gadget()
    b.jump("spec_join")
    b.align_to_line()
    b.label("correct_join")
    b.nop(name="post-squash target")
    b.jump("end")
    b.align_to_line()
    b.label("spec_join")
    b.label("end")
    b.halt()


def gdnpeu_victim(
    *,
    variant: str = "vd-vd",
    z_latency: int = 30,
    f_len: int = 4,
    f_latency: int = 15,
    g_len: int = 12,
    g_latency: int = 5,
    gadget_len: int = 8,
) -> VictimSpec:
    """The GDNPEU victim (Figures 6 and 9).

    ``variant``:

    * ``"vd-vd"`` — loads A and B with A's address generation on the
      contended non-pipelined port; the gadget's presence reorders their
      LLC accesses.  Also serves VD-AD (reference = attacker access).
    * ``"vi-ad"`` — the branch condition additionally depends on load
      A's value, so interference delays the squash and hence the
      post-squash fetch of a cold correct-path I-line (§3.3.1 VD-VI /
      VI-AD construction).
    """
    if variant not in ("vd-vd", "vi-ad"):
        raise ValueError("variant must be 'vd-vd' or 'vi-ad'")
    b = ProgramBuilder()
    # z: the shared input of both address-generation chains.
    b.alu("z", [], lambda: 1, latency=z_latency, port=5, name="z")
    # f(z): dependent chain on the non-pipelined unit -> address of A.
    prev = "z"
    for i in range(f_len):
        b.alu(f"f{i}", [prev], lambda v: v + 1, latency=f_latency, port=0, name=f"f{i}")
        prev = f"f{i}"
    b.load("ya", [prev], lambda v: ADDR_A, name="load A")
    # g(z): independent, longer chain on a pipelined port -> address of B.
    prev = "z"
    for i in range(g_len):
        b.alu(f"g{i}", [prev], lambda v: v + 1, latency=g_latency, port=1, name=f"g{i}")
        prev = f"g{i}"
    b.load("yb", [prev], lambda v: ADDR_B, name="load B")

    if variant == "vd-vd":
        chase_reg = _emit_chase(b, hops=2)
        b.branch_if(
            ["i", chase_reg],
            lambda i, n: i < n,
            "body",
            name="victim branch",
        )
    else:
        # Branch predicate depends on load A: interference delays the
        # squash, shifting the post-squash instruction fetch.
        b.branch_if(
            ["ya"],
            lambda y: y > 1_000_000,
            "body",
            name="victim branch",
        )

    def emit_gadget() -> None:
        b.load("sec", [], lambda: ADDR_SECRET, name="access")
        b.load("x", ["sec"], lambda s: ADDR_S + s * LINE, name="transmitter")
        for i in range(gadget_len):
            b.alu(
                f"fp{i}",
                ["x"],
                lambda v: v + 1,
                latency=f_latency,
                port=0,
                name=f"gadget{i}",
            )

    if variant == "vd-vd":
        b.jump("end")
        b.label("body")
        emit_gadget()
        b.label("end")
        b.halt()
    else:
        _emit_vi_tail(b, emit_gadget)
    program = b.build()
    branch_slot = next(
        s for s, inst in enumerate(program) if inst.name == "victim branch"
    )
    cold = []
    target_label = None
    if variant == "vi-ad":
        target_label = "correct_join"
        cold = [program.address_of_label("correct_join") & ~(LINE - 1)]
    return VictimSpec(
        name=f"gdnpeu-{variant}",
        gadget="gdnpeu",
        ordering=variant,
        program=program,
        registers={"i": 1},
        memory_image={ADDR_CHASE0: ADDR_CHASE1, ADDR_CHASE1: 0},
        branch_slot=branch_slot,
        secret_addr=ADDR_SECRET,
        # secret=1 -> transmitter hits (S+64 primed); secret=0 -> misses.
        prime_l1=[ADDR_SECRET, ADDR_S + LINE],
        flush_lines=[ADDR_A, ADDR_B, ADDR_S, ADDR_CHASE0, ADDR_CHASE1],
        line_a=ADDR_A,
        line_b=ADDR_B,
        target_label=target_label,
        cold_ilines=cold,
        notes="implicit gadget; non-pipelined EU contention (Fig. 3/6)",
    )


def gdmshr_victim(
    *,
    variant: str = "vd-vd",
    num_mshr_loads: int = 8,
    a_chain_len: int = 8,
    b_chain_len: int = 18,
    chain_latency: int = 5,
) -> VictimSpec:
    """The GDMSHR victim (Figure 4).

    The gadget issues ``num_mshr_loads`` loads whose addresses are all
    distinct lines iff secret=1 (exhausting the MSHRs) and all the same
    line iff secret=0 (coalescing into one).  Victim load A is a miss
    whose address becomes ready after a short chain; reference load B
    coalesces onto a gadget line so MSHR pressure never delays it.
    """
    if variant not in ("vd-vd", "vi-ad"):
        raise ValueError("variant must be 'vd-vd' or 'vi-ad'")
    b = ProgramBuilder()
    b.alu("z", [], lambda: 1, latency=10, port=5, name="z")
    prev = "z"
    for i in range(a_chain_len):
        b.alu(f"za{i}", [prev], lambda v: v + 1, latency=chain_latency, port=1, name=f"za{i}")
        prev = f"za{i}"
    b.load("ya", [prev], lambda v: ADDR_A, name="load A")
    prev = "z"
    for i in range(b_chain_len):
        b.alu(f"zb{i}", [prev], lambda v: v + 1, latency=chain_latency, port=5, name=f"zb{i}")
        prev = f"zb{i}"
    # B coalesces with the gadget's S+64 MSHR entry (secret=1) or gets a
    # free MSHR (secret=0): its issue time is gadget-independent.
    b.load("yb", [prev], lambda v: ADDR_S + LINE, name="load B")
    if variant == "vd-vd":
        chase_reg = _emit_chase(b, hops=2)
        b.branch_if(["i", chase_reg], lambda i, n: i < n, "body", name="victim branch")
    else:
        b.branch_if(["ya"], lambda y: y > 1_000_000, "body", name="victim branch")

    def emit_gadget() -> None:
        b.load("sec", [], lambda: ADDR_SECRET, name="access")
        for k in range(num_mshr_loads):
            b.load(
                f"x{k}",
                ["sec"],
                lambda s, k=k: ADDR_S + s * LINE * k,
                name=f"mshr{k}",
            )

    if variant == "vd-vd":
        b.jump("end")
        b.label("body")
        emit_gadget()
        b.label("end")
        b.halt()
    else:
        _emit_vi_tail(b, emit_gadget)
    program = b.build()
    branch_slot = next(
        s for s, inst in enumerate(program) if inst.name == "victim branch"
    )
    cold = []
    target_label = None
    if variant == "vi-ad":
        target_label = "correct_join"
        cold = [program.address_of_label("correct_join") & ~(LINE - 1)]
    gadget_lines = [ADDR_S + k * LINE for k in range(num_mshr_loads)]
    return VictimSpec(
        name=f"gdmshr-{variant}",
        gadget="gdmshr",
        ordering=variant,
        program=program,
        registers={"i": 1},
        memory_image={ADDR_CHASE0: ADDR_CHASE1, ADDR_CHASE1: 0},
        branch_slot=branch_slot,
        secret_addr=ADDR_SECRET,
        prime_l1=[ADDR_SECRET],
        flush_lines=[ADDR_A, ADDR_B, ADDR_CHASE0, ADDR_CHASE1] + gadget_lines,
        line_a=ADDR_A,
        line_b=(ADDR_S + LINE) & ~(LINE - 1),
        target_label=target_label,
        cold_ilines=cold,
        notes="explicit gadget; MSHR exhaustion (Fig. 4)",
    )


def gdnpeu_arith_victim(
    *,
    z_latency: int = 30,
    f_len: int = 4,
    f_latency: int = 15,
    g_len: int = 12,
    g_latency: int = 5,
    gadget_len: int = 8,
    fast_latency: int = 3,
    slow_latency: int = 120,
) -> VictimSpec:
    """GDNPEU with a *data-dependent arithmetic* transmitter (§3.2.2:
    "the ideas generalize to other classes of transmitters, e.g.
    data-dependent arithmetic [19]").

    The secret reaches an early-terminating-multiplier-style ALU op
    whose latency is ``fast_latency`` when the operand is 0 and
    ``slow_latency`` when it is 1.  A fast transmitter readies the
    gadget inside the interference window (secret=0 -> B-A); a slow one
    readies it after load A has already issued (secret=1 -> A-B).  Note
    the polarity is inverted relative to :func:`gdnpeu_victim`.

    No memory access carries the secret at all — the transmitter is pure
    arithmetic — which defeats any defense that reasons only about
    speculative *loads*.
    """
    b = ProgramBuilder()
    b.alu("z", [], lambda: 1, latency=z_latency, port=5, name="z")
    prev = "z"
    for i in range(f_len):
        b.alu(f"f{i}", [prev], lambda v: v + 1, latency=f_latency, port=0, name=f"f{i}")
        prev = f"f{i}"
    b.load("ya", [prev], lambda v: ADDR_A, name="load A")
    prev = "z"
    for i in range(g_len):
        b.alu(f"g{i}", [prev], lambda v: v + 1, latency=g_latency, port=1, name=f"g{i}")
        prev = f"g{i}"
    b.load("yb", [prev], lambda v: ADDR_B, name="load B")
    chase_reg = _emit_chase(b, hops=2)
    b.branch_if(["i", chase_reg], lambda i, n: i < n, "body", name="victim branch")
    b.jump("end")
    b.label("body")
    b.load("sec", [], lambda: ADDR_SECRET, name="access")
    b.alu(
        "x",
        ["sec"],
        lambda s: s * 7 + 1,
        port=5,
        name="arith transmitter",
        dynamic_latency=lambda s: fast_latency if s == 0 else slow_latency,
    )
    for i in range(gadget_len):
        b.alu(
            f"fp{i}",
            ["x"],
            lambda v: v + 1,
            latency=f_latency,
            port=0,
            name=f"gadget{i}",
        )
    b.label("end")
    b.halt()
    program = b.build()
    branch_slot = next(
        s for s, inst in enumerate(program) if inst.name == "victim branch"
    )
    return VictimSpec(
        name="gdnpeu-arith",
        gadget="gdnpeu",
        ordering="vd-vd",
        program=program,
        registers={"i": 1},
        memory_image={ADDR_CHASE0: ADDR_CHASE1, ADDR_CHASE1: 0},
        branch_slot=branch_slot,
        secret_addr=ADDR_SECRET,
        prime_l1=[ADDR_SECRET],
        flush_lines=[ADDR_A, ADDR_B, ADDR_CHASE0, ADDR_CHASE1],
        line_a=ADDR_A,
        line_b=ADDR_B,
        notes=(
            "implicit gadget; data-dependent-arithmetic transmitter "
            "(secret=0 -> interference -> B-A; inverted polarity)"
        ),
    )


def gdnpeu_architectural_victim(
    *,
    z_latency: int = 30,
    f_len: int = 4,
    f_latency: int = 15,
    g_len: int = 12,
    g_latency: int = 5,
    gadget_len: int = 8,
    fast_latency: int = 3,
    slow_latency: int = 120,
) -> VictimSpec:
    """Interference leaking *non-transiently accessed* data (§6).

    The victim loads the secret **architecturally** (older than the
    branch — it is data the program legitimately computes on, bound to
    retire).  The mis-speculated gadget's data-dependent-arithmetic
    transmitter consumes that untainted value, so taint-tracking
    defenses like STT — which only protect speculatively accessed data —
    let it execute, and the interference channel leaks the secret
    anyway.  This victim makes the paper's §6 claim about STT concrete.

    Polarity matches :func:`gdnpeu_arith_victim`: secret=0 -> fast
    transmitter -> interference -> B-A.
    """
    b = ProgramBuilder()
    # Architectural access to the secret: NOT under any branch shadow.
    b.load("sec", [], lambda: ADDR_SECRET, name="architectural access")
    b.alu("z", [], lambda: 1, latency=z_latency, port=5, name="z")
    prev = "z"
    for i in range(f_len):
        b.alu(f"f{i}", [prev], lambda v: v + 1, latency=f_latency, port=0, name=f"f{i}")
        prev = f"f{i}"
    b.load("ya", [prev], lambda v: ADDR_A, name="load A")
    prev = "z"
    for i in range(g_len):
        b.alu(f"g{i}", [prev], lambda v: v + 1, latency=g_latency, port=1, name=f"g{i}")
        prev = f"g{i}"
    b.load("yb", [prev], lambda v: ADDR_B, name="load B")
    chase_reg = _emit_chase(b, hops=2)
    b.branch_if(["i", chase_reg], lambda i, n: i < n, "body", name="victim branch")
    b.jump("end")
    b.label("body")
    b.alu(
        "x",
        ["sec"],
        lambda s: s * 7 + 1,
        port=5,
        name="arith transmitter",
        dynamic_latency=lambda s: fast_latency if s == 0 else slow_latency,
    )
    for i in range(gadget_len):
        b.alu(
            f"fp{i}",
            ["x"],
            lambda v: v + 1,
            latency=f_latency,
            port=0,
            name=f"gadget{i}",
        )
    b.label("end")
    b.halt()
    program = b.build()
    branch_slot = next(
        s for s, inst in enumerate(program) if inst.name == "victim branch"
    )
    return VictimSpec(
        name="gdnpeu-architectural",
        gadget="gdnpeu",
        ordering="vd-vd",
        program=program,
        registers={"i": 1},
        memory_image={ADDR_CHASE0: ADDR_CHASE1, ADDR_CHASE1: 0},
        branch_slot=branch_slot,
        secret_addr=ADDR_SECRET,
        prime_l1=[ADDR_SECRET],
        flush_lines=[ADDR_A, ADDR_B, ADDR_CHASE0, ADDR_CHASE1],
        line_a=ADDR_A,
        line_b=ADDR_B,
        notes=(
            "bound-to-retire secret + transient arithmetic gadget: the "
            "STT counter-example of §6 (secret=0 -> B-A)"
        ),
    )


def gdnpeu_store_victim(
    *,
    z_latency: int = 30,
    f_len: int = 4,
    f_latency: int = 15,
    gadget_len: int = 8,
) -> VictimSpec:
    """GDNPEU delaying a retirement-bound **store** — the coherence-
    invalidation channel (§3.3's "many other memory address streams ...
    accesses made across threads and security domains"; cf. Yao et al.,
    HPCA'18 on coherence-state leakage).

    The monitored operation is a store to line A (constant address,
    resolved at dispatch) whose *data* comes from the contended
    non-pipelined chain.  Stores write at retire, and the write
    *invalidates* the attacker's cached copy of A (MESI), so an attacker
    probing its own copy at a calibrated fixed time learns whether the
    store — hence the interference, hence the secret — happened yet.
    No load reordering and no replacement-state decoding involved: a
    genuinely different receiver for the same interference primitive.
    """
    b = ProgramBuilder()
    b.alu("z", [], lambda: 1, latency=z_latency, port=5, name="z")
    prev = "z"
    for i in range(f_len):
        b.alu(f"f{i}", [prev], lambda v: v + 1, latency=f_latency, port=0, name=f"f{i}")
        prev = f"f{i}"
    b.store((), lambda: ADDR_A, prev, name="store A")
    chase_reg = _emit_chase(b, hops=2)
    b.branch_if(["i", chase_reg], lambda i, n: i < n, "body", name="victim branch")
    b.jump("end")
    b.label("body")
    b.load("sec", [], lambda: ADDR_SECRET, name="access")
    b.load("x", ["sec"], lambda s: ADDR_S + s * LINE, name="transmitter")
    for i in range(gadget_len):
        b.alu(
            f"fp{i}",
            ["x"],
            lambda v: v + 1,
            latency=f_latency,
            port=0,
            name=f"gadget{i}",
        )
    b.label("end")
    b.halt()
    program = b.build()
    branch_slot = next(
        s for s, inst in enumerate(program) if inst.name == "victim branch"
    )
    return VictimSpec(
        name="gdnpeu-store",
        gadget="gdnpeu",
        ordering="coherence",
        program=program,
        registers={"i": 1},
        memory_image={ADDR_CHASE0: ADDR_CHASE1, ADDR_CHASE1: 0},
        branch_slot=branch_slot,
        secret_addr=ADDR_SECRET,
        prime_l1=[ADDR_SECRET, ADDR_S + LINE],
        flush_lines=[ADDR_S, ADDR_CHASE0, ADDR_CHASE1],
        line_a=ADDR_A,
        line_b=None,
        notes="store-retire timing -> coherence invalidation channel",
    )


def gdnpeu_occupancy_victim(*, num_fillers: int = 16) -> VictimSpec:
    """The §6 future-work sender: reorder W+1 unprotected accesses.

    Against CleanupSpec-style defenses that randomize replacement (so
    the QLRU receiver decodes noise), the paper suggests a sender that
    reorders W+1 unprotected accesses to one W-way set, making cache
    *occupancy* secret-dependent: the last access to fill the set is
    never the one evicted, so whether load A issues before or after the
    filler swarm shifts P(A resident) — a statistical channel.

    Interference target/gadget are the GDNPEU ones; the W fillers'
    addresses become ready between A's baseline and interfered issue
    times (the load port serializes them, spreading their accesses).
    """
    b = ProgramBuilder()
    b.alu("z", [], lambda: 1, latency=30, port=5, name="z")
    prev = "z"
    for i in range(4):
        b.alu(f"f{i}", [prev], lambda v: v + 1, latency=15, port=0, name=f"f{i}")
        prev = f"f{i}"
    b.load("ya", [prev], lambda v: ADDR_A, name="load A")
    prev = "z"
    for i in range(10):
        b.alu(f"g{i}", [prev], lambda v: v + 1, latency=5, port=1, name=f"g{i}")
        prev = f"g{i}"
    filler_lines = []
    for k in range(num_fillers):
        line = _addr_in_set(SET_A, way=2 + k)  # congruent with A
        filler_lines.append(line)
        b.load(f"fill{k}", [prev], lambda v, line=line: line, name=f"filler{k}")
    chase_reg = _emit_chase(b, hops=2)
    b.branch_if(["i", chase_reg], lambda i, n: i < n, "body", name="victim branch")
    b.jump("end")
    b.label("body")
    b.load("sec", [], lambda: ADDR_SECRET, name="access")
    b.load("x", ["sec"], lambda s: ADDR_S + s * LINE, name="transmitter")
    for i in range(8):
        b.alu(f"fp{i}", ["x"], lambda v: v + 1, latency=15, port=0, name=f"gadget{i}")
    b.label("end")
    b.halt()
    program = b.build()
    branch_slot = next(
        s for s, inst in enumerate(program) if inst.name == "victim branch"
    )
    return VictimSpec(
        name="gdnpeu-occupancy",
        gadget="gdnpeu",
        ordering="occupancy",
        program=program,
        registers={"i": 1},
        memory_image={ADDR_CHASE0: ADDR_CHASE1, ADDR_CHASE1: 0},
        branch_slot=branch_slot,
        secret_addr=ADDR_SECRET,
        prime_l1=[ADDR_SECRET, ADDR_S + LINE],
        flush_lines=[ADDR_A, ADDR_S, ADDR_CHASE0, ADDR_CHASE1] + filler_lines,
        line_a=ADDR_A,
        line_b=None,
        notes=f"W+1 occupancy sender ({num_fillers} fillers, §6 CleanupSpec)",
    )


#: RS-constrained core used by the GIRS victim (the paper's gadget sizes
#: scale with the RS; a smaller RS keeps simulations fast).
GIRS_CORE_CONFIG = CoreConfig(rs_size=32, fetch_queue_size=8)


def girs_victim(
    *,
    num_adds: int = 64,
    transmitter_delay: int = 3,
) -> VictimSpec:
    """The GIRS victim (Figure 5, §4.3 variant).

    The target instruction sits on its own cold I-line *inside* the
    mis-speculated path: it is fetched — leaving a persistent I-cache/LLC
    fill — iff the transmitter load hits (secret=0), because a missing
    transmitter strands ``num_adds`` dependent adds in the RS, stalls
    dispatch, fills the fetch queue and freezes the frontend until the
    squash (§4.3: fetched iff the RS never filled).
    """
    b = ProgramBuilder()
    b.load("n0", [], lambda: ADDR_CHASE0, name="chase0")
    b.branch_if(["i", "n0"], lambda i, n: i < n, "body", name="victim branch")
    b.jump("end")
    b.label("body")
    b.load("sec", [], lambda: ADDR_SECRET, name="access")
    prev = "sec"
    for i in range(transmitter_delay):
        b.alu(f"d{i}", [prev], lambda v: v, latency=3, port=5, name=f"delay{i}")
        prev = f"d{i}"
    # secret=0 -> ADDR_S (primed, hit); secret=1 -> ADDR_S+64 (flushed).
    b.load("x", [prev], lambda s: ADDR_S + s * LINE, name="transmitter")
    for i in range(num_adds):
        b.alu(
            f"s{i}",
            ["x"],
            lambda v, i=i: v + i,
            port=1 if i % 2 else 5,
            name="rs add",
        )
    b.align_to_line()
    b.label("girs_target")
    b.nop(name="target instr")
    b.nop(name="target pad")
    # The correct-path join point must live on a *different* I-line than
    # the target, or the post-squash fetch would touch the target line.
    b.align_to_line()
    b.label("end")
    b.halt()
    program = b.build()
    branch_slot = next(
        s for s, inst in enumerate(program) if inst.name == "victim branch"
    )
    target_line = program.address_of_label("girs_target") & ~(LINE - 1)
    return VictimSpec(
        name="girs",
        gadget="girs",
        ordering="vi-ad",
        program=program,
        registers={"i": 1},
        memory_image={ADDR_CHASE0: 0},
        branch_slot=branch_slot,
        secret_addr=ADDR_SECRET,
        prime_l1=[ADDR_SECRET, ADDR_S],
        flush_lines=[ADDR_S + LINE, ADDR_CHASE0],
        line_a=None,
        line_b=None,
        target_label="girs_target",
        cold_ilines=[target_line],
        core_config=GIRS_CORE_CONFIG,
        notes="implicit gadget; RS back-pressure throttles fetch (Fig. 5)",
    )


# ----------------------------------------------------------------------
# victim registry
# ----------------------------------------------------------------------
#: Factory registry so sweep specs can reference victims *by name*: a
#: :class:`VictimSpec` holds a :class:`~repro.isa.program.Program` full
#: of lambdas and is therefore unpicklable — parallel sweep workers
#: rebuild it from ``(name, kwargs)`` on their side of the process
#: boundary instead.
class _ForwardFactory:
    """Lazy registry entry for the forward family:
    ``repro.workloads.forward`` imports this module for the shared
    address constants, so its factories are resolved at call time
    rather than import time."""

    def __init__(self, name: str) -> None:
        self.name = name

    def resolve(self) -> Callable[..., VictimSpec]:
        """The forward factory this entry calls today."""
        from repro.workloads.forward import FORWARD_VICTIM_FACTORIES

        return FORWARD_VICTIM_FACTORIES[self.name]

    def __call__(self, **kwargs: Any) -> VictimSpec:
        return self.resolve()(**kwargs)


VICTIM_FACTORIES: Dict[str, Callable[..., VictimSpec]] = {
    "gdnpeu": gdnpeu_victim,
    "gdmshr": gdmshr_victim,
    "girs": girs_victim,
    "gdnpeu-arith": gdnpeu_arith_victim,
    "gdnpeu-architectural": gdnpeu_architectural_victim,
    "gdnpeu-store": gdnpeu_store_victim,
    "gdnpeu-occupancy": gdnpeu_occupancy_victim,
    "fwd-eu": _ForwardFactory("fwd-eu"),
    "fwd-mshr": _ForwardFactory("fwd-mshr"),
    "fwd-rs": _ForwardFactory("fwd-rs"),
}

#: Most victims :func:`victim_by_name` keeps built at once, least
#: recently used out first.  Table 1, the forward grid and the
#: reconciliation use 14; the bound stops a sweep over kwargs from
#: growing the memo without limit.
VICTIM_MEMO_SIZE = 64

_victims: "OrderedDict[Tuple[Any, ...], VictimSpec]" = OrderedDict()
_victims_lock = threading.Lock()


class _Unkeyable(Exception):
    """A kwarg value outside plain data: the victim is built unshared."""


def _canonical(value: Any) -> Tuple[Any, ...]:
    """Hashable form of one kwarg value that keeps its exact type:
    ``1``, ``1.0`` and ``True`` (equal, and equally hashed, in Python),
    or a list and a tuple of the same items, never share a victim.
    Covers what the service codec decodes: ``None``, bools, ints,
    floats and strings, in tuples, lists and dicts."""
    kind = type(value)
    if kind is float:
        # repr keeps -0.0 apart from 0.0, which compare equal.
        return (kind, repr(value))
    if kind in (bool, int, str, type(None)):
        return (kind, value)
    if kind in (tuple, list):
        return (kind, tuple(_canonical(item) for item in value))
    if kind is dict:
        return (
            kind,
            tuple((_canonical(k), _canonical(v)) for k, v in value.items()),
        )
    raise _Unkeyable(kind.__name__)


def victim_by_name(name: str, **kwargs: Any) -> VictimSpec:
    """The victim a registry name and factory kwargs describe (the
    picklable reference sweep specs carry).

    Built once per process: calls with equal kwargs share one immutable
    :class:`VictimSpec` while it stays among the
    :data:`VICTIM_MEMO_SIZE` most recently used.  The memo keys on the
    factory the registry entry calls, so a patched entry is never
    served a victim built by the one it replaced.  Kwargs that are not
    plain data build an unshared victim.
    """
    try:
        factory = VICTIM_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown victim '{name}'; known: {', '.join(sorted(VICTIM_FACTORIES))}"
        ) from None
    if isinstance(factory, _ForwardFactory):
        factory = factory.resolve()
    try:
        key = (
            factory,
            tuple(sorted((k, _canonical(v)) for k, v in kwargs.items())),
        )
    except _Unkeyable:
        return factory(**kwargs)
    with _victims_lock:
        victim = _victims.get(key)
        if victim is not None:
            _victims.move_to_end(key)
            return victim
    victim = factory(**kwargs)
    with _victims_lock:
        # A thread that built the same victim meanwhile stored it first.
        victim = _victims.setdefault(key, victim)
        while len(_victims) > VICTIM_MEMO_SIZE:
            _victims.popitem(last=False)
    return victim
