"""Forward speculative interference victims ("It's a Trap!", Aimoniotis
et al., 2021).

The paper's gadgets are *backward*: younger squashed instructions leave
timing fingerprints that the attacker reads off the squashed window
itself.  The forward family inverts the direction — the attacker times
**older, speculation-invariant instructions** (bound to retire under
every prediction outcome), and the younger mis-speculated window
perturbs them through shared resources before it squashes:

* :func:`forward_eu_victim` (``fwd-eu``) — a younger ALU op whose
  latency is a function of the speculatively-loaded secret occupies the
  non-pipelined port an older, bound-to-retire ALU chain needs; the
  chain's dependent load A shifts by the secret-dependent occupancy.
* :func:`forward_mshr_victim` (``fwd-mshr``) — a younger load fan-out
  either coalesces onto one line (secret 0) or exhausts the L1-D MSHR
  file (secret 1) while older demand misses are outstanding; the older
  load A's miss is delayed past the reference load B.
* :func:`forward_rs_victim` (``fwd-rs``) — a younger transmitter load
  plus a dependent swarm overfills a small reservation station iff the
  transmitter misses; whether the trailing port-0 contenders dispatch
  before the squash — and hence delay the older chain — is
  secret-dependent.

In every victim the *monitored* instructions (loads A and B) are older
than the mistrained branch: their execution and retirement are
invariant under speculation, only their **timing/ordering** carries the
bit.  That is precisely the channel the invisible-speculation schemes
(InvisiSpec/SafeSpec/MuonTrap/CleanupSpec, and DoM for the EU/RS
variants) declare out of scope, and the reason the three-way matrix
(``repro.staticcheck.crossval.reconcile_verdicts``) shows them leaking
while fence, STT (taint-gated transmitters) and the priority defense
(EU preemption + operand-independent RS holds) stay clean.

:class:`ForwardReceiver` decodes the secret from a single trial with
Table 1's predicates (:func:`repro.core.matrix.order_flips`,
:func:`~repro.core.matrix.line_signal`): order(A, B) when it flips with
the secret, else nearest-neighbour on load A's first visible access.

:func:`random_forward_gadget` generates randomized members of the
family for property-based testing: every generated program is valid by
construction and carries a forward-interference finding
(:func:`repro.staticcheck.detectors.detect_forward_interference`) —
the generator is *sound* against the static detector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.matrix import MARGIN, line_signal, order_flips
from repro.core.victims import (
    ADDR_A,
    ADDR_B,
    ADDR_CHASE0,
    ADDR_CHASE1,
    ADDR_S,
    ADDR_SECRET,
    LINE,
    VictimSpec,
    _emit_chase,
)
from repro.isa.builder import ProgramBuilder
from repro.pipeline.config import CoreConfig

#: RS-constrained core for the RS-pressure variant (same shape as the
#: G-IRS core: the swarm must be able to overfill the station quickly).
FORWARD_RS_CORE_CONFIG = CoreConfig(rs_size=32, fetch_queue_size=8)


def _emit_invariant_receiver(
    b: ProgramBuilder,
    *,
    z_latency: int,
    f_len: int,
    f_latency: int,
    g_len: int,
    g_latency: int,
) -> None:
    """The speculation-invariant timed pair every forward victim times.

    ``z -> f0..f{n} (port 0, non-pipelined) -> load A`` against
    ``z -> g0..g{m} (port 1, pipelined) -> load B``: both chains are
    older than the victim branch, so A and B execute and retire under
    every prediction outcome.  Only younger-window interference on
    port 0 / the memory system moves A relative to B.
    """
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


def _find_branch_slot(program, name: str = "victim branch") -> int:
    return next(s for s, inst in enumerate(program) if inst.name == name)


def forward_eu_victim(
    *,
    z_latency: int = 30,
    f_len: int = 4,
    f_latency: int = 15,
    g_len: int = 12,
    g_latency: int = 5,
    fast_latency: int = 2,
    slow_latency: int = 120,
    followers: int = 4,
    chase_hops: int = 2,
) -> VictimSpec:
    """EU-port preemption: the younger window's data-dependent-latency
    op (``fast_latency`` iff secret 0, ``slow_latency`` iff secret 1)
    plus its port-0 followers occupy the non-pipelined unit the older
    f-chain needs, shifting load A by the secret-dependent occupancy.

    The secret never reaches a speculative *address* — the only
    transmitter is execution-unit time, which is why invisible-
    speculation schemes (and DoM: the secret load is a primed L1 hit)
    leak while STT gates the operand-dependent op and the priority
    defense preempts the unit for the bound-to-retire chain.
    """
    b = ProgramBuilder()
    _emit_invariant_receiver(
        b,
        z_latency=z_latency,
        f_len=f_len,
        f_latency=f_latency,
        g_len=g_len,
        g_latency=g_latency,
    )
    chase_reg = _emit_chase(b, hops=chase_hops)
    b.branch_if(["i", chase_reg], lambda i, n: i < n, "body", name="victim branch")
    b.jump("end")
    b.label("body")
    b.load("sec", [], lambda: ADDR_SECRET, name="access")
    b.alu(
        "x",
        ["sec"],
        lambda s: s * 7 + 1,
        port=0,
        name="fwd preempt",
        dynamic_latency=lambda s, fast=fast_latency, slow=slow_latency: (
            fast if s == 0 else slow
        ),
    )
    for i in range(followers):
        b.alu(f"fp{i}", ["x"], lambda v: v + 1, latency=f_latency, port=0, name=f"fwd{i}")
    b.label("end")
    b.halt()
    program = b.build()
    return VictimSpec(
        name="fwd-eu",
        gadget="forward",
        ordering="vd-vd",
        program=program,
        registers={"i": 1},
        memory_image={ADDR_CHASE0: ADDR_CHASE1, ADDR_CHASE1: 0},
        branch_slot=_find_branch_slot(program),
        secret_addr=ADDR_SECRET,
        prime_l1=[ADDR_SECRET],
        flush_lines=[ADDR_A, ADDR_B, ADDR_CHASE0, ADDR_CHASE1],
        line_a=ADDR_A,
        line_b=ADDR_B,
        notes=(
            "forward interference via EU-port preemption: younger "
            "secret-latency op delays the older bound-to-retire f-chain"
        ),
    )


def forward_mshr_victim(
    *,
    num_loads: int = 8,
    a_chain: int = 8,
    b_chain: int = 18,
    chain_latency: int = 5,
) -> VictimSpec:
    """MSHR occupancy: the younger fan-out loads ``ADDR_S + s*k*LINE``
    coalesce onto one line (secret 0) or claim ``num_loads`` distinct
    flushed lines (secret 1), exhausting the 8-entry L1-D MSHR file
    while the older load A's demand miss is outstanding — A's fill is
    delayed past reference load B.

    Leaks exactly on the schemes whose speculative misses still occupy
    MSHRs (the unsafe baseline and every invisible-speculation shadow
    structure); DoM/CondSpec issue no speculative miss requests at all
    and STT gates the tainted addresses, so they stay clean.
    """
    b = ProgramBuilder()
    b.alu("z", [], lambda: 1, latency=10, port=5, name="z")
    prev = "z"
    for i in range(a_chain):
        b.alu(f"za{i}", [prev], lambda v: v + 1, latency=chain_latency, port=1, name=f"za{i}")
        prev = f"za{i}"
    b.load("ya", [prev], lambda v: ADDR_A, name="load A")
    prev = "z"
    for i in range(b_chain):
        b.alu(f"zb{i}", [prev], lambda v: v + 1, latency=chain_latency, port=5, name=f"zb{i}")
        prev = f"zb{i}"
    b.load("yb", [prev], lambda v: ADDR_S + LINE, name="load B")
    chase_reg = _emit_chase(b, hops=2)
    b.branch_if(["i", chase_reg], lambda i, n: i < n, "body", name="victim branch")
    b.jump("end")
    b.label("body")
    b.load("sec", [], lambda: ADDR_SECRET, name="access")
    for k in range(num_loads):
        b.load(f"x{k}", ["sec"], lambda s, k=k: ADDR_S + s * LINE * k, name=f"mshr{k}")
    b.label("end")
    b.halt()
    program = b.build()
    gadget_lines = [ADDR_S + k * LINE for k in range(num_loads)]
    return VictimSpec(
        name="fwd-mshr",
        gadget="forward",
        ordering="vd-vd",
        program=program,
        registers={"i": 1},
        memory_image={ADDR_CHASE0: ADDR_CHASE1, ADDR_CHASE1: 0},
        branch_slot=_find_branch_slot(program),
        secret_addr=ADDR_SECRET,
        prime_l1=[ADDR_SECRET],
        flush_lines=[ADDR_A, ADDR_B, ADDR_CHASE0, ADDR_CHASE1] + gadget_lines,
        line_a=ADDR_A,
        line_b=(ADDR_S + LINE) & ~(LINE - 1),
        notes=(
            "forward interference via MSHR occupancy: younger miss "
            "fan-out delays the older bound-to-retire demand miss"
        ),
    )


def forward_rs_victim(
    *,
    num_adds: int = 40,
    followers: int = 4,
    f_latency: int = 15,
    chase_hops: int = 2,
) -> VictimSpec:
    """RS pressure gating EU contention: the younger transmitter load
    hits (secret 0) or misses (secret 1); a miss strands ``num_adds``
    dependent ops in the 32-entry reservation station, freezing the
    frontend so the trailing port-0 contenders never dispatch before
    the squash.  On a hit the swarm drains and the contenders delay the
    older f-chain — load A's timing carries the bit.

    Value prediction (``dom-nontso-vp``) is clean by construction: the
    predicted miss drains the swarm in both runs.  STT gates the
    transmitter (stranding the swarm in both runs) and the priority
    defense makes RS occupancy operand-independent and preempts the
    unit — both clean.
    """
    b = ProgramBuilder()
    _emit_invariant_receiver(
        b, z_latency=30, f_len=4, f_latency=f_latency, g_len=12, g_latency=5
    )
    chase_reg = _emit_chase(b, hops=chase_hops)
    b.branch_if(["i", chase_reg], lambda i, n: i < n, "body", name="victim branch")
    b.jump("end")
    b.label("body")
    b.load("sec", [], lambda: ADDR_SECRET, name="access")
    # secret=0 -> ADDR_S (primed, hit); secret=1 -> ADDR_S+64 (flushed).
    b.load("x", ["sec"], lambda s: ADDR_S + s * LINE, name="transmitter")
    for i in range(num_adds):
        b.alu(f"s{i}", ["x"], lambda v, i=i: v + i, port=1 if i % 2 else 5, name="rs add")
    for i in range(followers):
        b.alu(f"fp{i}", [], lambda: 1, latency=f_latency, port=0, name=f"fwd{i}")
    b.label("end")
    b.halt()
    program = b.build()
    return VictimSpec(
        name="fwd-rs",
        gadget="forward",
        ordering="vd-vd",
        program=program,
        registers={"i": 1},
        memory_image={ADDR_CHASE0: ADDR_CHASE1, ADDR_CHASE1: 0},
        branch_slot=_find_branch_slot(program),
        secret_addr=ADDR_SECRET,
        prime_l1=[ADDR_SECRET, ADDR_S],
        flush_lines=[ADDR_A, ADDR_B, ADDR_S + LINE, ADDR_CHASE0, ADDR_CHASE1],
        line_a=ADDR_A,
        line_b=ADDR_B,
        core_config=FORWARD_RS_CORE_CONFIG,
        notes=(
            "forward interference via RS pressure: secret-dependent "
            "frontend freeze gates younger EU contention on older work"
        ),
    )


#: Name -> factory for the forward family (merged into the global
#: victim registry by :mod:`repro.core.victims`, lazily, so sweep
#: workers can rebuild these by name like every other victim).
FORWARD_VICTIM_FACTORIES: Dict[str, Callable[..., VictimSpec]] = {
    "fwd-eu": forward_eu_victim,
    "fwd-mshr": forward_mshr_victim,
    "fwd-rs": forward_rs_victim,
}

FORWARD_VICTIMS = tuple(sorted(FORWARD_VICTIM_FACTORIES))


# ----------------------------------------------------------------------
# receiver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ForwardCalibration:
    """Per-(victim, scheme) decode thresholds, learned from one known
    run per secret value."""

    line_a: int
    line_b: Optional[int]
    #: order(A, B) seen with each secret (``None`` when unavailable).
    order0: Optional[str]
    order1: Optional[str]
    #: First visible access of line A with each secret.
    t0: Optional[int]
    t1: Optional[int]
    margin: int

    @property
    def order_usable(self) -> bool:
        return order_flips(self.order0, self.order1)

    @property
    def shift_usable(self) -> bool:
        return line_signal(self.t0, self.t1, self.margin) == "shift"

    @property
    def usable(self) -> bool:
        return self.order_usable or self.shift_usable


class ForwardReceiver:
    """Decode the secret from the timing/ordering of the older,
    speculation-invariant loads A and B of a forward victim.

    The receiver never looks at the squashed window: everything it
    reads — ``order(A, B)`` and load A's first visible access — is
    produced by instructions that retire under every prediction
    outcome, which is exactly what makes the channel survive
    invisible-speculation schemes.
    """

    def __init__(self, spec: VictimSpec, calibration: ForwardCalibration) -> None:
        if spec.line_a is None:
            raise ValueError(f"victim {spec.name!r} has no monitored line A")
        self.spec = spec
        self.calibration = calibration

    @classmethod
    def calibrate(
        cls,
        spec: VictimSpec,
        scheme: str,
        *,
        margin: int = MARGIN,
        max_cycles: int = 40_000,
        seed: int = 0,
    ) -> "ForwardReceiver":
        """Learn the decode thresholds by running one trial per secret
        (the attacker's offline profiling phase)."""
        # Function-level import: the harness imports victims, which
        # lazily imports this module for the registry entries.
        from repro.core.harness import run_victim_trial

        if spec.line_a is None:
            raise ValueError(f"victim {spec.name!r} has no monitored line A")
        r0 = run_victim_trial(spec, scheme, 0, seed=seed, max_cycles=max_cycles)
        r1 = run_victim_trial(spec, scheme, 1, seed=seed, max_cycles=max_cycles)
        orders = [None, None]
        if spec.line_b is not None:
            orders = [r.order(spec.line_a, spec.line_b) for r in (r0, r1)]
        calibration = ForwardCalibration(
            line_a=spec.line_a,
            line_b=spec.line_b,
            order0=orders[0],
            order1=orders[1],
            t0=r0.first_access(spec.line_a),
            t1=r1.first_access(spec.line_a),
            margin=margin,
        )
        return cls(spec, calibration)

    def decode(self, result) -> Optional[int]:
        """The secret bit one trial (``TrialResult`` or
        ``TrialSummary``) encodes, or ``None`` when the calibrated
        channel shows no signal under this scheme.

        Order is preferred (exact); otherwise load A's first access is
        matched to the nearer calibrated time.
        """
        cal = self.calibration
        if cal.order_usable and cal.line_b is not None:
            order = result.order(cal.line_a, cal.line_b)
            if order == cal.order0:
                return 0
            if order == cal.order1:
                return 1
        if cal.shift_usable:
            t = result.first_access(cal.line_a)
            if t is not None:
                assert cal.t0 is not None and cal.t1 is not None
                return 0 if abs(t - cal.t0) <= abs(t - cal.t1) else 1
        return None

    def decode_trial(
        self, scheme: str, secret: int, *, seed: int = 0, max_cycles: int = 40_000
    ) -> Optional[int]:
        """Run one live trial with ``secret`` planted and decode it."""
        from repro.core.harness import run_victim_trial

        result = run_victim_trial(
            self.spec, scheme, secret, seed=seed, max_cycles=max_cycles
        )
        return self.decode(result)


# ----------------------------------------------------------------------
# randomized gadget generation (property-test fodder)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ForwardGadgetConfig:
    """Knobs for :func:`random_forward_gadget`.

    Every generated program keeps the forward skeleton — an older
    may-be-pending op, a mistrained branch, a younger tainted op on the
    same port — and randomizes everything else (chain lengths,
    latencies, contended port, junk filler, follower count)."""

    max_prelude: int = 6
    max_followers: int = 6
    max_junk: int = 4
    min_pending_latency: int = 5
    max_latency: int = 40


#: Ports a generated gadget may contend on: the non-pipelined unit and
#: the two ALU ports (an older ALU with latency >= the pending
#: threshold is may-be-pending on any of them).
_CONTENDABLE_PORTS = (0, 1, 5)


def random_forward_gadget(
    seed: int, config: Optional[ForwardGadgetConfig] = None
) -> VictimSpec:
    """Deterministically generate a randomized forward-interference
    victim.

    Soundness contract (property-tested): the built program always
    passes :class:`~repro.isa.program.Program` validation, and
    :func:`repro.staticcheck.detectors.detect_forward_interference`
    always reports the family for it — the window op is tainted by the
    speculative secret load and shares its issue port with an older,
    bound-to-retire op whose latency keeps it plausibly pending.
    """
    cfg = config or ForwardGadgetConfig()
    rng = random.Random(seed)
    port = rng.choice(_CONTENDABLE_PORTS)
    pending_latency = rng.randint(cfg.min_pending_latency, cfg.max_latency)

    b = ProgramBuilder()
    b.alu("z", [], lambda: 1, latency=rng.randint(1, 8), port=5, name="z")
    prev = "z"
    # Older, bound-to-retire contender (+ random prelude around it).
    for i in range(rng.randint(0, cfg.max_prelude)):
        b.alu(
            f"p{i}",
            [prev],
            lambda v, i=i: v + i,
            latency=rng.randint(1, 4),
            port=rng.choice((1, 5)),
            name=f"prelude{i}",
        )
        prev = f"p{i}"
    b.alu(
        "old",
        [prev],
        lambda v: v + 1,
        latency=pending_latency,
        port=port,
        name="older pending",
    )
    b.load("ya", ["old"], lambda v: ADDR_A, name="load A")
    chase_reg = _emit_chase(b, hops=rng.randint(1, 2))
    b.branch_if(["i", chase_reg], lambda i, n: i < n, "body", name="victim branch")
    b.jump("end")
    b.label("body")
    b.load("sec", [], lambda: ADDR_SECRET, name="access")
    # Tainted contender on the same port: latency either static-long or
    # operand-dependent — both forward-family transmitters.
    if rng.random() < 0.5:
        b.alu(
            "y",
            ["sec"],
            lambda s: s + 3,
            port=port,
            name="fwd contender",
            dynamic_latency=lambda s, lo=2, hi=rng.randint(20, 160): (
                lo if s == 0 else hi
            ),
        )
    else:
        b.alu(
            "y",
            ["sec"],
            lambda s: s + 3,
            latency=rng.randint(cfg.min_pending_latency, cfg.max_latency),
            port=port,
            name="fwd contender",
        )
    for i in range(rng.randint(0, cfg.max_followers)):
        b.alu(
            f"fw{i}",
            ["y"],
            lambda v, i=i: v + i,
            latency=rng.randint(1, 16),
            port=port,
            name=f"fwd follower{i}",
        )
    for i in range(rng.randint(0, cfg.max_junk)):
        b.alu(f"j{i}", [], lambda i=i: i, latency=1, port=rng.choice((1, 5)), name=f"junk{i}")
    b.label("end")
    b.halt()
    program = b.build()
    return VictimSpec(
        name=f"fwd-rand-{seed}",
        gadget="forward",
        ordering="vd-vd",
        program=program,
        registers={"i": 1},
        memory_image={ADDR_CHASE0: ADDR_CHASE1, ADDR_CHASE1: 0},
        branch_slot=_find_branch_slot(program),
        secret_addr=ADDR_SECRET,
        prime_l1=[ADDR_SECRET],
        flush_lines=[ADDR_A, ADDR_B, ADDR_CHASE0, ADDR_CHASE1],
        line_a=ADDR_A,
        line_b=None,
        notes=f"randomized forward gadget (seed {seed}, port {port})",
    )


__all__ = [
    "FORWARD_RS_CORE_CONFIG",
    "FORWARD_VICTIMS",
    "FORWARD_VICTIM_FACTORIES",
    "ForwardCalibration",
    "ForwardGadgetConfig",
    "ForwardReceiver",
    "forward_eu_victim",
    "forward_mshr_victim",
    "forward_rs_victim",
    "random_forward_gadget",
]
