"""Classic Spectre v1 (§1): the baseline attack invisible speculation
schemes are designed to stop.

``if (i < N) { j = A[i]; B[j]; }`` — a mistrained bounds check lets a
mis-speculated load read out-of-bounds data and transmit it through a
secret-indexed cache fill.  :func:`spectre_leak_trial` runs the attack
under any scheme and reports what a Flush+Reload attacker recovers:

* under the unsafe baseline, the secret;
* under every invisible-speculation scheme, nothing — which is the
  paper's starting point ("prior work has shown significant success", §1)
  before the interference attacks break them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.memory.hierarchy import HierarchyConfig
from repro.pipeline.branch import TwoBitPredictor
from repro.pipeline.scheme_api import SpeculationScheme
from repro.schemes.registry import make_scheme
from repro.system.agent import AttackerAgent
from repro.system.machine import Machine

LINE = 64
ARRAY_BASE = 0x180_000
PROBE_BASE = 0x190_000
BOUND_ADDR = 0x1A0_000


@dataclass
class SpectreV1:
    """A Spectre v1 victim: bounds-checked array read + probe access."""

    program: Program
    branch_slot: int
    array_base: int = ARRAY_BASE
    probe_base: int = PROBE_BASE
    bound_addr: int = BOUND_ADDR
    in_bounds_len: int = 4
    num_values: int = 16

    def probe_line(self, value: int) -> int:
        return self.probe_base + value * LINE


def build_spectre_v1(*, num_values: int = 16) -> SpectreV1:
    """The victim code of Figure 1 / Spectre variant 1."""
    b = ProgramBuilder()
    # The bound N is loaded from memory (flushed by the attacker, so the
    # bounds check resolves slowly -- the speculation window).
    b.load("n", [], lambda: BOUND_ADDR, name="load bound")
    # if (i < N): in-bounds work, else skip.  The attack path is the
    # *taken* direction (trained), with i out of bounds.
    b.branch_if(["i", "n"], lambda i, n: i < n, "in_bounds", name="bounds check")
    b.jump("done")
    b.label("in_bounds")
    b.load("j", ["i"], lambda i: ARRAY_BASE + i * 8, name="A[i]")
    b.load("probe", ["j"], lambda j: PROBE_BASE + j * LINE, name="B[j]")
    b.label("done")
    b.halt()
    program = b.build()
    branch_slot = next(
        s for s, inst in enumerate(program) if inst.name == "bounds check"
    )
    return SpectreV1(program=program, branch_slot=branch_slot, num_values=num_values)


@dataclass
class SpectreLeakResult:
    secret: int
    recovered: Optional[int]
    hits: List[int]
    scheme: str

    @property
    def leaked(self) -> bool:
        return self.recovered == self.secret


def spectre_leak_trial(
    scheme: Union[str, SpeculationScheme],
    secret: int,
    *,
    out_of_bounds_index: int = 64,
    hierarchy_config: Optional[HierarchyConfig] = None,
    num_values: int = 16,
    max_cycles: int = 20_000,
) -> SpectreLeakResult:
    """One end-to-end Spectre v1 attempt against ``scheme``."""
    from repro.core.victims import ATTACK_HIERARCHY  # shared geometry

    victim = build_spectre_v1(num_values=num_values)
    scheme_obj = scheme if isinstance(scheme, SpeculationScheme) else make_scheme(scheme)
    machine = Machine(
        num_cores=3, hierarchy_config=hierarchy_config or ATTACK_HIERARCHY
    )
    hierarchy = machine.hierarchy
    # Victim memory: in-bounds bound value, and the "secret" placed out
    # of bounds at A[out_of_bounds_index].
    hierarchy.memory.write(victim.bound_addr, victim.in_bounds_len)
    hierarchy.memory.write(victim.array_base + out_of_bounds_index * 8, secret)
    machine.warm_icache(0, victim.program)
    # A[i] line resides in cache so the access load is fast.
    machine.warm_data(0, [victim.array_base + out_of_bounds_index * 8], level="L1")

    attacker = AttackerAgent(machine, 2)
    attacker.flush(victim.bound_addr)
    for v in range(num_values):
        attacker.flush(victim.probe_line(v))

    predictor = TwoBitPredictor()
    predictor.train(victim.branch_slot, True, times=4)
    core = machine.attach(
        0,
        victim.program,
        scheme_obj,
        predictor=predictor,
        registers={"i": out_of_bounds_index},
    )
    machine.run(until=lambda: core.halted, max_cycles=max_cycles)

    hits = []
    for v in range(num_values):
        if attacker.timed_read(victim.probe_line(v)).hit:
            hits.append(v)
    recovered = hits[0] if len(hits) == 1 else None
    return SpectreLeakResult(
        secret=secret, recovered=recovered, hits=hits, scheme=scheme_obj.name
    )
