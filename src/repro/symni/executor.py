"""Bounded lockstep symbolic executor over ``repro.isa`` programs.

Architecture: the *architectural* (committed) execution runs once, in
lockstep over all secret assignments, with every register a
:class:`~repro.isa.symbolic.SymVal` (one concrete lane per assignment)
and per-lane memory/cache-warmth state.  At each conditional branch the
executor simulates the **mispredicted** direction as a bounded
speculative window — per lane, because speculation schemes make
lane-dependent decisions (a load may hit in one lane and miss in the
other) — and appends the window's attacker-visible footprint to each
lane's :class:`~repro.symni.observables.ObservableTrace`.

The window model is an abstract dataflow-timing walk driven by the same
:class:`~repro.staticcheck.resources.ResourceSummary` facts the static
detectors use, plus the scheme's :class:`~repro.symni.model.SchemeModel`:

* value availability propagates through operands (a DELAYed or gated
  load strands its dependents);
* reservation-station pressure from stranded micro-ops freezes the
  frontend at ``rs_size`` (G-IRS), with ``hold_rs_until_safe`` making
  occupancy — hence the freeze point — operand-independent;
* misses occupy MSHRs; spec fan-out plus outstanding older misses
  reaching capacity emits an ``mshr-exhaust`` observation (GD-MSHR);
* execution on a *contended non-pipelined port* (an older bound-to-
  retire instruction uses the same port and may still be pending)
  emits ``port-busy`` intervals (GD-NPEU), suppressed when the scheme
  preempts EUs for older work;
* visible loads emit ``spec-access``; unprotected fetches of cold
  instruction lines emit ``spec-ifetch`` with their abstract fetch
  tick;
* every younger-window resource emission is *attributed forward*: the
  :class:`OlderContext` of the branch records which older, bound-to-
  retire slots are plausibly still in flight, ``port-busy`` and
  ``mshr-exhaust`` carry the affected slots in ``older_slots``, and
  each ``port-busy`` is twinned with a ``fwd-preempt`` observation —
  the forward-interference reading ("It's a Trap!", Aimoniotis et al.,
  2021) of the same occupancy, naming the speculation-invariant
  instructions whose timing it perturbs.

Everything is bounded (:class:`CheckBounds`); hitting a bound sets
``truncated`` so a clean verdict can honestly say "up to the bound".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.victims import ATTACK_HIERARCHY, VictimSpec
from repro.isa.instructions import Instruction, OpClass
from repro.isa.program import Program
from repro.isa.symbolic import Assignment, SecretSpace, SymVal, sym_apply
from repro.memory.hierarchy import HierarchyConfig
from repro.pipeline.config import CoreConfig
from repro.staticcheck.resources import ResourceSummary, summarize_resources
from repro.symni.model import LoadPolicy, SchemeModel
from repro.symni.observables import (
    KIND_ARCH_ACCESS,
    KIND_ARCH_IFETCH,
    KIND_CTRL_DIVERGE,
    KIND_FWD_PREEMPT,
    KIND_MSHR_EXHAUST,
    KIND_PORT_BUSY,
    KIND_SPEC_ACCESS,
    KIND_SPEC_IFETCH,
    ObservableTrace,
    Observation,
)

LINE = 64

#: Completion-time sentinel for "never completes inside this window".
NEVER = 10**9


@dataclass(frozen=True)
class CheckBounds:
    """Exploration bounds.  A clean verdict is a proof *up to* these."""

    #: Committed instructions executed before the check gives up.
    max_arch_steps: int = 4096
    #: Instructions walked per speculative window (the depth bound; the
    #: hardware analogue is the ROB capacity past the branch).
    max_window_instrs: int = 256
    #: Total speculative windows explored across the run.
    max_windows: int = 64

    def describe(self) -> str:
        return (
            f"arch<={self.max_arch_steps} window<={self.max_window_instrs} "
            f"windows<={self.max_windows}"
        )


@dataclass(frozen=True)
class OlderContext:
    """The bound-to-retire instructions older than one branch — the
    forward-interference *victims* a mis-speculated window can perturb.

    ``contended_ports`` are the non-pipelined ports an older plausibly-
    pending instruction occupies (the classic GD-NPEU precondition);
    ``pending_by_port`` maps **every** port to the older plausibly-
    pending slots on it (forward attribution for ``older_slots``);
    ``load_slots`` are all older load slots (the demand misses an MSHR
    exhaust delays).
    """

    contended_ports: FrozenSet[int]
    pending_by_port: Tuple[Tuple[int, Tuple[int, ...]], ...]
    load_slots: Tuple[int, ...]

    @property
    def older_load_count(self) -> int:
        return len(self.load_slots)

    def pending_on(self, port: int) -> Tuple[int, ...]:
        for p, slots in self.pending_by_port:
            if p == port:
                return slots
        return ()


@dataclass
class _Lane:
    """Per-secret-assignment mutable state."""

    assignment: Assignment
    mem: Dict[int, int]
    warm_data: Set[int]
    warm_inst: Set[int]
    older_load_misses: int = 0
    trace: List[Observation] = field(default_factory=list)


@dataclass(frozen=True)
class ExecutionResult:
    """Everything the checker needs from one lockstep execution."""

    assignments: Tuple[Assignment, ...]
    traces: Tuple[ObservableTrace, ...]
    windows_explored: int
    retired: int
    truncated: bool
    notes: Tuple[str, ...]


def _line_of(addr: int) -> int:
    return addr & ~(LINE - 1)


class SymniExecutor:
    """Lockstep two-run product execution of one program + scheme model."""

    def __init__(
        self,
        program: Program,
        model: SchemeModel,
        *,
        secret_addr: int,
        registers: Optional[Mapping[str, int]] = None,
        memory_image: Optional[Mapping[int, int]] = None,
        prime_l1: Sequence[int] = (),
        flush_lines: Sequence[int] = (),
        cold_ilines: Sequence[int] = (),
        core_config: Optional[CoreConfig] = None,
        hierarchy_config: Optional[HierarchyConfig] = None,
        space: Optional[SecretSpace] = None,
        bounds: Optional[CheckBounds] = None,
    ) -> None:
        self.program = program
        self.model = model
        self.secret_addr = secret_addr
        self.registers = dict(registers or {})
        self.memory_image = dict(memory_image or {})
        self.space = space or SecretSpace.bit()
        self.bounds = bounds or CheckBounds()
        self.core_config = core_config or CoreConfig()
        hierarchy = hierarchy_config or ATTACK_HIERARCHY
        self.hit_latency = hierarchy.l1d.latency
        self.miss_latency = hierarchy.dram_latency + hierarchy.l1d.latency
        self.mshr_capacity = hierarchy.l1d_mshrs
        self.rs_size = self.core_config.rs_size
        self.resources: Dict[int, ResourceSummary] = summarize_resources(
            program, self.core_config
        )
        # Initial cache warmth mirrors the trial harness: warm every
        # program I-line except the deliberately cold ones, prime the
        # spec's data lines, then apply the flushes.
        self._init_warm_inst = program.warm_lines(LINE, cold_ilines)
        self._init_warm_data = {_line_of(a) for a in prime_l1} - {
            _line_of(a) for a in flush_lines
        }
        self._older_context_cache: Dict[int, OlderContext] = {}

    @classmethod
    def for_victim(
        cls,
        spec: VictimSpec,
        model: SchemeModel,
        *,
        space: Optional[SecretSpace] = None,
        bounds: Optional[CheckBounds] = None,
        hierarchy_config: Optional[HierarchyConfig] = None,
    ) -> "SymniExecutor":
        return cls(
            spec.program,
            model,
            secret_addr=spec.secret_addr,
            registers=spec.registers,
            memory_image=spec.memory_image,
            prime_l1=spec.prime_l1,
            flush_lines=spec.flush_lines,
            cold_ilines=spec.cold_ilines,
            core_config=spec.core_config,
            hierarchy_config=hierarchy_config,
            space=space,
            bounds=bounds,
        )

    # ------------------------------------------------------------------
    def run(self) -> ExecutionResult:
        space = self.space
        assignments = space.assignments()
        lanes = []
        for assignment in assignments:
            mem = dict(self.memory_image)
            secret_value = 0
            for name, value in assignment:
                secret_value = value  # single-variable spaces; the last
                # variable wins for multi-variable spaces written to one
                # address (callers needing distinct addresses pass their
                # own memory_image per variable).
            mem[self.secret_addr] = secret_value
            lanes.append(
                _Lane(
                    assignment=assignment,
                    mem=mem,
                    warm_data=set(self._init_warm_data),
                    warm_inst=set(self._init_warm_inst),
                )
            )

        regs: Dict[str, SymVal] = {
            name: space.lift(value, expr=name)
            for name, value in self.registers.items()
        }
        notes: List[str] = []
        truncated = False
        windows = 0
        pc = 0
        steps = 0
        last_iline: Optional[int] = None
        program = self.program

        while pc < len(program):
            if steps >= self.bounds.max_arch_steps:
                truncated = True
                notes.append(
                    f"architectural execution truncated at "
                    f"{self.bounds.max_arch_steps} step(s)"
                )
                break
            inst = program.at(pc)
            iline = _line_of(program.address_of_slot(pc))
            if iline != last_iline:
                for lane in lanes:
                    lane.trace.append(
                        Observation(KIND_ARCH_IFETCH, time=steps, line=iline)
                    )
                last_iline = iline
            steps += 1

            if inst.opclass is OpClass.HALT:
                break
            if inst.opclass in (OpClass.NOP, OpClass.FENCE):
                pc += 1
                continue
            if inst.opclass is OpClass.ALU:
                vals = self._operands(regs, inst, space)
                assert inst.dst is not None and inst.compute is not None
                regs[inst.dst] = sym_apply(
                    space, inst.compute, *vals, expr=inst.name or inst.dst
                )
                pc += 1
                continue
            if inst.opclass is OpClass.LOAD:
                addr = self._address(regs, inst, space)
                values = []
                for idx, lane in enumerate(lanes):
                    a = addr.lane(idx)
                    line = _line_of(a)
                    lane.trace.append(
                        Observation(
                            KIND_ARCH_ACCESS,
                            time=steps,
                            line=line,
                            detail=inst.name or "load",
                        )
                    )
                    if line not in lane.warm_data:
                        lane.older_load_misses += 1
                        lane.warm_data.add(line)
                    values.append(lane.mem.get(a, 0))
                assert inst.dst is not None
                regs[inst.dst] = SymVal(
                    space=space,
                    values=tuple(values),
                    expr=f"mem[{inst.name or addr.expr}]",
                )
                pc += 1
                continue
            if inst.opclass is OpClass.STORE:
                addr = self._address(regs, inst, space)
                assert inst.value_src is not None
                value = regs.get(inst.value_src, space.lift(0))
                for idx, lane in enumerate(lanes):
                    a = addr.lane(idx)
                    line = _line_of(a)
                    lane.trace.append(
                        Observation(
                            KIND_ARCH_ACCESS,
                            time=steps,
                            line=line,
                            detail=inst.name or "store",
                        )
                    )
                    lane.mem[a] = value.lane(idx)
                    lane.warm_data.add(line)
                pc += 1
                continue

            # BRANCH
            assert inst.opclass is OpClass.BRANCH
            target = program.branch_target_slot(pc)
            if inst.unconditional:
                pc = target
                continue
            vals = self._operands(regs, inst, space)
            assert inst.compute is not None
            cond = sym_apply(
                space,
                lambda *a: int(bool(inst.compute(*a))),  # type: ignore[misc]
                *vals,
                expr=inst.name or "branch",
            )
            if not cond.is_uniform:
                # The committed control flow itself is secret-dependent:
                # an architectural leak no speculation scheme addresses.
                for idx, lane in enumerate(lanes):
                    taken = bool(cond.lane(idx))
                    next_slot = target if taken else pc + 1
                    lane.trace.append(
                        Observation(
                            KIND_CTRL_DIVERGE,
                            time=steps,
                            line=_line_of(program.address_of_slot(next_slot)),
                            detail=(
                                f"branch@{pc} {'taken' if taken else 'not-taken'}"
                            ),
                        )
                    )
                notes.append(
                    f"architectural control divergence at branch slot {pc}; "
                    "execution not compared further"
                )
                break
            taken = bool(cond.concrete())
            mispredicted_entry = pc + 1 if taken else target
            if windows >= self.bounds.max_windows:
                truncated = True
                notes.append(
                    f"window budget ({self.bounds.max_windows}) exhausted "
                    f"at branch slot {pc}"
                )
            elif mispredicted_entry < len(program):
                windows += 1
                direction = "not-taken" if taken else "taken"
                for idx, lane in enumerate(lanes):
                    regs_lane = {
                        name: val.lane(idx) for name, val in regs.items()
                    }
                    win_truncated = self._simulate_window(
                        lane,
                        regs_lane,
                        entry_slot=mispredicted_entry,
                        branch_slot=pc,
                        direction=direction,
                    )
                    if win_truncated:
                        truncated = True
                        notes.append(
                            f"window at branch {pc} ({direction}) truncated "
                            f"at {self.bounds.max_window_instrs} instr(s) "
                            f"for {dict(lane.assignment)}"
                        )
            pc = target if taken else pc + 1

        return ExecutionResult(
            assignments=tuple(assignments),
            traces=tuple(tuple(lane.trace) for lane in lanes),
            windows_explored=windows,
            retired=steps,
            truncated=truncated,
            notes=tuple(dict.fromkeys(notes)),
        )

    # ------------------------------------------------------------------
    def _operands(
        self, regs: Dict[str, SymVal], inst: Instruction, space: SecretSpace
    ) -> List[SymVal]:
        return [regs.get(src, space.lift(0, expr=src)) for src in inst.srcs]

    def _address(
        self, regs: Dict[str, SymVal], inst: Instruction, space: SecretSpace
    ) -> SymVal:
        vals = self._operands(regs, inst, space)
        assert inst.compute is not None
        return sym_apply(space, inst.compute, *vals, expr=inst.name or "addr")

    def _older_context(self, branch_slot: int) -> OlderContext:
        """The bound-to-retire context of slots fetched before
        ``branch_slot`` — what a mis-speculated window can interfere
        with, and *which* older instructions each emission is
        attributed to (forward interference)."""
        cached = self._older_context_cache.get(branch_slot)
        if cached is not None:
            return cached
        contended: Set[int] = set()
        pending_by_port: Dict[int, List[int]] = {}
        load_slots: List[int] = []
        for slot in range(branch_slot):
            summary = self.resources[slot]
            if summary.is_load:
                load_slots.append(slot)
            if summary.may_be_pending():
                pending_by_port.setdefault(summary.port, []).append(slot)
                if not summary.pipelined:
                    contended.add(summary.port)
        context = OlderContext(
            contended_ports=frozenset(contended),
            pending_by_port=tuple(
                (port, tuple(slots))
                for port, slots in sorted(pending_by_port.items())
            ),
            load_slots=tuple(load_slots),
        )
        self._older_context_cache[branch_slot] = context
        return context

    # ------------------------------------------------------------------
    def _simulate_window(
        self,
        lane: _Lane,
        regs: Dict[str, int],
        *,
        entry_slot: int,
        branch_slot: int,
        direction: str,
    ) -> bool:
        """Walk the mispredicted path for one lane; append its footprint
        to ``lane.trace``.  Returns True when the instruction bound was
        hit (truncation)."""
        model = self.model
        program = self.program
        resources = self.resources
        older = self._older_context(branch_slot)
        contended_ports = older.contended_ports
        older_loads = older.older_load_count
        window_tag = f"w{branch_slot}/{direction}"

        # reg -> (value or None when unavailable, ready tick)
        values: Dict[str, Tuple[Optional[int], int]] = {
            name: (value, 0) for name, value in regs.items()
        }
        #: (completion tick, micro_ops) of every dispatched instruction.
        dispatched: List[Tuple[int, int]] = []
        #: lines this window filled visibly / buffered invisibly.
        fills: Set[int] = set()
        shadow: Set[int] = set()
        #: distinct missing lines the window requested (MSHR demand).
        mshr_lines: Set[int] = set()
        mshr_reported = False
        tainted: Set[str] = set()
        obs: List[Observation] = []

        t = 0  # frontend clock, ticks (1 tick per dispatched instruction)
        slot = entry_slot
        count = 0
        last_iline: Optional[int] = None
        frozen = False

        while 0 <= slot < len(program):
            if count >= self.bounds.max_window_instrs:
                lane.trace.extend(obs)
                return True
            inst = program.at(slot)
            summary = resources[slot]

            # -- frontend: I-line fetch ---------------------------------
            iline = _line_of(program.address_of_slot(slot))
            if iline != last_iline:
                last_iline = iline
                if iline not in lane.warm_inst:
                    # Cold-line fetch: reaches the shared LLC.
                    if not model.protects_icache:
                        obs.append(
                            Observation(
                                KIND_SPEC_IFETCH,
                                time=t,
                                line=iline,
                                detail=window_tag,
                            )
                        )
                        # Unprotected speculative I-fills persist past
                        # the squash (that persistence *is* G-IRS §4.3).
                        lane.warm_inst.add(iline)

            # -- reservation-station pressure (G-IRS) -------------------
            while True:
                if model.hold_rs_until_safe:
                    # Rule 1 (§5.4): every dispatched instruction holds
                    # its slots until squash — occupancy is operand-
                    # independent, and a full RS freezes until squash.
                    pressure = sum(mo for _, mo in dispatched)
                    if pressure + inst.micro_ops > self.rs_size:
                        frozen = True
                    break
                pending = [(c, mo) for c, mo in dispatched if c > t]
                pressure = sum(mo for _, mo in pending)
                if pressure + inst.micro_ops <= self.rs_size:
                    break
                soonest = min((c for c, _ in pending), default=NEVER)
                if soonest >= NEVER:
                    frozen = True  # stranded forever: frontend frozen
                    break
                t = soonest  # frontend unfreezes when slots free up
            if frozen:
                break

            count += 1
            t += 1

            # -- execute ------------------------------------------------
            if inst.opclass is OpClass.HALT:
                dispatched.append((t, inst.micro_ops))
                break
            if inst.opclass is OpClass.NOP:
                dispatched.append((t, inst.micro_ops))
                slot += 1
                continue
            if inst.opclass is OpClass.FENCE:
                # A fence does not execute speculatively; everything
                # younger waits behind it until the squash.
                dispatched.append((NEVER, inst.micro_ops))
                break

            if model.policy is LoadPolicy.NO_ISSUE:
                # Nothing speculative issues at all: every instruction
                # strands in the RS until the squash.
                if inst.dst is not None:
                    values[inst.dst] = (None, NEVER)
                dispatched.append((NEVER, inst.micro_ops))
                slot = self._next_slot(slot, inst, values, program)
                continue

            operands = [values.get(src, (0, 0)) for src in inst.srcs]
            if inst.opclass is OpClass.STORE and inst.value_src is not None:
                operands.append(values.get(inst.value_src, (0, 0)))
            blocked = any(value is None for value, _ in operands)
            gated = (
                model.taint_gated
                and self._is_transmitter(inst, summary)
                and any(
                    src in tainted
                    for src in (
                        inst.srcs
                        + ((inst.value_src,) if inst.value_src else ())
                    )
                )
            )
            if blocked or gated:
                if inst.dst is not None:
                    values[inst.dst] = (None, NEVER)
                dispatched.append((NEVER, inst.micro_ops))
                if inst.opclass is OpClass.BRANCH:
                    # Unresolvable nested branch: follow the static
                    # not-taken prediction.
                    slot = program.branch_target_slot(slot) if inst.unconditional else slot + 1
                else:
                    slot += 1
                continue

            ready = max([r for _, r in operands], default=0)
            start = max(ready, t)
            vals = [value for value, _ in operands[: len(inst.srcs)]]

            if inst.opclass is OpClass.LOAD:
                slot, completion = self._window_load(
                    lane,
                    inst,
                    slot,
                    vals,
                    start,
                    fills,
                    shadow,
                    mshr_lines,
                    values,
                    tainted,
                    obs,
                    window_tag,
                    older_loads,
                )
                dispatched.append((completion, inst.micro_ops))
                if (
                    not mshr_reported
                    and older_loads > 0
                    and mshr_lines
                    and len(mshr_lines) + lane.older_load_misses
                    >= self.mshr_capacity
                ):
                    # GD-MSHR: speculative miss fan-out plus outstanding
                    # bound-to-retire misses exhaust the file, delaying
                    # older demand misses.
                    mshr_reported = True
                    obs.append(
                        Observation(
                            KIND_MSHR_EXHAUST,
                            time=start,
                            older_slots=older.load_slots,
                            detail=(
                                f"{window_tag} fanout={len(mshr_lines)}"
                                f"+{lane.older_load_misses} older"
                            ),
                        )
                    )
                continue

            if inst.opclass is OpClass.STORE:
                # Speculative stores live in the store buffer: no memory
                # access, no visible state, nothing for MSHRs.
                dispatched.append((start + 1, inst.micro_ops))
                slot += 1
                continue

            if inst.opclass is OpClass.BRANCH:
                assert inst.compute is not None
                taken = bool(inst.compute(*vals))
                dispatched.append((start + inst.latency, inst.micro_ops))
                slot = program.branch_target_slot(slot) if (taken or inst.unconditional) else slot + 1
                continue

            # ALU
            assert inst.opclass is OpClass.ALU and inst.compute is not None
            latency = (
                int(inst.dynamic_latency(*vals))
                if inst.dynamic_latency is not None
                else inst.latency
            )
            completion = start + latency
            if inst.dst is not None:
                values[inst.dst] = (int(inst.compute(*vals)), completion)
                if model.taint_gated and any(s in tainted for s in inst.srcs):
                    tainted.add(inst.dst)
            dispatched.append((completion, inst.micro_ops))
            if (
                summary.port in contended_ports
                and not summary.pipelined
                and not model.preempt_eus
            ):
                # GD-NPEU: secret-dependent occupancy of a serializing
                # unit an older bound-to-retire instruction needs — and
                # its forward twin, attributing the preemption to the
                # specific older in-flight slots whose timing it moves.
                affected = older.pending_on(summary.port)
                obs.append(
                    Observation(
                        KIND_PORT_BUSY,
                        time=start,
                        port=summary.port,
                        duration=latency,
                        older_slots=affected,
                        detail=f"{window_tag} {inst.name or 'alu'}",
                    )
                )
                obs.append(
                    Observation(
                        KIND_FWD_PREEMPT,
                        time=start,
                        port=summary.port,
                        duration=latency,
                        older_slots=affected,
                        detail=f"{window_tag} {inst.name or 'alu'}",
                    )
                )
            slot += 1

        lane.trace.extend(obs)
        return False

    # ------------------------------------------------------------------
    def _window_load(
        self,
        lane: _Lane,
        inst: Instruction,
        slot: int,
        vals: List[Optional[int]],
        start: int,
        fills: Set[int],
        shadow: Set[int],
        mshr_lines: Set[int],
        values: Dict[str, Tuple[Optional[int], int]],
        tainted: Set[str],
        obs: List[Observation],
        window_tag: str,
        older_loads: int,
    ) -> Tuple[int, int]:
        """Execute one speculative load under the model's policy.
        Returns (next slot, completion tick)."""
        model = self.model
        assert inst.compute is not None
        addr = int(inst.compute(*vals))
        line = _line_of(addr)
        hit = line in lane.warm_data or line in fills or line in shadow
        policy = model.policy

        if policy is LoadPolicy.VISIBLE:
            completion = start + (
                self.hit_latency if hit else self.miss_latency
            )
            obs.append(
                Observation(
                    KIND_SPEC_ACCESS,
                    time=start,
                    line=line,
                    detail=f"{window_tag} {inst.name or 'load'}",
                )
            )
            value: Optional[int] = lane.mem.get(addr, 0)
            if not hit:
                mshr_lines.add(line)
                fills.add(line)
                if not model.undo_fills:
                    # Squash does not undo normal cache fills.
                    lane.warm_data.add(line)
        elif policy is LoadPolicy.INVISIBLE:
            completion = start + (
                self.hit_latency if hit else self.miss_latency
            )
            value = lane.mem.get(addr, 0)
            if not hit:
                mshr_lines.add(line)
                shadow.add(line)  # MSHR/shadow coalescing within the window
        elif policy is LoadPolicy.DELAY_ON_MISS:
            if hit:
                completion = start + self.hit_latency
                value = lane.mem.get(addr, 0)
            else:
                completion = NEVER
                value = None  # delayed until safe: dependents strand
        elif policy is LoadPolicy.PREDICT_ON_MISS:
            completion = start + self.hit_latency
            # A predicted miss returns as fast as a hit with no request
            # at all; the last-value predictor's cold default is 0.
            value = lane.mem.get(addr, 0) if hit else 0
        else:  # pragma: no cover - NO_ISSUE handled by the caller
            raise RuntimeError(f"unexpected load policy {policy}")

        if inst.dst is not None:
            values[inst.dst] = (value, completion)
            if model.taint_gated and value is not None:
                # A speculative load's result is a fresh taint root.
                tainted.add(inst.dst)
        return slot + 1, completion

    @staticmethod
    def _next_slot(
        slot: int,
        inst: Instruction,
        values: Dict[str, Tuple[Optional[int], int]],
        program: Program,
    ) -> int:
        """Frontend-only successor when the instruction cannot execute:
        unconditional branches redirect, everything else falls through."""
        if inst.opclass is OpClass.BRANCH and inst.unconditional:
            return program.branch_target_slot(slot)
        return slot + 1

    @staticmethod
    def _is_transmitter(inst: Instruction, summary: ResourceSummary) -> bool:
        """STT's transmitter class: operand-dependent resource usage."""
        if inst.opclass in (OpClass.LOAD, OpClass.STORE, OpClass.BRANCH):
            return True
        return summary.operand_dependent
