"""Multi-core machine: lockstep stepping over a shared hierarchy."""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.isa.program import Program
from repro.memory.hierarchy import CacheHierarchy, HierarchyConfig
from repro.pipeline.branch import BranchPredictor
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core, CycleBudgetError
from repro.pipeline.scheme_api import SpeculationScheme

#: The core configuration of every machine built without one: frozen,
#: so one instance serves them all.
DEFAULT_CORE_CONFIG = CoreConfig()


class Machine:
    """N cores sharing one LLC, stepped in lockstep.

    Cores are *attached* lazily; un-attached core slots exist only as
    private caches (available to :class:`~repro.system.agent.AttackerAgent`
    receivers and noise injectors).
    """

    def __init__(
        self,
        num_cores: int = 2,
        *,
        hierarchy_config: Optional[HierarchyConfig] = None,
        core_config: Optional[CoreConfig] = None,
    ) -> None:
        self.hierarchy = CacheHierarchy(num_cores, hierarchy_config)
        self.num_cores = num_cores
        self.default_core_config = core_config or DEFAULT_CORE_CONFIG
        self.cores: Dict[int, Core] = {}
        self.cycle = 0
        self._cycle_hooks: List[Callable[[int], None]] = []
        self._scheduled: List[Tuple[int, int, Callable[[], None]]] = []
        self._schedule_counter = 0
        #: Human-readable trial identity, baked into DeadlockErrors.
        self.trial_context: Optional[str] = None
        #: Optional deterministic fault source (repro.runner.faults),
        #: consulted once per machine cycle when installed.  Installing
        #: one disables idle fast-forwarding so a fault scheduled for
        #: cycle N fires exactly at N.
        self.fault_injector = None
        #: Optional :class:`repro.trace.Tracer` wired in by
        #: ``repro.trace.install_tracer(tracer, machine=...)``.
        self.tracer = None

    # ------------------------------------------------------------------
    def attach(
        self,
        core_id: int,
        program: Program,
        scheme: Optional[SpeculationScheme] = None,
        *,
        config: Optional[CoreConfig] = None,
        predictor: Optional[BranchPredictor] = None,
        registers: Optional[Dict[str, int]] = None,
        tracer=None,
    ) -> Core:
        """Create a core running ``program`` under ``scheme``."""
        if not 0 <= core_id < self.num_cores:
            raise ValueError(f"core_id {core_id} out of range")
        if core_id in self.cores:
            raise ValueError(f"core {core_id} already attached")
        core = Core(
            core_id,
            program,
            self.hierarchy,
            scheme,
            config=config or self.default_core_config,
            predictor=predictor,
            registers=registers,
            tracer=tracer or self.tracer,
        )
        self.cores[core_id] = core
        return core

    def detach(self, core_id: int) -> None:
        self.cores.pop(core_id, None)

    # ------------------------------------------------------------------
    def add_cycle_hook(self, hook: Callable[[int], None]) -> None:
        """``hook(cycle)`` runs at the start of every machine cycle."""
        self._cycle_hooks.append(hook)

    def schedule(self, at_cycle: int, action: Callable[[], None]) -> None:
        """Run ``action`` at the start of ``at_cycle`` (attacker's
        fixed-time reference accesses, §3.3)."""
        self._schedule_counter += 1
        heapq.heappush(self._scheduled, (at_cycle, self._schedule_counter, action))

    # ------------------------------------------------------------------
    def step(self) -> None:
        self.cycle += 1
        if self.tracer is not None:
            # Scheduled attacker/noise actions run before any core steps;
            # give their hierarchy events the right cycle stamp.
            self.tracer.cycle = self.cycle
        if self.fault_injector is not None:
            self.fault_injector.on_cycle(self)
        while self._scheduled and self._scheduled[0][0] <= self.cycle:
            _, _, action = heapq.heappop(self._scheduled)
            action()
        for hook in self._cycle_hooks:
            hook(self.cycle)
        for core in self.cores.values():
            if not core.halted:
                core.step(self.cycle)

    def run(
        self,
        *,
        max_cycles: int = 1_000_000,
        until: Optional[Callable[[], bool]] = None,
        fast_forward: Optional[bool] = None,
    ) -> int:
        """Step until every attached core halts (or ``until`` fires).

        ``fast_forward`` skips runs of provably idle cycles (every core
        quiescent, no scheduled action, no cycle hook) while reproducing
        per-cycle statistics exactly — see ``Core.next_event_cycle``.
        The default (``None``) enables it only when ``until`` is not
        given: an ``until`` predicate may observe the cycle counter
        itself, which skipping would overshoot.  Pass ``True`` only when
        the predicate depends on state that changes in ``step`` (e.g.
        ``lambda: core.halted``).

        Returns the final cycle count.
        """
        if fast_forward is None:
            fast_forward = until is None
        start = self.cycle
        # The run-level deadlock horizon: never skip past it, so the
        # budget check raises at exactly the cycle stepping would.
        horizon = start + max_cycles + 1
        cores = self.cores
        while True:
            cycle = self.cycle
            if until is not None:
                if until():
                    return cycle
            elif cores:
                for core in cores.values():
                    if not core.halted:
                        break
                else:
                    return cycle  # every attached core halted
            if cycle - start >= max_cycles:
                raise CycleBudgetError(
                    f"machine exceeded {max_cycles} cycles without finishing",
                    cycle=cycle,
                    context=self.trial_context,
                )
            if fast_forward and not self._cycle_hooks and self.fault_injector is None:
                # Jump to the latest cycle every live core can reach
                # without missing an event: one cycle before the earliest
                # wake-up of any core or scheduled action.  A core that
                # must step next cycle (None) stops the jump.
                wake = horizon
                live = False
                for core in cores.values():
                    if core.halted:
                        continue
                    core_wake = core.next_event_cycle()
                    if core_wake is None:
                        break
                    live = True
                    if core_wake < wake:
                        wake = core_wake
                else:
                    if self._scheduled and self._scheduled[0][0] < wake:
                        wake = self._scheduled[0][0]
                    if live and wake - 1 > cycle:
                        for core in cores.values():
                            if not core.halted:
                                core.fast_forward(wake - 1)
                        self.cycle = wake - 1
                        continue
            self.step()

    def run_cycles(self, n: int) -> None:
        for _ in range(n):
            self.step()

    # ------------------------------------------------------------------
    def warm_icache(
        self, core_id: int, program: Program, *, cold: Iterable[int] = ()
    ) -> None:
        """Pre-fill a core's I-side for every program line except the
        lines of ``cold`` addresses (:meth:`Program.warm_lines`),
        bypassing the visible-access log (stand-in for a prior warm-up
        run)."""
        line_size = self.hierarchy.llc.layout.line_size
        for line in program.warm_lines(line_size, cold):
            self.hierarchy.llc.fill(line, update=False)
            self.hierarchy.l2[core_id].fill(line, update=False)
            self.hierarchy.l1i[core_id].fill(line, update=False)

    def warm_data(self, core_id: int, addrs, *, level: str = "L1") -> None:
        """Pre-install data lines ('priming the cache prior to the
        attack', §3.2.2), bypassing the visible log."""
        for addr in addrs:
            line = self.hierarchy.llc.layout.line_addr(addr)
            self.hierarchy.llc.fill(line, update=False)
            if level in ("L1", "L2"):
                self.hierarchy.l2[core_id].fill(line, update=False)
            if level == "L1":
                self.hierarchy.l1d[core_id].fill(line, update=False)
