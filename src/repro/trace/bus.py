"""The event bus: a :class:`Tracer` collects :class:`TraceEvent`\\ s.

Design constraints (these are what make the observer invisible):

* **Free when off.**  Every instrumentation point in the simulator is
  guarded by ``t = self.tracer`` / ``if t is not None``: the disabled
  cost is a single attribute load, so sweep and fast-forward throughput
  are untouched.
* **Read-only when on.**  ``emit`` never touches simulator state — it
  only appends to the tracer's buffer — so traced and untraced trials
  are bit-identical (the differential invisibility test enforces this).
* **Transition-based.**  Components emit only when state *changes*
  (a load parks, a scheme decision flips, a cache line fills), never
  per idle cycle, so traces are identical with idle fast-forward on or
  off and stay compact enough to check into git as golden files.

The tracer doubles as mutable context: :class:`~repro.system.machine.
Machine` and :class:`~repro.memory.hierarchy.CacheHierarchy` stamp
``tracer.cycle`` / ``tracer.core`` as the simulation advances so leaf
components (caches, MSHR files) that do not know the current cycle or
requesting core can still attribute their events correctly.  This is
sound because the simulation is single-threaded and lock-stepped.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    List,
    Optional,
    Union,
)

from repro.trace.events import EventKind, Scalar, TraceEvent, coerce_kinds

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.hierarchy import CacheHierarchy
    from repro.pipeline.core import Core
    from repro.system.machine import Machine


class Tracer:
    """Collects structured events from an instrumented simulation.

    Parameters
    ----------
    kinds:
        Optional iterable of :class:`EventKind` (or their string values)
        to keep; everything else is dropped at the emission site.  Used
        to keep golden traces compact.
    sink:
        Optional callable invoked with each kept event *in addition to*
        buffering (e.g. streaming JSONL to a file during long runs).
    """

    __slots__ = ("events", "cycle", "core", "_kinds", "_sink")

    def __init__(
        self,
        *,
        kinds: Optional[Iterable[Union[EventKind, str]]] = None,
        sink: Optional[Callable[[TraceEvent], None]] = None,
    ) -> None:
        self.events: List[TraceEvent] = []
        #: Current simulated cycle (stamped by Machine/Core/hierarchy).
        self.cycle: int = 0
        #: Core id of the component currently executing, when known.
        self.core: Optional[int] = None
        self._kinds = coerce_kinds(kinds)
        self._sink = sink

    # ------------------------------------------------------------------
    def emit(
        self,
        kind: EventKind,
        *,
        cycle: Optional[int] = None,
        core: Optional[int] = None,
        seq: Optional[int] = None,
        instr: Optional[str] = None,
        **args: Scalar,
    ) -> None:
        """Record one event.

        ``cycle`` and ``core`` default to the tracer's current context
        (set by the machine / hierarchy as the simulation advances), so
        leaf components can omit them.
        """
        if self._kinds is not None and kind not in self._kinds:
            return
        event = TraceEvent(
            cycle=self.cycle if cycle is None else cycle,
            kind=kind,
            core=self.core if core is None else core,
            seq=seq,
            instr=instr,
            args=tuple(sorted(args.items())) if args else (),
        )
        self.events.append(event)
        if self._sink is not None:
            self._sink(event)

    # ------------------------------------------------------------------
    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def filtered(
        self,
        *,
        kinds: Optional[Iterable[Union[EventKind, str]]] = None,
        instr: Optional[str] = None,
        seq: Optional[int] = None,
        core: Optional[int] = None,
    ) -> List[TraceEvent]:
        """Post-hoc view of the buffer (CLI ``--kind`` / ``--instr``)."""
        wanted = coerce_kinds(kinds)
        out = []
        for e in self.events:
            if wanted is not None and e.kind not in wanted:
                continue
            if instr is not None and e.instr != instr:
                continue
            if seq is not None and e.seq != seq:
                continue
            if core is not None and e.core != core:
                continue
            out.append(e)
        return out


# ----------------------------------------------------------------------
# wiring
# ----------------------------------------------------------------------
def install_tracer_on_core(tracer: Optional[Tracer], core: "Core") -> None:
    """Attach ``tracer`` to one core and all components it owns."""
    core.tracer = tracer
    core.lsu.tracer = tracer
    core.cdb.tracer = tracer
    for eu in core.eus:
        eu.tracer = tracer


def install_tracer_on_hierarchy(
    tracer: Optional[Tracer], hierarchy: "CacheHierarchy"
) -> None:
    """Attach ``tracer`` to a cache hierarchy, its caches and MSHRs."""
    hierarchy.tracer = tracer
    for cache in hierarchy.all_caches():
        cache.tracer = tracer
    for mshrs in hierarchy.l1d_mshrs:
        mshrs.tracer = tracer


def install_tracer(
    tracer: Optional[Tracer],
    *,
    machine: Optional["Machine"] = None,
    core: Optional["Core"] = None,
) -> Optional[Tracer]:
    """Wire a tracer into a machine (all cores + memory system) or a
    single bare core.  Passing ``None`` uninstalls (every hook reverts
    to the free no-op path).  Returns the tracer for chaining.
    """
    if machine is not None:
        machine.tracer = tracer
        install_tracer_on_hierarchy(tracer, machine.hierarchy)
        for c in machine.cores.values():
            install_tracer_on_core(tracer, c)
    if core is not None:
        install_tracer_on_core(tracer, core)
        install_tracer_on_hierarchy(tracer, core.hierarchy)
    return tracer
