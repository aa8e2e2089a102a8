"""Structured run statistics: one report object per machine run.

Aggregates core pipeline counters and cache-hierarchy counters into a
serializable report — the gem5-style ``stats.txt`` equivalent for this
simulator.  Used by the workload benches and handy for downstream users
profiling their own programs.

:func:`machine_metrics` projects the same counters (plus per-stage
latency histograms, when a trace is available) into a hierarchical
:class:`repro.trace.MetricsRegistry`, which is what the sweep runner
aggregates across trials and dumps as JSONL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline.core import Core
from repro.system.machine import Machine
from repro.trace.events import EventKind, TraceEvent
from repro.trace.metrics import MetricsRegistry


@dataclass
class CacheLevelStats:
    name: str
    hits: int
    misses: int
    fills: int
    evictions: int

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.fills,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class CoreReport:
    core_id: int
    cycles: int
    retired: int
    ipc: float
    branches: int
    mispredicts: int
    squashes: int
    squashed_instrs: int
    rs_full_stalls: int
    rob_full_stalls: int
    icache_miss_stalls: int
    fetch_stall_cycles: int
    eu_preemptions: int
    mshr_peak: int
    scheme: str

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "core": self.core_id,
            "scheme": self.scheme,
            "cycles": self.cycles,
            "retired": self.retired,
            "ipc": round(self.ipc, 4),
            "branches": self.branches,
            "mispredicts": self.mispredicts,
            "mispredict_rate": round(self.mispredict_rate, 4),
            "squashes": self.squashes,
            "squashed_instrs": self.squashed_instrs,
            "rs_full_stalls": self.rs_full_stalls,
            "rob_full_stalls": self.rob_full_stalls,
            "icache_miss_stalls": self.icache_miss_stalls,
            "fetch_stall_cycles": self.fetch_stall_cycles,
            "eu_preemptions": self.eu_preemptions,
            "mshr_peak": self.mshr_peak,
        }


@dataclass
class MachineReport:
    cycles: int
    cores: List[CoreReport]
    caches: List[CacheLevelStats]
    visible_llc_accesses: int
    dram_reads: int
    dram_writes: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "cycles": self.cycles,
            "cores": [c.as_dict() for c in self.cores],
            "caches": [c.as_dict() for c in self.caches],
            "visible_llc_accesses": self.visible_llc_accesses,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
        }

    def render(self) -> str:
        lines = [f"machine: {self.cycles} cycles"]
        for core in self.cores:
            lines.append(
                f"  core {core.core_id} [{core.scheme}]: "
                f"retired={core.retired} ipc={core.ipc:.2f} "
                f"branches={core.branches} "
                f"mispredict_rate={core.mispredict_rate:.2%} "
                f"squashes={core.squashes}"
            )
        for cache in self.caches:
            lines.append(
                f"  {cache.name}: {cache.accesses} accesses, "
                f"hit rate {cache.hit_rate:.2%}, "
                f"{cache.evictions} evictions"
            )
        lines.append(
            f"  LLC visible accesses: {self.visible_llc_accesses}; "
            f"DRAM reads/writes: {self.dram_reads}/{self.dram_writes}"
        )
        return "\n".join(lines)


def _cache_stats(cache) -> CacheLevelStats:
    return CacheLevelStats(
        name=cache.name,
        hits=cache.stats.hits,
        misses=cache.stats.misses,
        fills=cache.stats.fills,
        evictions=cache.stats.evictions,
    )


def core_report(core: Core) -> CoreReport:
    return CoreReport(
        core_id=core.core_id,
        cycles=core.stats.cycles,
        retired=core.stats.retired,
        ipc=core.stats.ipc,
        branches=core.stats.branches,
        mispredicts=core.stats.mispredicts,
        squashes=core.stats.squashes,
        squashed_instrs=core.stats.squashed_instrs,
        rs_full_stalls=core.stats.rs_full_stalls,
        rob_full_stalls=core.stats.rob_full_stalls,
        icache_miss_stalls=core.stats.icache_miss_stalls,
        fetch_stall_cycles=core.stats.fetch_stall_cycles,
        eu_preemptions=core.stats.eu_preemptions,
        mshr_peak=core.hierarchy.l1d_mshrs[core.core_id].peak_occupancy,
        scheme=core.scheme.name,
    )


def machine_report(machine: Machine) -> MachineReport:
    hierarchy = machine.hierarchy
    caches = []
    for core_id in sorted(machine.cores):
        caches.append(_cache_stats(hierarchy.l1i[core_id]))
        caches.append(_cache_stats(hierarchy.l1d[core_id]))
        caches.append(_cache_stats(hierarchy.l2[core_id]))
    caches.append(_cache_stats(hierarchy.llc))
    return MachineReport(
        cycles=machine.cycle,
        cores=[core_report(core) for _, core in sorted(machine.cores.items())],
        caches=caches,
        visible_llc_accesses=len(hierarchy.visible_log),
        dram_reads=hierarchy.memory.reads,
        dram_writes=hierarchy.memory.writes,
    )


# ----------------------------------------------------------------------
# hierarchical metrics
# ----------------------------------------------------------------------
_CORE_COUNTERS = (
    "cycles",
    "fetched",
    "dispatched",
    "issued",
    "retired",
    "branches",
    "mispredicts",
    "squashes",
    "squashed_instrs",
    "icache_miss_stalls",
    "fetch_stall_cycles",
    "rs_full_stalls",
    "rob_full_stalls",
    "eu_preemptions",
)

#: Per-stage transitions turned into latency histograms when a trace is
#: supplied: (metric name, from-kind, to-kind).
_STAGE_LATENCIES = (
    ("stage.fetch_to_dispatch", EventKind.FETCH, EventKind.DISPATCH),
    ("stage.dispatch_to_issue", EventKind.DISPATCH, EventKind.ISSUE),
    ("stage.issue_to_execute", EventKind.ISSUE, EventKind.EXECUTE),
    ("stage.execute_to_writeback", EventKind.EXECUTE, EventKind.WRITEBACK),
    ("stage.writeback_to_commit", EventKind.WRITEBACK, EventKind.COMMIT),
)


def _core_metrics(reg: MetricsRegistry, core: Core) -> None:
    p = f"core{core.core_id}"
    for name in _CORE_COUNTERS:
        reg.inc(f"{p}.pipeline.{name}", getattr(core.stats, name))
    lsu = core.lsu
    reg.inc(f"{p}.lsu.delayed", lsu.stats_delayed)
    reg.inc(f"{p}.lsu.mshr_blocked_cycles", lsu.stats_mshr_blocked_cycles)
    reg.inc(f"{p}.lsu.invisible", lsu.stats_invisible)
    reg.inc(f"{p}.lsu.forwards", lsu.stats_forwards)
    reg.inc(f"{p}.lsu.predicted", lsu.stats_predicted)
    for eu in core.eus:
        ep = f"{p}.eu{eu.port_index}"
        reg.inc(f"{ep}.issues", eu.issues)
        reg.inc(f"{ep}.busy_cycles", eu.busy_cycles)
    reg.inc(f"{p}.cdb.broadcasts", core.cdb.broadcasts)
    reg.inc(f"{p}.cdb.stall_cycles", core.cdb.stall_cycles)
    mshrs = core.hierarchy.l1d_mshrs[core.core_id]
    reg.inc(f"{p}.mshr.allocations", mshrs.allocations)
    reg.inc(f"{p}.mshr.coalesced", mshrs.coalesced)
    reg.inc(f"{p}.mshr.rejections", mshrs.rejections)
    reg.set_gauge(f"{p}.mshr.peak_occupancy", mshrs.peak_occupancy)


def _stage_histograms(
    reg: MetricsRegistry, events: Iterable[TraceEvent]
) -> None:
    """Per-stage latency histograms from a structured trace."""
    cycles: Dict[tuple, Dict[EventKind, int]] = {}
    for event in events:
        if event.seq is None:
            continue
        key = (event.core, event.seq)
        stages = cycles.setdefault(key, {})
        if event.kind not in stages:  # first occurrence wins
            stages[event.kind] = event.cycle
    for (core, _seq), stages in cycles.items():
        prefix = f"core{core if core is not None else 0}"
        for name, src, dst in _STAGE_LATENCIES:
            if src in stages and dst in stages:
                reg.observe(f"{prefix}.{name}", stages[dst] - stages[src])


def compose_metrics(
    *,
    cycles: int,
    cores: Iterable[Core],
    hierarchy: CacheHierarchy,
    events: Optional[Iterable[TraceEvent]] = None,
) -> MetricsRegistry:
    """Assemble a trial metrics registry from its parts.

    The registry's insertion order is part of its serialized identity
    (``to_json`` preserves it), so every producer — the cold path via
    :func:`machine_metrics`, and the batched lockstep engine pairing the
    leader's cores with a lane's own hierarchy — must build it through
    this one skeleton: machine gauge, per-core counters, cache rows in
    ``all_caches()`` order, DRAM traffic, visible LLC accesses, then the
    optional stage histograms.
    """
    reg = MetricsRegistry()
    reg.set_gauge("machine.cycles", cycles)
    for core in cores:
        _core_metrics(reg, core)
    for cache in hierarchy.all_caches():
        cp = f"cache.{cache.name}"
        stats = cache.stats
        reg.inc(f"{cp}.hits", stats.hits)
        reg.inc(f"{cp}.misses", stats.misses)
        reg.inc(f"{cp}.fills", stats.fills)
        reg.inc(f"{cp}.evictions", stats.evictions)
        reg.inc(f"{cp}.invalidations", stats.invalidations)
    reg.inc("dram.reads", hierarchy.memory.reads)
    reg.inc("dram.writes", hierarchy.memory.writes)
    reg.inc("llc.visible_accesses", len(hierarchy.visible_log))
    if events is not None:
        _stage_histograms(reg, events)
    return reg


def machine_metrics(
    machine: Machine, events: Optional[Iterable[TraceEvent]] = None
) -> MetricsRegistry:
    """Project a finished machine run into a hierarchical registry.

    Covers everything :func:`machine_report` reports — per-core pipeline
    counters, per-EU/CDB/LSU/MSHR counters, per-cache-level counters,
    DRAM traffic, visible LLC accesses — under dotted names, plus
    per-stage latency histograms when ``events`` (a structured trace) is
    supplied.  Registries merge across trials: see
    :meth:`repro.trace.MetricsRegistry.merge`.
    """
    return compose_metrics(
        cycles=machine.cycle,
        cores=[core for _, core in sorted(machine.cores.items())],
        hierarchy=machine.hierarchy,
        events=events,
    )
