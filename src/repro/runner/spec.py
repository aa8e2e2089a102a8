"""Picklable trial descriptions and result summaries.

A :class:`TrialSpec` references its victim *by registry name* plus
factory kwargs: a built :class:`~repro.core.victims.VictimSpec` holds a
:class:`~repro.isa.program.Program` full of lambdas and cannot cross a
process boundary.  Workers rebuild the victim (and the Machine/Core
under it) on their own side.
"""

from __future__ import annotations

import enum
import hashlib
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.memory.hierarchy import HierarchyConfig, VisibleAccess

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.metrics import MetricsRegistry


@dataclass(frozen=True)
class TrialSpec:
    """One independent victim trial, fully described by picklable data."""

    victim: str
    scheme: str
    secret: int
    #: Kwargs for the victim factory, as sorted (name, value) pairs so
    #: specs hash/compare stably.
    victim_kwargs: Tuple[Tuple[str, object], ...] = ()
    seed: int = 0
    reference_accesses: Tuple[Tuple[int, int], ...] = ()
    noise_rate: float = 0.0
    noise_pool: Tuple[int, ...] = ()
    extra_lines: Tuple[int, ...] = ()
    max_cycles: int = 20_000
    hierarchy_config: Optional[HierarchyConfig] = None
    #: Run the trial under the cycle-level invariant sanitizer
    #: (:mod:`repro.staticcheck.sanitizer`).  Slower (no idle
    #: fast-forward) but any pipeline/scheme invariant breakage fails
    #: the trial instead of corrupting its measurements.
    sanitize: bool = False
    #: Collect a hierarchical metrics registry for the trial (see
    #: :func:`repro.system.stats.machine_metrics`): pipeline/cache/MSHR
    #: counters plus per-stage latency histograms from a stage-filtered
    #: trace.  The summary then carries ``metrics`` (the registry's
    #: ``to_json`` form) and sweeps can aggregate across trials.
    collect_metrics: bool = False
    #: Directory to write an end-of-trial snapshot handle into (see
    #: :mod:`repro.snapshot.handle`): a small JSON replay recipe that
    #: names this spec by digest and fingerprints the final state.
    #: The summary then carries ``snapshot_path`` — a string, so worker
    #: transport stays lean — and :func:`repro.snapshot.rehydrate_trial`
    #: later replays the spec to that verified state for inspection.
    #: None (the default) writes nothing.
    snapshot_dir: Optional[str] = None
    #: Attacker probe-phase addresses: after the victim window ends, the
    #: attacker evicts its own private copies of each address and issues
    #: one timed visible read per address (Prime+Probe's probe / §4.1's
    #: receiver measurement).  The summary then carries
    #: ``probe_latencies``, one latency per address in order; latencies
    #: below ``hierarchy.miss_threshold()`` decode as LLC-resident.
    probe_accesses: Tuple[int, ...] = ()

    def label(self) -> str:
        return f"{self.victim}/{self.scheme}/s{self.secret}"

    def digest(self) -> str:
        """Stable content digest of the spec, used as the journal key.

        Built from the frozen-dataclass ``repr`` (fully deterministic for
        the picklable field types a spec may hold) so the same trial
        description hashes identically across processes and runs —
        unlike ``hash()``, which is salted per process.
        """
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]


def effective_dram_jitter(spec: TrialSpec) -> int:
    """The DRAM jitter this spec will actually run with.

    ``hierarchy_config=None`` means the runner builds the module-level
    default (``repro.core.victims.ATTACK_HIERARCHY``); this probe makes
    that fallback explicit so a future change to the default hierarchy
    cannot silently flip stream handling.
    """
    if spec.hierarchy_config is not None:
        return spec.hierarchy_config.dram_jitter
    from repro.core.victims import ATTACK_HIERARCHY

    return ATTACK_HIERARCHY.dram_jitter


def stream_dependent(spec: TrialSpec) -> bool:
    """True when trial behaviour consumes the counter RNG streams
    (DRAM jitter or noise injection), i.e. when the seed can affect the
    outcome.  Otherwise the seed is inert: the sweep accelerators share
    one run across seeds and relabel it."""
    return spec.noise_rate > 0.0 or effective_dram_jitter(spec) > 0


@dataclass(frozen=True)
class TrialSummary:
    """The picklable observable outcome of one trial.

    Everything :class:`~repro.core.harness.TrialResult` reports except
    the live ``machine``/``core`` handles (unpicklable, and megabytes of
    state nobody aggregates).
    """

    victim: str
    scheme: str
    secret: int
    seed: int
    cycles: int
    #: line address -> cycle of first visible LLC access (None if none).
    access_cycle: Dict[int, Optional[int]]
    visible: Tuple[VisibleAccess, ...]
    retired: int
    #: Monitored (line_a, line_b) from the victim spec, when defined.
    line_a: Optional[int] = None
    line_b: Optional[int] = None
    #: Hierarchical metrics for the trial in
    #: :meth:`repro.trace.MetricsRegistry.to_json` form, when the spec
    #: asked for them (``collect_metrics=True``); None otherwise.
    metrics: Optional[Dict[str, object]] = None
    #: Path of the end-of-trial snapshot handle, when the spec asked
    #: for one (``snapshot_dir=``); None otherwise.  The handle is a
    #: replay recipe with a state fingerprint, not the state itself:
    #: simulator objects never cross process boundaries.
    snapshot_path: Optional[str] = None
    #: Observed probe-phase latencies, aligned with the spec's
    #: ``probe_accesses``; None when the spec scheduled no probe.
    probe_latencies: Optional[Tuple[int, ...]] = None

    def first_access(self, line: int) -> Optional[int]:
        return self.access_cycle.get(line)

    def order(self, line_x: int, line_y: int) -> Optional[str]:
        """'xy', 'yx', or None when either access is missing."""
        tx, ty = self.first_access(line_x), self.first_access(line_y)
        if tx is None or ty is None or tx == ty:
            return None
        return "xy" if tx < ty else "yx"

    def ab_order(self) -> Optional[str]:
        if self.line_a is None or self.line_b is None:
            return None
        return self.order(self.line_a, self.line_b)


class TrialStatus(str, enum.Enum):
    """How one trial ended.  ``str``-valued so it JSON-serializes and
    compares against plain strings ('ok', 'deadlock', ...)."""

    OK = "ok"
    DEADLOCK = "deadlock"  # simulator deadlock or cycle-budget overrun
    TIMEOUT = "timeout"  # per-trial wall-clock deadline exceeded
    WORKER_LOST = "worker-lost"  # pool worker died (crash / injected kill)
    ERROR = "error"  # any other exception from the simulator


@dataclass(frozen=True)
class TrialOutcome:
    """Structured per-trial result: a summary on success, a structured
    failure record otherwise — never a propagated exception.

    ``digest`` is the :meth:`TrialSpec.digest` of the spec that produced
    this outcome; the checkpoint journal keys records by it.
    """

    digest: str
    victim: str
    scheme: str
    secret: int
    seed: int
    status: TrialStatus
    #: How many executions this spec took (1 = first attempt succeeded).
    attempts: int = 1
    summary: Optional[TrialSummary] = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    #: Simulated cycle reached when the fault hit (when known).
    cycle: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status is TrialStatus.OK

    def label(self) -> str:
        return f"{self.victim}/{self.scheme}/s{self.secret}"

    def describe(self) -> str:
        if self.ok:
            return f"{self.label()}: ok ({self.attempts} attempt(s))"
        where = f" at cycle {self.cycle}" if self.cycle is not None else ""
        return (
            f"{self.label()}: {self.status.value}{where} after "
            f"{self.attempts} attempt(s) [{self.error_type}: "
            f"{self.error_message}]"
        )


class SweepFailure(RuntimeError):
    """Raised by :meth:`SweepResult.raise_if_failed` — strict, opt-in
    all-or-nothing behaviour for drivers that cannot use partial sweeps."""

    def __init__(self, failures: Sequence[TrialOutcome]) -> None:
        self.failures = list(failures)
        shown = "; ".join(f.describe() for f in self.failures[:5])
        more = len(self.failures) - 5
        if more > 0:
            shown += f"; ... and {more} more"
        super().__init__(f"{len(self.failures)} trial(s) failed: {shown}")


@dataclass
class SweepResult:
    """Ordered trial summaries plus sweep-level bookkeeping.

    ``summaries`` holds the *succeeded* trials in spec order; failed
    trials appear (as structured :class:`TrialOutcome` records) in
    ``failures``, and ``outcomes`` interleaves both in spec order.  A
    fault-free sweep therefore looks exactly like it did before the
    resilience layer: every spec contributes one summary.
    """

    summaries: List[TrialSummary]
    elapsed: float
    workers: int
    failures: List[TrialOutcome] = field(default_factory=list)
    outcomes: List[TrialOutcome] = field(default_factory=list)
    #: :meth:`repro.runner.cache.TrialCache.stats` snapshot from the
    #: runner's trial cache (hits / misses / bypasses), when the sweep
    #: ran with ``cache_dir`` set; None otherwise.  Counters accumulate
    #: per runner instance, so back-to-back runs on one runner report
    #: cumulative totals.
    cache_stats: Optional[Dict[str, int]] = None
    #: Batched-lockstep accounting for this sweep, when it ran with
    #: ``batch=True``: ``batched`` / ``ejected`` lane counts plus one
    #: ``bypass.<reason>`` entry per spec the planner refused
    #: (``sanitize`` / ``snapshot`` / ``min_lanes`` / ``faults``).
    #: None when batching was off.
    batch_stats: Optional[Dict[str, int]] = None

    def __len__(self) -> int:
        return len(self.summaries)

    def __iter__(self) -> Iterator[TrialSummary]:
        return iter(self.summaries)

    def __getitem__(self, index: int) -> TrialSummary:
        return self.summaries[index]

    @property
    def trials_per_second(self) -> float:
        return len(self.summaries) / self.elapsed if self.elapsed else 0.0

    def succeeded(self) -> List[TrialSummary]:
        """The summaries of every trial that completed, in spec order."""
        return list(self.summaries)

    def raise_if_failed(self) -> "SweepResult":
        """Strict mode: raise :class:`SweepFailure` if any trial failed.

        Returns ``self`` so drivers can chain
        ``runner.run(specs).raise_if_failed()``.
        """
        if self.failures:
            raise SweepFailure(self.failures)
        return self

    def by_scheme(self) -> Dict[str, List[TrialSummary]]:
        grouped: Dict[str, List[TrialSummary]] = {}
        for summary in self.summaries:
            grouped.setdefault(summary.scheme, []).append(summary)
        return grouped

    def aggregate_metrics(self) -> "MetricsRegistry":
        """Fold every summary's per-trial metrics into one registry.

        Counters add, gauges keep the max, and each trial's histogram
        summaries contribute their mean (see
        :meth:`repro.trace.MetricsRegistry.merge_json`).  Summaries
        without metrics (specs run with ``collect_metrics=False``)
        contribute nothing; the result is empty if none had any.
        """
        # Imported here so the light spec module stays cheap for pool
        # worker spin-up (repro.trace imports nothing from the
        # simulator, but there is no reason to pay for it eagerly).
        from repro.trace.metrics import MetricsRegistry

        merged = MetricsRegistry()
        for summary in self.summaries:
            if summary.metrics is not None:
                merged.merge_json(summary.metrics)
        if self.cache_stats:
            # The trial cache's effectiveness is a sweep-level property
            # (there is no per-trial registry to carry it), so it joins
            # the aggregate under its own subtree.
            for name, value in sorted(self.cache_stats.items()):
                merged.inc(f"sweep.trial_cache.{name}", value)
            lookups = self.cache_stats.get("hits", 0) + self.cache_stats.get(
                "misses", 0
            )
            if lookups:
                merged.set_gauge(
                    "sweep.trial_cache.hit_rate",
                    self.cache_stats.get("hits", 0) / lookups,
                )
        if self.batch_stats:
            # Same treatment for the batch layer: why specs bypassed the
            # lockstep mirror (and how many lanes it ran / ejected) is
            # sweep-level bookkeeping, surfaced as its own subtree.
            for name, value in sorted(self.batch_stats.items()):
                merged.inc(f"sweep.batch.{name}", value)
        return merged


def trial_seed(victim: str, scheme: str, secret: int, base_seed: int = 0) -> int:
    """Stable per-trial seed.  CRC32 of the identity string, not
    ``hash()``: Python string hashing is salted per process, which would
    make parallel workers disagree with the parent."""
    identity = f"{victim}|{scheme}|{secret}|{base_seed}"
    return zlib.crc32(identity.encode()) & 0x7FFFFFFF


def expand_grid(
    victims: Sequence[str],
    schemes: Sequence[str],
    secrets: Sequence[int] = (0, 1),
    *,
    base_seed: int = 0,
    victim_kwargs: Optional[Dict[str, Dict[str, object]]] = None,
    **common,
) -> List[TrialSpec]:
    """Cartesian victim x scheme x secret grid with stable per-trial
    seeds.  ``victim_kwargs`` maps victim name -> factory kwargs;
    ``common`` is forwarded to every :class:`TrialSpec`."""
    specs = []
    for victim in victims:
        kwargs = tuple(sorted(((victim_kwargs or {}).get(victim, {})).items()))
        for scheme in schemes:
            for secret in secrets:
                specs.append(
                    TrialSpec(
                        victim=victim,
                        scheme=scheme,
                        secret=secret,
                        victim_kwargs=kwargs,
                        seed=trial_seed(victim, scheme, secret, base_seed),
                        **common,
                    )
                )
    return specs
