"""Cross-validation: every static finding must have a dynamic witness.

A static analyzer that cannot be checked against ground truth degrades
into a lint.  This harness replays an analyzed victim through the
simulator with both secret values and reads the *dynamic interference
signals* off the two runs with :func:`repro.core.matrix.leak_signals`,
the one definition behind Table 1: an order flip of lines A/B, a
first-access shift of at least :data:`~repro.core.matrix.MARGIN`
cycles, or a line touched in only one run.

A finding is *confirmed* when a signal of the right kind exists for its
victim: data-line signals for GD-NPEU/GD-MSHR, instruction-line signals
for G-IRS, and any signal for forward interference.

:func:`reconcile_verdicts` widens this into the repo's three-way
scoreboard — static detector × bounded symbolic verdict
(:mod:`repro.symni`) × dynamic leak signal — one row per
(victim, scheme), with every disagreement categorized rather than
dropped.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.harness import run_victim_trial
from repro.core.matrix import MARGIN, Signal, leak_signals
from repro.core.victims import VICTIM_MEMO_SIZE, VictimSpec
from repro.staticcheck.report import (
    FAMILY_GDMSHR,
    FAMILY_GDNPEU,
    FAMILY_GIRS,
    AnalysisReport,
    Finding,
)

#: Scheme the replay runs under by default.  The interference primitive
#: is physical contention, so even the unprotected baseline exhibits it;
#: pass an invisible scheme (e.g. ``"dom-nontso"``) to confirm findings
#: under a specific defense instead.
DEFAULT_SCHEME = "unsafe"


@dataclass(frozen=True)
class CrossValidation:
    """The dynamic verdict for one victim's static report."""

    victim: str
    scheme: str
    signals: Tuple[Signal, ...]
    findings: Tuple[Finding, ...]

    @property
    def all_confirmed(self) -> bool:
        return all(f.confirmed for f in self.findings)


def dynamic_signals(
    spec: VictimSpec,
    scheme: str = DEFAULT_SCHEME,
    *,
    margin: int = MARGIN,
    max_cycles: int = 40_000,
) -> List[Signal]:
    """Run ``spec`` with secret 0 and 1; return the
    :func:`~repro.core.matrix.leak_signals` of the two runs."""
    r0 = run_victim_trial(spec, scheme, 0, max_cycles=max_cycles)
    r1 = run_victim_trial(spec, scheme, 1, max_cycles=max_cycles)
    return leak_signals(spec, r0, r1, margin=margin)


def _finding_confirmed(
    finding: Finding, signals: List[Signal], spec: VictimSpec
) -> bool:
    if finding.family == FAMILY_GIRS:
        if spec.target_iline is not None:
            return any(s.side == "inst" for s in signals)
        # RS pressure without a monitored I-line (the forward family's
        # fwd-rs): the freeze's witness is data-side timing of the
        # older bound-to-retire loads.
        return bool(signals)
    if finding.family in (FAMILY_GDNPEU, FAMILY_GDMSHR):
        return any(s.side == "data" for s in signals)
    return bool(signals)  # forward interference: any witness


# ----------------------------------------------------------------------
# static <-> symbolic <-> dynamic reconciliation (the --symni mode)
# ----------------------------------------------------------------------
AGREE_LEAK = "agree-leak"
AGREE_CLEAN = "agree-clean"
SYMBOLIC_ONLY = "symbolic-only"
DYNAMIC_ONLY = "dynamic-only"
STATIC_MISS = "static-miss"


@dataclass(frozen=True)
class ReconcileRow:
    """One (victim, scheme) line of the three-way reconciliation:
    static detector × bounded symbolic verdict × dynamic leak signal.

    The static column (``static_families``) is *scheme-independent* —
    the detectors classify the program, not the defense — so the
    three-way agreement logic is asymmetric by design:

    * a leak (symbolic + dynamic) must be statically flagged, else the
      detector has a false negative (:data:`STATIC_MISS`);
    * a static finding on a pair that is clean both symbolically and
      dynamically is **not** a disagreement — it means the defense
      neutralizes a real gadget (that is the defense working, and
      Table 1's whole point).

    ``agreement`` is one of :data:`AGREE_LEAK` (all three concur),
    :data:`AGREE_CLEAN` (symbolic and dynamic both quiet),
    :data:`SYMBOLIC_ONLY` (the symbolic checker diverges but the
    simulator shows no signal — an abstraction gap),
    :data:`DYNAMIC_ONLY` (the simulator leaks but the bounded symbolic
    check stayed clean — a model blind spot) and :data:`STATIC_MISS`.
    Disagreement rows are the product: reported explicitly, never
    filtered.
    """

    victim: str
    scheme: str
    symbolic_status: str
    symbolic_kind: Optional[str]
    dynamic_kinds: Tuple[str, ...]
    agreement: str
    detail: str
    static_families: Tuple[str, ...] = ()

    @property
    def agrees(self) -> bool:
        return self.agreement in (AGREE_LEAK, AGREE_CLEAN)

    @property
    def static_flagged(self) -> bool:
        return bool(self.static_families)


@functools.lru_cache(maxsize=VICTIM_MEMO_SIZE)
def static_families(spec: VictimSpec) -> Tuple[str, ...]:
    """The sorted detector families that fire on ``spec``: the
    scheme-independent static column of :class:`ReconcileRow`.

    Analyzed once per victim while it stays among the most recently
    used; the memo keys on the victim object itself (identity equality)
    and holds it, so a key can never be a recycled object."""
    # Looked up at call time, so a wrapped analyze_victim sees the call.
    from repro.staticcheck import analyzer

    report = analyzer.analyze_victim(spec)
    return tuple(sorted({f.family for f in report.findings}))


def reconcile_verdicts(
    victims: Optional[List[str]] = None,
    schemes: Optional[List[str]] = None,
    *,
    margin: int = MARGIN,
    max_cycles: int = 40_000,
    replay: bool = False,
) -> List[ReconcileRow]:
    """One reconciliation row per (victim, scheme): static families,
    the bounded symbolic verdict and the simulator's dynamic signals,
    in one three-way table.

    By default the symbolic check runs with replay disabled — this
    function *is* the replay, and attaching the dynamic signals it
    computes keeps the whole comparison at one simulation pair per
    row.  ``replay=True`` additionally replays each symbolic
    counterexample through the simulator, upgrading the symbolic
    column to confirmed/abstraction-gap statuses (the ``--fail-on-gap``
    gate wants exactly that distinction).
    """
    # Function-level import: repro.symni sits above this package, and a
    # module-level import would be circular through our __init__.
    from repro.core.victims import VICTIM_FACTORIES, victim_by_name
    from repro.schemes.registry import SCHEME_FACTORIES
    from repro.symni.checker import STATUS_CLEAN, check_victim

    victim_names = list(victims) if victims else sorted(VICTIM_FACTORIES)
    scheme_names = list(schemes) if schemes else sorted(SCHEME_FACTORIES)
    rows: List[ReconcileRow] = []
    for victim in victim_names:
        spec = victim_by_name(victim)
        families = static_families(spec)
        for scheme in scheme_names:
            verdict = check_victim(victim, scheme, replay=replay)
            signals = dynamic_signals(
                spec, scheme, margin=margin, max_cycles=max_cycles
            )
            symbolic_leak = verdict.status != STATUS_CLEAN
            dynamic_leak = bool(signals)
            if symbolic_leak and dynamic_leak and not families:
                agreement = STATIC_MISS
                detail = (
                    "static false negative: leak confirmed "
                    "symbolically and dynamically but no detector fired"
                )
            elif symbolic_leak and dynamic_leak:
                agreement = AGREE_LEAK
                detail = signals[0].detail
            elif symbolic_leak:
                agreement = SYMBOLIC_ONLY
                assert verdict.divergence is not None
                detail = (
                    "abstraction gap: "
                    + verdict.divergence.describe()
                )
            elif dynamic_leak:
                agreement = DYNAMIC_ONLY
                detail = (
                    "model blind spot: " + signals[0].detail
                )
            else:
                agreement = AGREE_CLEAN
                detail = ""
            rows.append(
                ReconcileRow(
                    victim=victim,
                    scheme=scheme,
                    symbolic_status=verdict.status,
                    symbolic_kind=(
                        verdict.divergence.kind
                        if verdict.divergence is not None
                        else None
                    ),
                    dynamic_kinds=tuple(
                        dict.fromkeys(s.kind for s in signals)
                    ),
                    agreement=agreement,
                    detail=detail,
                    static_families=families,
                )
            )
    return rows


def render_reconciliation(rows: List[ReconcileRow]) -> str:
    """The one-table human rendering of a three-way reconciliation."""
    width_v = max((len(r.victim) for r in rows), default=6)
    width_s = max((len(r.scheme) for r in rows), default=6)
    lines = []
    for row in rows:
        marker = " " if row.agrees else "X"
        static = ",".join(row.static_families) or "-"
        sym = row.symbolic_kind or "-"
        dyn = ",".join(row.dynamic_kinds) or "-"
        lines.append(
            f"{marker} {row.victim:<{width_v}}  {row.scheme:<{width_s}}  "
            f"{row.agreement:<13}  static={static}  sym={sym}  dyn={dyn}"
        )
        if not row.agrees and row.detail:
            lines.append(f"    {row.detail}")
    disagreements = sum(1 for r in rows if not r.agrees)
    lines.append(
        f"-- {len(rows)} pair(s), {disagreements} disagreement(s)"
    )
    return "\n".join(lines)


def cross_validate(
    spec: VictimSpec,
    report: AnalysisReport,
    *,
    scheme: str = DEFAULT_SCHEME,
    margin: int = MARGIN,
    max_cycles: int = 40_000,
) -> CrossValidation:
    """Replay ``spec`` and stamp every finding in ``report`` with its
    dynamic verdict (also updating ``report.findings`` in place)."""
    signals = (
        dynamic_signals(spec, scheme, margin=margin, max_cycles=max_cycles)
        if report.findings
        else []
    )
    confirmed = [
        f.with_confirmation(_finding_confirmed(f, signals, spec))
        for f in report.findings
    ]
    report.findings = confirmed
    return CrossValidation(
        victim=spec.name,
        scheme=scheme,
        signals=tuple(signals),
        findings=tuple(confirmed),
    )
