"""Table 1: the invisible-speculation vulnerability matrix.

For every (gadget, ordering, scheme) cell the runner determines whether
the secret changes the order of two unprotected LLC accesses — which the
paper treats as equivalent to a covert channel (§3.3).

* **VD-VD** — both accesses are victim loads (A and B); vulnerable iff
  their order in the visible log flips with the secret.
* **VD-AD** — the reference is an attacker access at a fixed cycle;
  vulnerable iff load A's visible access straddles a (calibrated) fixed
  reference time.  Calibration mimics the attacker's offline tuning.
* **VI-AD** — as VD-AD but the monitored access is an instruction-line
  fetch; for GIRS the channel also manifests as presence/absence of the
  target I-line fill (§4.3).

The three signals behind those verdicts — an order flip, a first-access
shift of at least :data:`MARGIN` and presence/absence — are defined here
once (:func:`order_flips`, :func:`line_signal`, :func:`leak_signals`);
cross-validation, symbolic replay and the forward receiver read them
from this module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.core.harness import run_victim_trial
from repro.pipeline.core import DeadlockError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runner import SweepRunner
from repro.core.victims import ADDR_REF, VictimSpec, victim_by_name

#: Minimum secret-induced shift (cycles) to call a cell vulnerable.
MARGIN = 8


class ObservedRun(Protocol):
    """What the leak signals read of one run: a
    :class:`~repro.core.harness.TrialResult` or a
    :class:`~repro.runner.spec.TrialSummary`."""

    def first_access(self, line: int) -> Optional[int]: ...

    def order(self, line_x: int, line_y: int) -> Optional[str]: ...


@dataclass(frozen=True)
class Signal:
    """One dynamic interference signal observed between two runs."""

    kind: str  # "order-flip" | "shift" | "presence"
    line: Optional[int]
    #: Which side of the victim the line belongs to.
    side: str  # "data" | "inst"
    t_secret0: Optional[int]
    t_secret1: Optional[int]
    detail: str


def order_flips(o0: Optional[str], o1: Optional[str]) -> bool:
    """Both runs order the two accesses, and differently (§3.3)."""
    return o0 is not None and o1 is not None and o0 != o1


def line_signal(t0: Optional[int], t1: Optional[int], margin: int) -> Optional[str]:
    """The signal two first-access times of one line carry:
    ``"presence"`` when only one run touches the line (§4.3),
    ``"shift"`` when both do at least ``margin`` cycles apart, else
    ``None``."""
    if (t0 is None) != (t1 is None):
        return "presence"
    if t0 is not None and t1 is not None and abs(t0 - t1) >= margin:
        return "shift"
    return None


def leak_signals(
    spec: VictimSpec, run0: ObservedRun, run1: ObservedRun, *, margin: int = MARGIN
) -> List[Signal]:
    """Every interference signal between two runs of ``spec``: the
    order flip of lines A/B first, then the line signals of A, B and
    the target I-line, in that order."""
    signals: List[Signal] = []
    if spec.line_a is not None and spec.line_b is not None:
        o0 = run0.order(spec.line_a, spec.line_b)
        o1 = run1.order(spec.line_a, spec.line_b)
        if order_flips(o0, o1):
            signals.append(
                Signal(
                    "order-flip",
                    spec.line_a,
                    "data",
                    run0.first_access(spec.line_a),
                    run1.first_access(spec.line_a),
                    f"order(A,B) flips: run0={o0} run1={o1}",
                )
            )
    for line, side in (
        (spec.line_a, "data"),
        (spec.line_b, "data"),
        (spec.target_iline, "inst"),
    ):
        if line is None:
            continue
        t0, t1 = run0.first_access(line), run1.first_access(line)
        kind = line_signal(t0, t1, margin)
        if kind is None:
            continue
        if t0 is None or t1 is None:
            detail = f"line {line:#x} accessed only in run {0 if t0 is not None else 1}"
        else:
            detail = (
                f"line {line:#x} first access moved {abs(t0 - t1)} "
                f"cycle(s) (margin {margin})"
            )
        signals.append(Signal(kind, line, side, t0, t1, detail))
    return signals


#: Scheme order of the printed matrix (matches Table 1's scope).
DEFAULT_SCHEMES = [
    "invisispec-spectre",
    "invisispec-futuristic",
    "dom-nontso",
    "dom-tso",
    "safespec-wfb",
    "safespec-wfc",
    "muontrap",
    "condspec",
    "fence-spectre",
    "fence-futuristic",
]

ORDERINGS = ("vd-vd", "vd-ad", "vi-ad")
GADGETS = ("gdnpeu", "gdmshr", "girs")


@dataclass
class MatrixCell:
    gadget: str
    ordering: str
    scheme: str
    vulnerable: bool
    #: Monitored access time for secret=0 / secret=1 (None = no access).
    t_secret0: Optional[int]
    t_secret1: Optional[int]
    detail: str = ""
    #: Set when the cell's trials faulted (``on_error="report"``): the
    #: exception as ``"Type: message"``.  Failed cells are never marked
    #: vulnerable.
    error: Optional[str] = None

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.gadget, self.ordering, self.scheme)


def _victim_for(gadget: str, ordering: str) -> Optional[VictimSpec]:
    """The cell's victim, through the registry so every cell and sweep
    of the process shares one build of it."""
    if gadget in ("gdnpeu", "gdmshr"):
        variant = "vd-vd" if ordering in ("vd-vd", "vd-ad") else "vi-ad"
        return victim_by_name(gadget, variant=variant)
    if gadget == "girs":
        if ordering == "vi-ad":
            return victim_by_name("girs")
        return None  # GIRS only influences instruction fetches (§3.2.2)
    raise ValueError(f"unknown gadget {gadget}")


def _monitored_line(spec: VictimSpec, ordering: str) -> int:
    if ordering in ("vd-vd", "vd-ad"):
        if spec.line_a is None:
            # Explicit, not an assert: survives ``python -O``.
            raise ValueError(
                f"victim {spec.name!r} defines no data line A for "
                f"ordering {ordering!r}"
            )
        return spec.line_a
    if spec.target_iline is None:
        raise ValueError(
            f"victim {spec.name!r} defines no target I-line for "
            f"ordering {ordering!r}"
        )
    return spec.target_iline


def evaluate_cell(
    gadget: str, ordering: str, scheme: str, *, on_error: str = "raise"
) -> MatrixCell:
    """Run the (up to four) trials needed to judge one matrix cell.

    ``on_error="report"`` contains simulator faults (deadlocks,
    cycle-budget overruns, bad configurations) to the cell: the cell
    comes back non-vulnerable with :attr:`MatrixCell.error` set instead
    of aborting the whole matrix.  The default keeps the strict
    historical behaviour.
    """
    if on_error not in ("raise", "report"):
        raise ValueError(f"on_error must be 'raise' or 'report', not {on_error!r}")
    if on_error == "report":
        try:
            return evaluate_cell(gadget, ordering, scheme)
        except (DeadlockError, ValueError, AssertionError) as exc:
            return MatrixCell(
                gadget,
                ordering,
                scheme,
                False,
                None,
                None,
                detail="trial failed",
                error=f"{type(exc).__name__}: {exc}",
            )
    spec = _victim_for(gadget, ordering)
    if spec is None:
        return MatrixCell(gadget, ordering, scheme, False, None, None, "n/a")
    line = _monitored_line(spec, ordering)

    if ordering == "vd-vd":
        r0 = run_victim_trial(spec, scheme, 0)
        r1 = run_victim_trial(spec, scheme, 1)
        t0, t1 = r0.first_access(line), r1.first_access(line)
        # ``line`` is line A; without a line B there is no order.
        order0 = order1 = None
        if spec.line_b is not None:
            order0 = r0.order(line, spec.line_b)
            order1 = r1.order(line, spec.line_b)
        detail = f"order(A,B): s0={order0} s1={order1}"
        return MatrixCell(
            gadget, ordering, scheme, order_flips(order0, order1), t0, t1, detail
        )

    # VD-AD / VI-AD: calibrate the reference time, then verify the order
    # of the monitored access against a real attacker access at that time.
    c0 = run_victim_trial(spec, scheme, 0)
    c1 = run_victim_trial(spec, scheme, 1)
    t0, t1 = c0.first_access(line), c1.first_access(line)
    kind = line_signal(t0, t1, MARGIN)
    if kind == "presence":
        # Presence/absence channel (the GIRS §4.3 variant).
        return MatrixCell(
            gadget, ordering, scheme, True, t0, t1, "presence/absence"
        )
    if t0 is None or t1 is None:
        return MatrixCell(
            gadget, ordering, scheme, False, t0, t1, "no visible access"
        )
    if kind is None:
        return MatrixCell(
            gadget, ordering, scheme, False, t0, t1, f"shift {abs(t0-t1)} < {MARGIN}"
        )
    ref_cycle = (t0 + t1) // 2
    v0 = run_victim_trial(
        spec, scheme, 0, reference_accesses=[(ADDR_REF, ref_cycle)]
    )
    v1 = run_victim_trial(
        spec, scheme, 1, reference_accesses=[(ADDR_REF, ref_cycle)]
    )
    o0 = v0.order(line, ADDR_REF)
    o1 = v1.order(line, ADDR_REF)
    detail = f"ref@{ref_cycle}: s0={o0} s1={o1}"
    return MatrixCell(gadget, ordering, scheme, order_flips(o0, o1), t0, t1, detail)


def _evaluate_cell_task(
    task: Tuple[str, str, str], on_error: str = "raise"
) -> MatrixCell:
    """Unary adapter for runner.map / executor.map (module-level so it
    pickles by reference into pool workers)."""
    return evaluate_cell(*task, on_error=on_error)


def run_matrix(
    schemes: Optional[Sequence[str]] = None,
    gadgets: Sequence[str] = GADGETS,
    orderings: Sequence[str] = ORDERINGS,
    *,
    runner: Optional["SweepRunner"] = None,
    on_error: str = "raise",
) -> List[MatrixCell]:
    """Evaluate the full matrix.  Cells are independent, so a
    :class:`repro.runner.SweepRunner` fans them out across processes;
    results come back in the same deterministic (gadget, ordering,
    scheme) order either way.  ``on_error="report"`` contains per-cell
    simulator faults to their cell (see :func:`evaluate_cell`)."""
    tasks = [
        (gadget, ordering, scheme)
        for gadget in gadgets
        for ordering in orderings
        for scheme in (schemes or DEFAULT_SCHEMES)
    ]
    fn = functools.partial(_evaluate_cell_task, on_error=on_error)
    if runner is None:
        return [fn(task) for task in tasks]
    return runner.map(fn, tasks)


def format_matrix(cells: Sequence[MatrixCell]) -> str:
    """Render in the shape of Table 1: rows = gadgets, columns =
    orderings, cell = vulnerable schemes."""
    by_cell: Dict[Tuple[str, str], List[str]] = {}
    orderings = sorted({c.ordering for c in cells}, key=ORDERINGS.index)
    gadgets = sorted({c.gadget for c in cells}, key=GADGETS.index)
    for cell in cells:
        if cell.vulnerable:
            by_cell.setdefault((cell.gadget, cell.ordering), []).append(cell.scheme)
    lines = ["Vulnerability matrix (cells list vulnerable schemes):", ""]
    header = f"{'Gadget':10s}" + "".join(f"| {o:^40s}" for o in orderings)
    lines.append(header)
    lines.append("-" * len(header))
    for gadget in gadgets:
        row = f"{gadget:10s}"
        for ordering in orderings:
            schemes = by_cell.get((gadget, ordering), [])
            row += f"| {', '.join(schemes) or '-':40s}"
        lines.append(row)
    return "\n".join(lines)
