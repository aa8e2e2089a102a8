"""Plugin API between the pipeline and speculation schemes.

The pipeline defines *mechanism*; invisible-speculation proposals differ
only in *policy*, expressed through this interface:

* :meth:`SpeculationScheme.load_decision` — may a speculative load
  execute now, and does it change cache state (§2.2)?
* :meth:`SpeculationScheme.on_load_safe` — deferred effects once a load
  leaves every speculative shadow (DoM's deferred replacement update,
  InvisiSpec's exposure fill, MuonTrap's filter promotion).
* :meth:`SpeculationScheme.on_squash` — roll back scheme state.
* :meth:`SpeculationScheme.may_issue` — issue gating, used by the
  paper's basic fence defense (§5.2).
* :meth:`SpeculationScheme.issue_gate` — the same gate stated once per
  cycle as the youngest seq it admits, when the rule is a prefix of the
  ROB window, so the issue stage stops there instead of asking
  :meth:`~SpeculationScheme.may_issue` for every ready entry.
* :attr:`SpeculationScheme.parked_loads_wake_on_events` — whether
  :meth:`~SpeculationScheme.load_decision` depends only on the load's
  own ``became_safe`` and on whether its line is in the L1-D, with no
  side effect beyond the scheme's own counters.  Then the LSU wakes a
  parked load only on the events that can change its answer; otherwise
  it re-asks every cycle.
* :meth:`SpeculationScheme.fetch_visible` — whether speculative I-cache
  accesses change cache state (unprotected in InvisiSpec and DoM, which
  is what the I-cache PoC exploits, §4.3).

Safety ("when is a load non-speculative?") is a scheme property too,
selected from :class:`SafetyModel` (§3.3.1 discusses how the models
differ and which attacks each enables).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, List, Optional

from repro.pipeline.dyninstr import DynInstr
from repro.pipeline.rob import SafetyFlags, SafetyFrontier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.core import Core


class LoadDecision(enum.Enum):
    """What a (possibly speculative) load may do right now."""

    VISIBLE = "visible"      # normal access: fills + replacement updates
    INVISIBLE = "invisible"  # data returned, zero cache-state change
    DELAY = "delay"          # do not access memory yet; retry later
    #: Return a predicted value without touching memory at all; the
    #: scheme validates (and possibly replays) when the load is safe
    #: (Delay-on-Miss's value-prediction mode, Sakalis et al. ISCA'19).
    PREDICT = "predict"


class SafetyModel(enum.Enum):
    """When an instruction stops being speculative (casts no shadow)."""

    #: Nothing is ever considered speculative (unsafe baseline).
    NONE = "none"
    #: Safe when all older branches have resolved (Spectre model [56]).
    SPECTRE = "spectre"
    #: Spectre + all older *store* addresses resolved (DoM on a non-TSO
    #: memory model [38]: load-load reordering is architecturally legal,
    #: so only store aliasing keeps a load speculative).
    NONTSO = "nontso"
    #: Spectre + older stores' addresses resolved + all older loads
    #: completed (DoM under TSO: a load-load reorder can be squashed).
    TSO = "tso"
    #: Safe only when every older instruction has completed — the
    #: Futuristic / wait-for-commit model; at most one unprotected load
    #: in flight at a time.
    FUTURISTIC = "futuristic"


def is_safe(model: SafetyModel, flags: SafetyFlags) -> bool:
    """Evaluate a safety model against ROB prefix flags."""
    if model is SafetyModel.NONE:
        return True
    if model is SafetyModel.SPECTRE:
        return flags.older_branches_resolved
    if model is SafetyModel.NONTSO:
        return flags.older_branches_resolved and flags.older_stores_addr_resolved
    if model is SafetyModel.TSO:
        return (
            flags.older_branches_resolved
            and flags.older_loads_completed
            and flags.older_stores_addr_resolved
        )
    if model is SafetyModel.FUTURISTIC:
        return flags.older_all_completed
    raise ValueError(f"unknown safety model {model}")


class SpeculationScheme:
    """Base scheme: the *unsafe* baseline processor.

    Every hook has the do-nothing / fully-visible default, so the base
    class itself is the unprotected machine Spectre attacks.
    """

    #: Display name (overridden by subclasses).
    name = "unsafe"
    #: Safety model governing when loads become non-speculative.
    safety = SafetyModel.NONE
    #: Do speculative instruction fetches change cache state?
    protects_icache = False
    #: Hold RS slots until non-speculative (advanced defense rule 1).
    hold_rs_until_safe = False
    #: Preempt non-pipelined EUs for older instructions (rule 2, §5.4).
    preempt_eus = False
    #: :meth:`load_decision` depends only on ``safe`` (the load's own
    #: ``became_safe``) and on whether the load's line is in the core's
    #: L1-D, and changes nothing but the scheme's own counters.  The LSU
    #: then re-evaluates a parked load only after its became-safe
    #: transition, a visible L1-D access to its line or an MSHR
    #: allocation for it (see ``LoadStoreUnit.retry_parked``).  A fact
    #: about the scheme's code, not a setting: a subclass that overrides
    #: :meth:`load_decision` without declaring it gets False, and its
    #: parked loads are re-evaluated every cycle.
    parked_loads_wake_on_events = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if (
            "load_decision" in cls.__dict__
            and "parked_loads_wake_on_events" not in cls.__dict__
        ):
            cls.parked_loads_wake_on_events = False

    # -- load path -------------------------------------------------------
    def load_decision(self, core: "Core", load: DynInstr, safe: bool) -> LoadDecision:
        """Decide how a ready load may access memory *this cycle*."""
        return LoadDecision.VISIBLE

    def peek_load_decision(
        self, core: "Core", load: DynInstr, safe: bool
    ) -> Optional[LoadDecision]:
        """Side-effect-free preview of :meth:`load_decision`.

        The idle-cycle fast-forward (``Core.next_event_cycle``) uses this
        to prove a parked load would stay parked on the next cycle.  A
        scheme whose decision depends on mutable state it cannot preview
        returns ``None``, which disables fast-forwarding while any of
        its loads are parked — always safe, merely slower.

        The default handles the base (unsafe) scheme; subclasses that
        override :meth:`load_decision` must override this too (or accept
        the conservative ``None``).
        """
        if type(self).load_decision is SpeculationScheme.load_decision:
            return LoadDecision.VISIBLE
        return None

    def on_load_complete(self, core: "Core", load: DynInstr) -> None:
        """Data returned to the core (visible or invisible)."""

    def predict_value(self, core: "Core", load: DynInstr) -> int:
        """Predicted value for a PREDICT decision (default 0)."""
        return 0

    def on_load_safe(self, core: "Core", load: DynInstr) -> None:
        """The load exited all speculative shadows (may never fire if
        the load is squashed first)."""

    # -- pipeline hooks ----------------------------------------------------
    def may_issue(self, core: "Core", instr: DynInstr, flags: SafetyFlags) -> bool:
        """Gate issue (fence defenses return False while speculative)."""
        return True

    def peek_may_issue(
        self, core: "Core", instr: DynInstr, flags: SafetyFlags
    ) -> Optional[bool]:
        """Side-effect-free preview of :meth:`may_issue` (``None`` =
        unknown; see :meth:`peek_load_decision` for the contract)."""
        if type(self).may_issue is SpeculationScheme.may_issue:
            return True
        return None

    def issue_gate(self, frontier: SafetyFrontier) -> Optional[int]:
        """The youngest seq :meth:`may_issue` admits under ``frontier``,
        or ``None`` when its rule is not a prefix of the ROB window.

        A gate ``g`` states that every entry with ``seq <= g`` may issue
        and every younger one may not, so the issue stage walks the ready
        list up to ``g`` without asking :meth:`may_issue`.  ``None``
        (STT's taint check) keeps the per-entry call.  A scheme that
        does not override :meth:`may_issue` admits the whole window.
        """
        if type(self).may_issue is SpeculationScheme.may_issue:
            return frontier.tail
        return None

    def on_issue_gated(self, core: "Core") -> None:
        """The issue stage stopped at :meth:`issue_gate` with a ready
        entry past it (called at most once per cycle)."""

    def fetch_visible(self, core: "Core", speculative: bool) -> bool:
        """Visibility of an instruction fetch."""
        return not (speculative and self.protects_icache)

    def on_squash(self, core: "Core", squashed: List[DynInstr]) -> None:
        """A branch mispredict squashed these instructions."""

    def on_retire(self, core: "Core", instr: DynInstr) -> None:
        """An instruction retired."""

    def reset(self) -> None:
        """Clear any per-run scheme state."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<scheme {self.name}>"
