"""The noninterference checker: symbolic verdicts, grounded dynamically.

:func:`check_victim` runs the bounded lockstep executor for one
(victim, scheme) pair and classifies the result:

``clean``
    No observable divergence over the whole secret space — a proof of
    two-run noninterference *up to the exploration bounds* (the verdict
    records them, and whether any was hit).
``leak-confirmed``
    The abstract footprints diverge *and* replaying the diverging
    secret pair through the cycle-level simulator exhibits a dynamic
    interference signal (order flip / margin shift / presence).
``leak-unverified``
    Divergence found but replay was disabled — an honest intermediate,
    never silently upgraded.
``abstraction-gap``
    Divergence found but the simulator does not reproduce it (or the
    replay itself failed).  The abstraction over-approximates here; the
    record keeps the full counterexample and both trial outcomes so the
    gap is auditable, never dropped.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.matrix import MARGIN
from repro.core.victims import VICTIM_FACTORIES, VICTIM_MEMO_SIZE, VictimSpec, victim_by_name
from repro.isa.symbolic import Assignment, SecretSpace
from repro.pipeline.scheme_api import SpeculationScheme
from repro.schemes.registry import SCHEME_FACTORIES
from repro.symni.counterexample import Counterexample, minimize_counterexample
from repro.symni.executor import CheckBounds, ExecutionResult, SymniExecutor
from repro.symni.model import SchemeModel, resolve_model
from repro.symni.observables import Divergence, first_divergence
from repro.symni.replay import REPLAY_MAX_CYCLES, ReplayResult, replay_counterexample

STATUS_CLEAN = "clean"
STATUS_CONFIRMED = "leak-confirmed"
STATUS_UNVERIFIED = "leak-unverified"
STATUS_GAP = "abstraction-gap"

VERDICT_STATUSES = (
    STATUS_CLEAN,
    STATUS_CONFIRMED,
    STATUS_UNVERIFIED,
    STATUS_GAP,
)


def _secret_of(assignment: Assignment) -> int:
    """The concrete secret a lane's assignment writes to the victim's
    secret address (single-variable spaces: the lone value)."""
    value = 0
    for _, value in assignment:
        pass
    return value


@dataclass(frozen=True)
class SchemeVerdict:
    """The checker's answer for one (victim, scheme) pair."""

    victim: str
    scheme: str
    status: str
    bounds: CheckBounds
    execution: ExecutionResult
    divergence: Optional[Divergence] = None
    counterexample: Optional[Counterexample] = None
    replay: Optional[ReplayResult] = None
    notes: Tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return self.status == STATUS_CLEAN

    @property
    def leaks(self) -> bool:
        return self.status in (STATUS_CONFIRMED, STATUS_UNVERIFIED)

    def describe(self) -> str:
        head = f"{self.victim} under {self.scheme}: {self.status}"
        if self.clean:
            qualifier = (
                " (bound hit: result holds only up to the bound)"
                if self.execution.truncated
                else f" up to {self.bounds.describe()}"
            )
            return head + qualifier
        assert self.divergence is not None
        lines = [head, "  " + self.divergence.describe()]
        if self.replay is not None:
            lines.append("  replay: " + self.replay.describe())
        return "\n".join(lines)


@functools.lru_cache(maxsize=VICTIM_MEMO_SIZE)
def victim_listing(spec: VictimSpec) -> str:
    """The victim program's listing, rendered once per victim while it
    stays among the most recently used (keyed on the victim object
    itself, which the memo holds, as ``crossval.static_families`` is)."""
    return spec.program.listing()


def check_victim(
    victim: str,
    scheme: Union[str, SchemeModel, SpeculationScheme],
    *,
    victim_kwargs: Optional[Dict[str, object]] = None,
    bounds: Optional[CheckBounds] = None,
    space: Optional[SecretSpace] = None,
    replay: bool = True,
    minimize: bool = False,
    margin: int = MARGIN,
    max_cycles: int = REPLAY_MAX_CYCLES,
) -> SchemeVerdict:
    """Check two-run noninterference of one built-in victim under one
    scheme; ground any counterexample in the simulator."""
    kwargs = dict(victim_kwargs or {})
    spec = victim_by_name(victim, **kwargs)
    model = resolve_model(scheme)
    check_bounds = bounds or CheckBounds()
    executor = SymniExecutor.for_victim(
        spec, model, space=space, bounds=check_bounds
    )
    execution = executor.run()
    divergence = first_divergence(execution.traces, execution.assignments)
    notes = list(execution.notes)

    if divergence is None:
        return SchemeVerdict(
            victim=victim,
            scheme=model.name,
            status=STATUS_CLEAN,
            bounds=check_bounds,
            execution=execution,
            notes=tuple(notes),
        )

    counterexample = Counterexample(
        victim=victim,
        scheme=model.name,
        program_listing=victim_listing(spec),
        assignment0=divergence.assignment0,
        assignment1=divergence.assignment1,
        divergence=divergence,
    )
    if minimize:
        counterexample = minimize_counterexample(
            counterexample, spec, model, bounds=check_bounds, space=space
        )

    replay_result: Optional[ReplayResult] = None
    status = STATUS_UNVERIFIED
    if replay:
        secrets = (
            _secret_of(divergence.assignment0),
            _secret_of(divergence.assignment1),
        )
        replay_result = replay_counterexample(
            spec,
            victim,
            model.name,
            secrets,
            victim_kwargs=kwargs,
            margin=margin,
            max_cycles=max_cycles,
        )
        if replay_result.reproduced:
            status = STATUS_CONFIRMED
        else:
            status = STATUS_GAP
            notes.append(
                "abstraction gap: symbolic divergence "
                f"[{divergence.kind}] not reproduced dynamically "
                f"({replay_result.describe()})"
            )
    return SchemeVerdict(
        victim=victim,
        scheme=model.name,
        status=status,
        bounds=check_bounds,
        execution=execution,
        divergence=divergence,
        counterexample=counterexample,
        replay=replay_result,
        notes=tuple(notes),
    )


def check_matrix(
    victims: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
    *,
    bounds: Optional[CheckBounds] = None,
    replay: bool = True,
    minimize: bool = False,
) -> List[SchemeVerdict]:
    """The full victims x schemes verdict matrix (defaults: every
    built-in victim against every registry scheme)."""
    victim_names = list(victims) if victims else sorted(VICTIM_FACTORIES)
    scheme_names = list(schemes) if schemes else sorted(SCHEME_FACTORIES)
    return [
        check_victim(
            victim,
            scheme,
            bounds=bounds,
            replay=replay,
            minimize=minimize,
        )
        for victim in victim_names
        for scheme in scheme_names
    ]
