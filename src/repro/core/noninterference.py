"""Ideal invisible speculation: C(E) = C(NoSpec(E))  (§5.1).

``C(E)`` is the sequence (without timing) of visible shared-cache
accesses of an execution.  ``NoSpec(E)`` is the execution that would
have occurred with no mis-speculation — constructed here by replaying
the retired branch-outcome stream through an oracle predictor.

A scheme satisfies *ideal invisible speculation* for a program iff the
two sequences are identical.  The paper's fence defense satisfies it;
every invisible-speculation scheme violates it on the interference
victims — that violation *is* the covert channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.harness import prepare_machine
from repro.core.victims import VictimSpec
from repro.memory.hierarchy import HierarchyConfig, VisibleAccess
from repro.pipeline.branch import OraclePredictor
from repro.pipeline.scheme_api import SpeculationScheme

#: One C(E) element: (line address, access kind).
TraceElement = Tuple[int, str]


def _canonical(log: List[VisibleAccess]) -> List[TraceElement]:
    return [entry.key() for entry in log]


def llc_trace(
    spec: VictimSpec,
    scheme: Union[str, SpeculationScheme],
    secret: int,
    *,
    hierarchy_config: Optional[HierarchyConfig] = None,
    max_cycles: int = 30_000,
    oracle: Optional[OraclePredictor] = None,
    reference_accesses: Sequence[Tuple[int, int]] = (),
) -> Tuple[List[TraceElement], List[bool]]:
    """Run the victim; return (C(E), retired branch outcomes).

    ``reference_accesses``: attacker fixed-time accesses included in the
    execution.  They matter: C(E) is the *interleaved* sequence of every
    core's visible shared-cache accesses, and the VD-AD/VI-AD attacks
    manifest only as a reorder against such an attacker access (§3.3.1).
    """
    machine, core, _ = prepare_machine(
        spec, scheme, secret, hierarchy_config=hierarchy_config, trace=True
    )
    if oracle is not None:
        core.predictor = oracle
    if reference_accesses:
        from repro.core.harness import ATTACKER_CORE
        from repro.system.agent import AttackerAgent

        agent = AttackerAgent(machine, ATTACKER_CORE)
        for addr, cycle in reference_accesses:
            agent.schedule_read(addr, cycle)
    start = len(machine.hierarchy.visible_log)
    machine.run(until=lambda: core.halted, max_cycles=max_cycles)
    outcomes = [
        bool(i.actual_taken)
        for i in core.trace
        if i.is_branch and i.phase.value == "retired" and not i.static.unconditional
    ]
    return _canonical(machine.hierarchy.log_since(start)), outcomes


def nospec_trace(
    spec: VictimSpec,
    scheme: Union[str, SpeculationScheme],
    secret: int,
    *,
    hierarchy_config: Optional[HierarchyConfig] = None,
    max_cycles: int = 30_000,
    reference_accesses: Sequence[Tuple[int, int]] = (),
) -> List[TraceElement]:
    """C(NoSpec(E)): replay with a perfect (oracle) predictor."""
    _, outcomes = llc_trace(
        spec,
        scheme,
        secret,
        hierarchy_config=hierarchy_config,
        max_cycles=max_cycles,
        reference_accesses=reference_accesses,
    )
    trace, _ = llc_trace(
        spec,
        scheme,
        secret,
        hierarchy_config=hierarchy_config,
        max_cycles=max_cycles,
        oracle=OraclePredictor(outcomes),
        reference_accesses=reference_accesses,
    )
    return trace


@dataclass
class NonInterferenceReport:
    scheme: str
    secret: int
    holds: bool
    spec_trace: List[TraceElement]
    nospec_trace: List[TraceElement]

    def divergence(self) -> Optional[int]:
        """Index of the first differing element, or None."""
        for idx, (a, b) in enumerate(zip(self.spec_trace, self.nospec_trace, strict=False)):
            if a != b:
                return idx
        if len(self.spec_trace) != len(self.nospec_trace):
            return min(len(self.spec_trace), len(self.nospec_trace))
        return None


def check_ideal_invisible_speculation(
    spec: VictimSpec,
    scheme: Union[str, SpeculationScheme],
    secret: int = 1,
    *,
    hierarchy_config: Optional[HierarchyConfig] = None,
    max_cycles: int = 30_000,
    reference_accesses: Sequence[Tuple[int, int]] = (),
) -> NonInterferenceReport:
    """Does ``scheme`` satisfy C(E) = C(NoSpec(E)) on this victim?"""
    spec_t, outcomes = llc_trace(
        spec,
        scheme,
        secret,
        hierarchy_config=hierarchy_config,
        max_cycles=max_cycles,
        reference_accesses=reference_accesses,
    )
    nospec_t, _ = llc_trace(
        spec,
        scheme,
        secret,
        hierarchy_config=hierarchy_config,
        max_cycles=max_cycles,
        oracle=OraclePredictor(outcomes),
        reference_accesses=reference_accesses,
    )
    from repro.pipeline.scheme_api import SpeculationScheme as _S

    name = scheme.name if isinstance(scheme, _S) else scheme
    return NonInterferenceReport(
        scheme=name,
        secret=secret,
        holds=spec_t == nospec_t,
        spec_trace=spec_t,
        nospec_trace=nospec_t,
    )
