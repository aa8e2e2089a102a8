"""Divergence ejection: correctness must never depend on convergence.

One lane's reference schedule deliberately perturbs the secret-
dependent path (touching the victim's monitored line and evicting it
from a conflicting set mid-speculation), so its mirrored memory system
stops agreeing with the leader's.  The engine must detect the first
disagreement, eject exactly that lane to the scalar cold path, and
still return outcomes bit-identical to cold execution for every spec.
"""

import pytest

from repro.batch.engine import run_batch_group_detailed
from repro.core.harness import LINE
from repro.core.victims import ADDR_REF, victim_by_name
from repro.runner import SerialSweepRunner, TrialSpec

#: Early reads of the victim's own monitored line plus a conflicting
#: line in the same set (8 sets/slice x 64B lines x 64-set stride) make
#: the follower's cache state — and therefore its access timings —
#: genuinely diverge from the leader's mid-group.
def _divergent_refs(victim):
    return (
        (victim.line_a, 2),
        (victim.line_a + LINE * 8 * 64, 3),
        (ADDR_REF, 400),
    )


def _specs(victim, scheme="dom-nontso"):
    return [
        TrialSpec(
            victim="gdnpeu",
            scheme=scheme,
            secret=1,
            seed=11,
            reference_accesses=refs,
        )
        for refs in (
            ((ADDR_REF, 400),),
            ((ADDR_REF + 64, 200),),
            _divergent_refs(victim),
        )
    ]


def test_divergent_lane_is_ejected_and_rerun_cold():
    victim = victim_by_name("gdnpeu")
    specs = _specs(victim)
    cold = SerialSweepRunner().run_outcomes(specs)
    assert all(o.ok for o in cold)
    report = run_batch_group_detailed(specs)
    # Exactly the perturbed lane ejected; the others stayed in lockstep.
    assert report.ejected == 1
    (cohort,) = report.cohorts
    (reason,) = cohort.diverged.values()
    assert "lane" in reason and "leader" in reason
    assert 2 in cohort.diverged  # the third schedule is the divergent one
    # Ejection is invisible in the results: bit-identical to cold.
    assert report.outcomes == cold


def test_divergent_lane_through_runner_layer():
    """The runner's batch layer returns the same outcomes even when a
    lane ejects mid-group (the ejected spec re-runs cold inside)."""
    victim = victim_by_name("gdnpeu")
    specs = _specs(victim)
    cold = SerialSweepRunner().run_outcomes(specs)
    batched = SerialSweepRunner(batch=True).run_outcomes(specs)
    assert batched == cold


@pytest.mark.parametrize("scheme", ["unsafe", "invisispec-spectre", "stt"])
def test_divergence_handling_across_schemes(scheme):
    """The eject-and-rerun path is scheme-agnostic: whatever the mirror
    decides (convergence or ejection), outcomes match cold."""
    victim = victim_by_name("gdnpeu")
    specs = _specs(victim, scheme=scheme)
    cold = SerialSweepRunner().run_outcomes(specs)
    report = run_batch_group_detailed(specs)
    assert report.outcomes == cold


def test_traces_survive_ejection():
    """with_traces: surviving lanes still reconstruct exact traces when
    a sibling lane ejected mid-group; the ejected lane reports none."""
    from repro.core.harness import run_victim_trial
    from repro.trace import Tracer

    victim = victim_by_name("gdnpeu")
    specs = _specs(victim)
    report = run_batch_group_detailed(specs, with_traces=True)
    (cohort,) = report.cohorts
    assert 2 in cohort.diverged
    assert 2 not in cohort.traces
    for k in (0, 1):
        cold_tracer = Tracer()
        run_victim_trial(
            victim,
            "dom-nontso",
            1,
            seed=11,
            reference_accesses=cohort.lane_specs[k].reference_accesses,
            tracer=cold_tracer,
        )
        assert cohort.traces[k] == list(cold_tracer.events)
