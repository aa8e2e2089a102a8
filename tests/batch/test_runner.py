"""Batch planning, eligibility and runner layering."""

import repro.batch.plan as batch_plan
from repro.batch import MIN_LANES, batch_eligible, group_key, plan_batch_groups
from repro.core.victims import ADDR_REF
from repro.memory.hierarchy import HierarchyConfig
from repro.runner import (
    FaultPlan,
    FaultSpec,
    SerialSweepRunner,
    TrialJournal,
    TrialSpec,
    faults,
    make_runner,
)
from repro.runner.spec import effective_dram_jitter, stream_dependent

REFS_A = ((ADDR_REF, 60),)
REFS_B = ((ADDR_REF, 60), (ADDR_REF + 64, 150))


def _spec(**kw):
    base = dict(
        victim="gdnpeu", scheme="dom-nontso", secret=1, seed=4,
        reference_accesses=REFS_A,
    )
    base.update(kw)
    return TrialSpec(**base)


# ----------------------------------------------------------------------
# eligibility + planning
# ----------------------------------------------------------------------
def test_eligibility_gates():
    assert batch_eligible(_spec())
    assert not batch_eligible(_spec(sanitize=True))
    assert not batch_eligible(_spec(snapshot_dir="/tmp/snaps"))
    # Since the counter-based RNG streams, jitter, noise and metrics
    # all batch — they re-partition into per-(secret, seed) cohorts or
    # project per-lane registries instead of bypassing.
    assert batch_eligible(_spec(noise_rate=0.1, noise_pool=(ADDR_REF,)))
    assert batch_eligible(_spec(collect_metrics=True))
    jitter = HierarchyConfig(dram_jitter=5)
    assert batch_eligible(_spec(hierarchy_config=jitter))
    assert batch_eligible(
        _spec(hierarchy_config=HierarchyConfig(dram_jitter=0))
    )


def test_stream_dependence_probe():
    assert not stream_dependent(_spec())
    assert stream_dependent(
        _spec(noise_rate=0.1, noise_pool=(ADDR_REF,))
    )
    assert stream_dependent(
        _spec(hierarchy_config=HierarchyConfig(dram_jitter=3))
    )
    # hierarchy_config=None resolves through the explicit default-probe:
    # the module-level ATTACK_HIERARCHY is jitter-free today, and the
    # probe (not an implicit assumption) is what says so.
    from repro.core.victims import ATTACK_HIERARCHY

    assert effective_dram_jitter(_spec()) == (
        ATTACK_HIERARCHY.dram_jitter
    )
    assert (
        effective_dram_jitter(
            _spec(hierarchy_config=HierarchyConfig(dram_jitter=7))
        )
        == 7
    )


def test_stream_dependent_groups_need_lanes_within_a_seed():
    """A stream-dependent pair differing only in seed cannot share a
    cohort (no cross-seed relabeling), so it is not worth mirroring —
    but two schedules within one seed are."""
    jitter = HierarchyConfig(dram_jitter=5)
    seed_only = [
        _spec(hierarchy_config=jitter, seed=1),
        _spec(hierarchy_config=jitter, seed=2),
    ]
    groups, passthrough, bypassed = batch_plan.plan_batch_groups_report(
        seed_only
    )
    assert groups == []
    assert passthrough == [0, 1]
    assert bypassed == {batch_plan.BYPASS_MIN_LANES: 2}
    lanes_in_seed = [
        _spec(hierarchy_config=jitter, seed=1, reference_accesses=REFS_A),
        _spec(hierarchy_config=jitter, seed=1, reference_accesses=REFS_B),
        _spec(hierarchy_config=jitter, seed=2, reference_accesses=REFS_A),
    ]
    groups, passthrough, bypassed = batch_plan.plan_batch_groups_report(
        lanes_in_seed
    )
    assert groups == [[0, 1, 2]]
    assert passthrough == []
    assert bypassed == {}


def test_plan_report_tallies_bypass_reasons():
    specs = [
        _spec(secret=0, reference_accesses=REFS_A),
        _spec(secret=1, reference_accesses=REFS_B),
        _spec(sanitize=True),
        _spec(snapshot_dir="/tmp/snaps"),
        _spec(scheme="muontrap"),
    ]
    groups, passthrough, bypassed = batch_plan.plan_batch_groups_report(
        specs
    )
    assert groups == [[0, 1]]
    assert passthrough == [2, 3, 4]
    assert bypassed == {
        batch_plan.BYPASS_SANITIZE: 1,
        batch_plan.BYPASS_SNAPSHOT: 1,
        batch_plan.BYPASS_MIN_LANES: 1,
    }


def test_group_key_normalizes_batchable_dimensions():
    a = _spec(secret=0, seed=1, reference_accesses=REFS_A)
    b = _spec(secret=1, seed=9, reference_accesses=REFS_B)
    assert group_key(a) == group_key(b)
    assert group_key(a) != group_key(_spec(scheme="muontrap"))
    assert group_key(a) != group_key(_spec(max_cycles=10_000))


def test_plan_groups_and_passthrough():
    specs = [
        _spec(secret=0, reference_accesses=REFS_A),      # group
        _spec(secret=1, reference_accesses=REFS_B),      # group
        _spec(scheme="muontrap"),                        # singleton scheme
        _spec(sanitize=True),                            # ineligible
        _spec(scheme="unsafe", reference_accesses=REFS_A, seed=1),
        _spec(scheme="unsafe", reference_accesses=REFS_A, seed=2),
    ]
    groups, passthrough = plan_batch_groups(specs)
    # Only the first pair groups: the muontrap spec is alone, the
    # sanitize spec is ineligible, and the unsafe pair shares a single
    # reference schedule (< MIN_LANES distinct lanes: fork territory).
    assert groups == [[0, 1]]
    assert passthrough == [2, 3, 4, 5]
    assert MIN_LANES == 2


# ----------------------------------------------------------------------
# runner layering
# ----------------------------------------------------------------------
def _mixed_specs():
    return [
        _spec(secret=s, seed=seed, reference_accesses=refs)
        for s in (0, 1)
        for seed in (4, 5)
        for refs in (REFS_A, REFS_B)
    ] + [
        _spec(scheme="muontrap"),            # singleton: fork/cold
        _spec(sanitize=True),                # ineligible: cold
        _spec(scheme="unsafe", max_cycles=40),  # deadlocks: structured failure
    ]


def test_runner_batch_layer_matches_cold():
    specs = _mixed_specs()
    cold = SerialSweepRunner().run_outcomes(specs)
    for batched in (
        SerialSweepRunner(batch=True).run_outcomes(specs),
        SerialSweepRunner(batch=True, fork=True).run_outcomes(specs),
        make_runner(workers=1, batch=True).run_outcomes(specs),
    ):
        assert batched == cold


def test_make_runner_threads_batch_flag():
    assert make_runner(workers=1, batch=True).batch is True
    assert make_runner(workers=1).batch is False


def test_batch_respects_journal(tmp_path):
    """Journaled outcomes are reused; the batch layer only simulates
    the remainder, and the merged result is bit-identical."""
    specs = _mixed_specs()[:8]
    cold = SerialSweepRunner().run_outcomes(specs)
    journal = TrialJournal(tmp_path / "sweep.jsonl")
    for outcome in cold[:3]:
        journal.record(outcome)
    result = SerialSweepRunner(batch=True).run_outcomes(
        specs, journal=journal
    )
    assert result == cold
    # Everything is journaled afterwards (checkpoint-resume complete).
    assert len(journal.load()) == len(specs)


def test_batch_layer_defers_to_fault_plans():
    """With a fault plan active the batch layer must stand aside: the
    injected fault must actually fire (and then converge via retry or
    surface as data), exactly as without batching."""
    plan = FaultPlan((
        FaultSpec(
            "deadlock", victim="gdnpeu", scheme="dom-nontso", secret=1,
            at_cycle=100, max_attempts=99,
        ),
    ))
    specs = [
        _spec(secret=0, reference_accesses=REFS_A),
        _spec(secret=0, reference_accesses=REFS_B),
        _spec(secret=1, reference_accesses=REFS_A),
        _spec(secret=1, reference_accesses=REFS_B),
    ]
    faults.install_plan(plan)
    try:
        result = SerialSweepRunner(batch=True).run_outcomes(specs)
    finally:
        faults.clear_plan()
    assert [o.ok for o in result] == [True, True, False, False]
    assert {o.status.value for o in result if not o.ok} == {"deadlock"}


def test_batch_results_cache_and_replay(tmp_path):
    """batch=True composes with the trial cache: batched outcomes are
    written back, and a second run replays them without simulating."""
    specs = _mixed_specs()[:8]
    runner = SerialSweepRunner(batch=True, cache_dir=tmp_path)
    first = runner.run_outcomes(specs)
    assert first == SerialSweepRunner().run_outcomes(specs)
    replay_runner = SerialSweepRunner(batch=True, cache_dir=tmp_path)
    second = replay_runner.run_outcomes(specs)
    assert second == first
    assert replay_runner.trial_cache.stats()["hits"] == len(specs)
