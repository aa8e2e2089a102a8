"""Differential proof that the *widened* batch core is exact.

The original lockstep suite (test_differential) covers stream-inert
sweeps.  These tests cover everything the widening added: DRAM-jittered
and noise-injected sweeps (per-lane counter-based RNG streams),
metrics-collecting sweeps (per-lane registry projections), the batched
attacker probe phase (per-lane receiver decodes, including the forward
interference victims), forced-divergence ejection under jitter/noise,
and the sweep-level ``sweep.batch.*`` accounting.
"""

import pytest

import repro.batch.engine as engine_mod
from repro.batch.engine import run_batch_group_detailed
from repro.core.harness import LINE, run_victim_trial
from repro.core.victims import ADDR_REF, victim_by_name
from repro.memory.hierarchy import HierarchyConfig
from repro.runner import SerialSweepRunner, TrialSpec
from repro.schemes.registry import SCHEME_FACTORIES
from repro.trace import Tracer
from repro.workloads import decode_probe, probe_addresses, spec_probe_threshold

ALL_SCHEMES = sorted(SCHEME_FACTORIES)

SECRETS = (0, 1)
REF_SCHEDULES = (
    (),
    ((ADDR_REF, 60),),
    ((ADDR_REF, 60), (ADDR_REF + 64, 150)),
)

#: A jittered hierarchy: every DRAM fill latency draws 0..5 extra
#: cycles from the per-(cycle, core) counter stream.
JITTERED = HierarchyConfig(dram_jitter=5)

NOISE_POOL = (ADDR_REF + 4096, ADDR_REF + 4096 + 64)


def _specs(scheme, *, seed=100, **kw):
    return [
        TrialSpec(
            victim="gdnpeu",
            scheme=scheme,
            secret=secret,
            seed=seed,
            reference_accesses=refs,
            **kw,
        )
        for secret in SECRETS
        for refs in REF_SCHEDULES
    ]


def _assert_batch_equals_cold(specs):
    cold = SerialSweepRunner().run_outcomes(specs)
    assert all(o.ok for o in cold)
    report = run_batch_group_detailed(specs)
    assert report.ejected == 0  # every lane stayed in lockstep
    assert report.outcomes == cold
    return cold, report


# ----------------------------------------------------------------------
# stream-dependent sweeps: jitter and noise
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_jittered_bit_identical_summaries(scheme):
    """DRAM jitter batches: the mirror consumes the same per-lane
    counter stream the scalar memory model does, so a jittered cohort
    (2 secrets x 3 reference schedules sharing one seed) stays in
    lockstep and matches cold bit-for-bit."""
    _assert_batch_equals_cold(
        _specs(scheme, hierarchy_config=JITTERED)
    )


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_noisy_bit_identical_summaries(scheme):
    """Noise injection batches: the injector's schedule is a pure
    function of (seed, cycle), its accesses mirror like any other op,
    and outcomes match cold exactly."""
    _assert_batch_equals_cold(
        _specs(scheme, noise_rate=0.2, noise_pool=NOISE_POOL)
    )


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_jittered_bit_identical_event_trace(scheme):
    """Reconstructed per-lane event traces under jitter equal the cold
    tracer stream — every kind, every cycle, every arg (DRAM fill
    latencies included, so this pins the mirrored jitter draws)."""
    specs = _specs(scheme, seed=9, hierarchy_config=JITTERED)
    report = run_batch_group_detailed(specs, with_traces=True)
    assert report.ejected == 0
    victim = victim_by_name("gdnpeu")
    for cohort in report.cohorts:
        for k, lane_spec in enumerate(cohort.lane_specs):
            cold_tracer = Tracer()
            run_victim_trial(
                victim,
                scheme,
                lane_spec.secret,
                seed=lane_spec.seed,
                reference_accesses=lane_spec.reference_accesses,
                hierarchy_config=JITTERED,
                tracer=cold_tracer,
            )
            assert cohort.traces[k] == list(cold_tracer.events)


def test_jitter_cohorts_do_not_cross_seeds():
    """Stream-dependent specs cohort per (secret, seed): seeds draw
    different jitter, so a multi-seed group must still match cold."""
    specs = [
        TrialSpec(
            victim="gdnpeu",
            scheme="dom-nontso",
            secret=secret,
            seed=seed,
            reference_accesses=refs,
            hierarchy_config=JITTERED,
        )
        for secret in SECRETS
        for seed in (100, 101)
        for refs in REF_SCHEDULES
    ]
    cold, report = _assert_batch_equals_cold(specs)
    assert len(report.cohorts) == 4  # 2 secrets x 2 seeds


# ----------------------------------------------------------------------
# metrics-compatible lockstep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_metrics_bit_identical(scheme):
    """collect_metrics batches: follower registries read each lane's own
    cache and DRAM counters plus the leader's stage trace, and serialize
    identically to a cold trial's registry (TrialSummary equality
    covers the full metrics dict)."""
    specs = _specs(scheme, collect_metrics=True)
    cold, report = _assert_batch_equals_cold(specs)
    for outcome in cold:
        assert outcome.summary.metrics is not None


def test_metrics_and_jitter_compose():
    """The two widened dimensions together: jittered, metrics-collecting
    cohorts still match cold."""
    _assert_batch_equals_cold(
        _specs(
            "dom-nontso", hierarchy_config=JITTERED, collect_metrics=True
        )
    )


# ----------------------------------------------------------------------
# batched probe phase
# ----------------------------------------------------------------------
PROBE_VICTIMS = ("gdnpeu", "fwd-eu", "fwd-mshr", "fwd-rs")


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_probe_matrix_matches_scalar(scheme):
    """Per-lane probe latencies — and the receiver decodes they imply —
    are identical to scalar probes across every scheme and both
    secrets, for the classic victim and all three forward-interference
    victims."""
    for name in PROBE_VICTIMS:
        victim = victim_by_name(name)
        specs = [
            TrialSpec(
                victim=name,
                scheme=scheme,
                secret=secret,
                seed=7,
                reference_accesses=refs,
                probe_accesses=probe_addresses(victim),
            )
            for secret in SECRETS
            for refs in REF_SCHEDULES[:2]
        ]
        cold = SerialSweepRunner().run_outcomes(specs)
        assert all(o.ok for o in cold)
        report = run_batch_group_detailed(specs)
        assert report.ejected == 0, name
        assert report.outcomes == cold, name
        for spec, outcome in zip(specs, report.outcomes, strict=False):
            summary = outcome.summary
            assert summary.probe_latencies is not None
            assert len(summary.probe_latencies) == len(spec.probe_accesses)
            threshold = spec_probe_threshold(spec)
            cold_summary = cold[specs.index(spec)].summary
            assert decode_probe(summary, threshold) == decode_probe(
                cold_summary, threshold
            )


def test_probe_with_jitter_and_metrics():
    """The probe phase composes with the stream-dependent and
    metrics-projecting paths."""
    victim = victim_by_name("gdnpeu")
    specs = _specs(
        "dom-nontso",
        hierarchy_config=JITTERED,
        collect_metrics=True,
        probe_accesses=probe_addresses(victim),
    )
    cold, report = _assert_batch_equals_cold(specs)
    for outcome in cold:
        assert outcome.summary.probe_latencies is not None


def test_probe_windows_close_before_the_probe():
    """The probe's own visible accesses never leak into the victim
    window the summary reports."""
    from dataclasses import replace

    victim = victim_by_name("gdnpeu")
    specs = _specs("unsafe", probe_accesses=probe_addresses(victim))
    bare = SerialSweepRunner().run_outcomes(
        [replace(s, probe_accesses=()) for s in specs]
    )
    cold, _ = _assert_batch_equals_cold(specs)
    for with_probe, without in zip(cold, bare, strict=False):
        assert with_probe.summary.visible == without.summary.visible
        assert (
            with_probe.summary.access_cycle == without.summary.access_cycle
        )


# ----------------------------------------------------------------------
# ejection under the widened dimensions
# ----------------------------------------------------------------------
def _divergent_refs(victim):
    # Same perturbation as test_divergence: touch the victim's monitored
    # line plus a same-set conflict so the lane's cache state (and thus
    # timing) genuinely diverges mid-speculation.
    return (
        (victim.line_a, 2),
        (victim.line_a + LINE * 8 * 64, 3),
        (ADDR_REF, 400),
    )


def _divergence_specs(victim, **kw):
    return [
        TrialSpec(
            victim="gdnpeu",
            scheme="dom-nontso",
            secret=1,
            seed=11,
            reference_accesses=refs,
            **kw,
        )
        for refs in (
            ((ADDR_REF, 400),),
            ((ADDR_REF + 64, 200),),
            _divergent_refs(victim),
        )
    ]


@pytest.mark.parametrize(
    "extra",
    [
        {"hierarchy_config": JITTERED},
        {"noise_rate": 0.2, "noise_pool": NOISE_POOL},
    ],
    ids=["jitter", "noise"],
)
def test_divergent_lane_ejects_under_stream_dependence(extra):
    """Ejection stays surgical when the cohort is stream-dependent: the
    perturbed lane falls back to a cold trial that consumes the *same*
    seeded stream, so results remain bit-identical to cold."""
    victim = victim_by_name("gdnpeu")
    specs = _divergence_specs(victim, **extra)
    cold = SerialSweepRunner().run_outcomes(specs)
    assert all(o.ok for o in cold)
    report = run_batch_group_detailed(specs)
    assert report.ejected == 1
    (cohort,) = report.cohorts
    assert 2 in cohort.diverged  # exactly the perturbed lane
    assert report.outcomes == cold


def test_forced_rng_divergence_ejects_exactly_that_lane(monkeypatch):
    """Adversarial per-lane RNG check: add 1 to lane 1's own DRAM jitter
    and its replayed latency must disagree with the scalar leader on the
    first jittered fill — ejecting exactly that lane, nothing else,
    with outcomes still bit-identical to cold."""
    victim = victim_by_name("gdnpeu")
    specs = _divergence_specs(victim, hierarchy_config=JITTERED)[:2] + [
        TrialSpec(
            victim="gdnpeu",
            scheme="dom-nontso",
            secret=1,
            seed=11,
            reference_accesses=((ADDR_REF + 128, 300),),
            hierarchy_config=JITTERED,
        )
    ]
    cold = SerialSweepRunner().run_outcomes(specs)
    assert all(o.ok for o in cold)

    real_init = engine_mod.LockstepMirror.__init__

    def skew_lane_one(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        memory = self.lanes[1].memory
        real_latency = memory.access_latency
        memory.access_latency = lambda cycle=0, core=0: (
            real_latency(cycle, core) + 1
        )

    monkeypatch.setattr(engine_mod.LockstepMirror, "__init__", skew_lane_one)
    report = run_batch_group_detailed(specs)
    assert report.ejected == 1
    (cohort,) = report.cohorts
    (lane,) = cohort.diverged
    assert lane == 1  # the skewed lane, and only it
    assert "leader" in cohort.diverged[lane]
    assert report.outcomes == cold


# ----------------------------------------------------------------------
# sweep-level accounting
# ----------------------------------------------------------------------
def test_sweep_batch_stats_and_aggregate_metrics():
    """batch=True sweeps surface their lockstep accounting: batched and
    ejected lane counts plus per-reason bypasses, mirrored into the
    aggregate registry as ``sweep.batch.*`` counters."""
    specs = [
        TrialSpec(
            victim="gdnpeu",
            scheme="dom-nontso",
            secret=1,
            seed=4,
            reference_accesses=refs,
        )
        for refs in REF_SCHEDULES[1:]
    ] + [
        TrialSpec(
            victim="gdnpeu",
            scheme="dom-nontso",
            secret=1,
            seed=4,
            reference_accesses=REF_SCHEDULES[1],
            sanitize=True,
        ),
        TrialSpec(victim="gdnpeu", scheme="muontrap", secret=1, seed=4),
    ]
    result = SerialSweepRunner(batch=True).run(specs)
    assert result.batch_stats == {
        "batched": 2,
        "ejected": 0,
        "bypass.sanitize": 1,
        "bypass.min_lanes": 1,
    }
    metrics = result.aggregate_metrics().to_json()
    counters = metrics["counters"]
    assert counters["sweep.batch.batched"] == 2
    assert counters["sweep.batch.ejected"] == 0
    assert counters["sweep.batch.bypass.sanitize"] == 1
    assert counters["sweep.batch.bypass.min_lanes"] == 1


def test_plain_sweep_has_no_batch_stats():
    specs = [
        TrialSpec(victim="gdnpeu", scheme="dom-nontso", secret=1, seed=4)
    ]
    result = SerialSweepRunner().run(specs)
    assert result.batch_stats is None
