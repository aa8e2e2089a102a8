"""Tests for the attacker calibration toolkit."""

from repro.core.calibrate import (
    find_reference_cycle,
    secret_dependent_order,
    sweep_parameter,
    tune_gdnpeu_reference_chain,
)
from repro.core.harness import run_victim_trial
from repro.core.victims import ADDR_REF, gdnpeu_victim


class TestReferenceCalibration:
    def test_finds_midpoint_for_vulnerable_scheme(self):
        spec = gdnpeu_victim()
        ref = find_reference_cycle(spec, "muontrap")
        assert ref is not None
        t0 = run_victim_trial(spec, "muontrap", 0).first_access(spec.line_a)
        t1 = run_victim_trial(spec, "muontrap", 1).first_access(spec.line_a)
        assert min(t0, t1) < ref < max(t0, t1)

    def test_returns_none_for_fence(self):
        assert find_reference_cycle(gdnpeu_victim(), "fence-spectre") is None

    def test_calibrated_reference_completes_attack(self):
        """Full VD-AD cycle: calibrate, then verify the order flips
        against the live reference access."""
        spec = gdnpeu_victim()
        ref = find_reference_cycle(spec, "condspec")
        orders = []
        for secret in (0, 1):
            trial = run_victim_trial(
                spec, "condspec", secret, reference_accesses=[(ADDR_REF, ref)]
            )
            orders.append(trial.order(spec.line_a, ADDR_REF))
        assert orders[0] != orders[1]


class TestParameterSweep:
    def test_default_parameters_already_work(self):
        assert secret_dependent_order(gdnpeu_victim(), "dom-nontso")

    def test_detuned_gadget_fails_and_sweep_recovers(self):
        """With g too short, B issues before A either way: no channel.
        The sweep finds a working chain length, like a real attacker
        tuning against unknown hardware."""
        detuned = gdnpeu_victim(g_len=3)
        assert not secret_dependent_order(detuned, "dom-nontso")
        result = tune_gdnpeu_reference_chain(
            "dom-nontso", g_len_candidates=(3, 4, 12, 16)
        )
        assert result.ok
        assert result.value not in (3, 4)
        assert result.spec is not None
        assert secret_dependent_order(result.spec, "dom-nontso")

    def test_sweep_reports_failures(self):
        result = sweep_parameter(
            gdnpeu_victim, "g_len", (3, 4), "fence-spectre"
        )
        assert not result.ok
        assert result.value is None
        assert [v for v, _ in result.tried] == [3, 4]
        assert "FAILED" in result.describe()

    def test_describe_mentions_parameter(self):
        result = tune_gdnpeu_reference_chain(
            "dom-nontso", g_len_candidates=(12,)
        )
        assert "g_len=12" in result.describe()
        assert "calibrated" in result.describe()
