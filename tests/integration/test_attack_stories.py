"""Integration tests: the paper's narratives, end to end.

Each test is a complete story across all subsystems — pipeline, caches,
schemes, attacker agent, receivers — rather than a unit behaviour.
"""

from repro.core.attack import DCacheAttack, ICacheAttack
from repro.core.harness import run_victim_trial
from repro.core.noninterference import check_ideal_invisible_speculation
from repro.core.spectre import spectre_leak_trial
from repro.core.victims import ADDR_REF, gdnpeu_victim, girs_victim


class TestThePaperInOneTest:
    def test_intro_story(self):
        """§1: Spectre works; invisible speculation stops it; the
        interference attack restores the leak."""
        # Spectre leaks on the unprotected machine.
        assert spectre_leak_trial("unsafe", 9).leaked
        # DoM blocks it.
        assert not spectre_leak_trial("dom-nontso", 9).leaked
        # The D-cache interference PoC leaks through DoM anyway.
        attack = DCacheAttack("dom-nontso")
        for bit in (1, 0, 1):
            assert attack.send_bit(bit).correct

    def test_transmitter_never_touches_visible_cache_state(self):
        """The crux: the secret crosses without ANY mis-speculated load
        changing visible cache state.  The transmitter and gadget lines
        never appear in the victim's visible-LLC log under DoM."""
        spec = gdnpeu_victim()
        gadget_lines = {addr & ~63 for addr in spec.prime_l1} | {
            addr & ~63 for addr in spec.flush_lines
        } - {spec.line_a, spec.line_b}
        for secret in (0, 1):
            result = run_victim_trial(spec, "dom-nontso", secret)
            victim_lines = {e.line for e in result.visible if e.core == 0}
            # The chase lines are architectural (older than the branch);
            # the transmitter/secret lines must be absent.
            secret_line = spec.secret_addr & ~63
            s_lines = {(spec.secret_addr & ~63), 0x100800}
            assert secret_line not in victim_lines
        # and yet the bit crosses:
        attack = DCacheAttack("dom-nontso")
        assert attack.send_bit(1).correct and attack.send_bit(0).correct

    def test_cross_core_only_observation(self):
        """The receiver never reads victim-core state: remove every
        direct observation and the attack still works (CrossCore model)."""
        attack = ICacheAttack("invisispec-spectre")
        trial = attack.send_bit(0)
        assert trial.correct

    def test_defense_closes_both_pocs(self):
        for attack_cls in (DCacheAttack, ICacheAttack):
            attack = attack_cls("fence-futuristic")
            received = {attack.send_bit(0).received, attack.send_bit(1).received}
            assert len(received) == 1  # no secret dependence

    def test_property_and_attack_agree(self):
        """The §5.1 property and the end-to-end attack give the same
        verdict on DoM: violated <=> exploitable."""
        spec = gdnpeu_victim()
        report = check_ideal_invisible_speculation(spec, "dom-nontso", 1)
        attack_works = all(
            DCacheAttack("dom-nontso").send_bit(b).correct for b in (0, 1)
        )
        assert (not report.holds) and attack_works

    def test_reference_clock_attack(self):
        """§3.3: an attacker access at a fixed time acts as a clock for
        schemes where two unprotected victim loads cannot coexist
        (MuonTrap here)."""
        spec = gdnpeu_victim()
        t0 = run_victim_trial(spec, "muontrap", 0).first_access(spec.line_a)
        t1 = run_victim_trial(spec, "muontrap", 1).first_access(spec.line_a)
        assert t0 is not None and t1 is not None and t1 > t0
        ref_cycle = (t0 + t1) // 2
        orders = []
        for secret in (0, 1):
            result = run_victim_trial(
                spec, "muontrap", secret,
                reference_accesses=[(ADDR_REF, ref_cycle)],
            )
            orders.append(result.order(spec.line_a, ADDR_REF))
        assert orders[0] != orders[1]

    def test_girs_presence_channel_matches_frontend_stats(self):
        """GIRS's signal and its microarchitectural cause line up: the
        missing-transmitter run shows RS-full dispatch stalls and no
        target fetch; the hitting run shows the opposite."""
        spec = girs_victim()
        miss = run_victim_trial(spec, "dom-nontso", 1)
        hit = run_victim_trial(spec, "dom-nontso", 0)
        assert miss.first_access(spec.target_iline) is None
        assert hit.first_access(spec.target_iline) is not None
        assert miss.core.stats.rs_full_stalls > hit.core.stats.rs_full_stalls
