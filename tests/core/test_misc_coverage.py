"""Coverage for assorted public-API corners of the attack kit."""

import pytest

from repro.core.harness import run_victim_trial
from repro.core.matrix import MatrixCell, evaluate_cell
from repro.core.victims import gdnpeu_victim, girs_victim


class TestMatrixEdges:
    def test_girs_data_orderings_are_na(self):
        """GIRS only influences instruction fetches (§3.2.2): the data
        orderings are structurally not applicable."""
        for ordering in ("vd-vd", "vd-ad"):
            cell = evaluate_cell("girs", ordering, "dom-nontso")
            assert not cell.vulnerable
            assert cell.detail == "n/a"

    def test_unknown_gadget_rejected(self):
        with pytest.raises(ValueError):
            evaluate_cell("gportsmash", "vd-vd", "dom-nontso")

    def test_cell_key(self):
        cell = MatrixCell("gdnpeu", "vd-vd", "unsafe", True, 1, 2)
        assert cell.key == ("gdnpeu", "vd-vd", "unsafe")


class TestHarnessExtras:
    def test_extra_lines_monitored(self):
        spec = gdnpeu_victim()
        chase_line = 0x100_000 + 28 * 64  # ADDR_CHASE0's line
        result = run_victim_trial(spec, "unsafe", 0, extra_lines=[chase_line])
        assert result.first_access(chase_line) is not None

    def test_scheme_object_accepted(self):
        from repro.schemes import DelayOnMiss

        spec = gdnpeu_victim()
        result = run_victim_trial(spec, DelayOnMiss("nontso"), 1)
        assert result.scheme == "dom-nontso"

    def test_visible_window_excludes_setup(self):
        """Prime/flush setup must not appear in the trial's log window."""
        spec = gdnpeu_victim()
        result = run_victim_trial(spec, "unsafe", 0)
        assert all(e.cycle >= 0 for e in result.visible)
        # no access can predate the victim's first possible fetch
        lines = {e.line for e in result.visible}
        assert spec.line_a in lines


class TestVictimSpecAPI:
    def test_monitored_lines_listing(self):
        spec = gdnpeu_victim()
        assert spec.monitored_lines() == [spec.line_a, spec.line_b]
        girs = girs_victim()
        assert girs.monitored_lines() == [girs.target_iline]

    def test_target_iline_none_without_label(self):
        spec = gdnpeu_victim()
        assert spec.target_iline is None

    def test_program_listing_renders(self):
        text = gdnpeu_victim().program.listing()
        assert "body:" in text
        assert "load A" in text
