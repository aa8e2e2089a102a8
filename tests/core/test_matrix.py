"""Table 1 reproduction tests: the vulnerability matrix must match the
paper's published pattern cell for cell."""

import pytest

from repro.core.harness import TrialResult
from repro.core.matrix import MARGIN, evaluate_cell, format_matrix, leak_signals
from repro.core.victims import gdnpeu_victim

# The paper's Table 1, translated to our scheme names.  The VD-VD/VI
# column is tested via VD-VD; the VI orderings via VI-AD.
EXPECTED_VULNERABLE = {
    ("gdnpeu", "vd-vd"): {"invisispec-spectre", "dom-nontso", "safespec-wfb"},
    ("gdnpeu", "vd-ad"): {
        "invisispec-spectre",
        "invisispec-futuristic",
        "dom-nontso",
        "dom-tso",
        "safespec-wfb",
        "safespec-wfc",
        "muontrap",
        "condspec",
    },
    ("gdnpeu", "vi-ad"): {
        "invisispec-spectre",
        "invisispec-futuristic",
        "dom-nontso",
        "dom-tso",
        "safespec-wfb",
        "safespec-wfc",
        "muontrap",
        "condspec",
    },
    ("gdmshr", "vd-vd"): {"invisispec-spectre", "safespec-wfb"},
    ("gdmshr", "vd-ad"): {
        "invisispec-spectre",
        "invisispec-futuristic",
        "safespec-wfb",
        "safespec-wfc",
        "muontrap",
    },
    ("gdmshr", "vi-ad"): {
        "invisispec-spectre",
        "invisispec-futuristic",
        "safespec-wfb",
        "safespec-wfc",
        "muontrap",
    },
    ("girs", "vd-vd"): set(),
    ("girs", "vd-ad"): set(),
    ("girs", "vi-ad"): {"invisispec-spectre", "invisispec-futuristic",
                        "dom-nontso", "dom-tso"},
}

ATTACK_SCHEMES = sorted(
    {s for schemes in EXPECTED_VULNERABLE.values() for s in schemes}
)


def cell_ids():
    for (gadget, ordering), expected in sorted(EXPECTED_VULNERABLE.items()):
        for scheme in ATTACK_SCHEMES:
            yield gadget, ordering, scheme, scheme in expected


@pytest.mark.parametrize(
    "gadget,ordering,scheme,expected",
    list(cell_ids()),
    ids=lambda v: str(v),
)
def test_matrix_cell_matches_table1(gadget, ordering, scheme, expected):
    cell = evaluate_cell(gadget, ordering, scheme)
    assert cell.vulnerable == expected, cell.detail


@pytest.mark.parametrize("scheme", ["fence-spectre", "fence-futuristic"])
@pytest.mark.parametrize("gadget", ["gdnpeu", "gdmshr", "girs"])
@pytest.mark.parametrize("ordering", ["vd-vd", "vd-ad", "vi-ad"])
def test_fence_defense_invulnerable_everywhere(scheme, gadget, ordering):
    cell = evaluate_cell(gadget, ordering, scheme)
    assert not cell.vulnerable, cell.detail


def test_priority_defense_blocks_gdnpeu_orderings():
    """The §5.4 advanced defense removes the EU-contention channel."""
    for ordering in ("vd-vd", "vd-ad"):
        cell = evaluate_cell("gdnpeu", ordering, "priority")
        assert not cell.vulnerable, cell.detail


def test_format_matrix_renders():
    cells = [
        evaluate_cell("gdnpeu", "vd-vd", "dom-nontso"),
        evaluate_cell("gdnpeu", "vd-vd", "dom-tso"),
    ]
    text = format_matrix(cells)
    assert "gdnpeu" in text
    assert "dom-nontso" in text
    assert "dom-tso" not in text.split("|")[1]  # invulnerable not listed


# ----------------------------------------------------------------------
# the leak-signal definition, over hand-built observations
# ----------------------------------------------------------------------
#: A victim monitoring data lines A and B and a target I-line.
SPEC = gdnpeu_victim(variant="vi-ad")
LINES = {"a": SPEC.line_a, "b": SPEC.line_b, "i": SPEC.target_iline}


def _run(**first_access):
    """A run whose visible log holds only these first accesses."""
    return TrialResult(
        secret=0,
        scheme="unsafe",
        cycles=0,
        access_cycle={LINES[k]: t for k, t in first_access.items()},
        visible=[],
    )


@pytest.mark.parametrize(
    "run0,run1,expected",
    [
        # One cycle short of the margin is quiet; the margin itself shifts.
        ({"a": 100}, {"a": 100 + MARGIN - 1}, []),
        ({"a": 100}, {"a": 100 + MARGIN}, [("shift", "a", "data")]),
        ({"i": 100 + MARGIN}, {"i": 100}, [("shift", "i", "inst")]),
        # A line touched in only one run; a line touched in neither.
        ({"b": 50}, {}, [("presence", "b", "data")]),
        ({}, {"i": 50}, [("presence", "i", "inst")]),
        ({}, {}, []),
        # Equal first accesses of A and B give no order, so no flip.
        ({"a": 10, "b": 10}, {"a": 12, "b": 11}, []),
        # A flip needs an order in both runs.
        ({"a": 10, "b": 12}, {"a": 10}, [("presence", "b", "data")]),
        ({"a": 10, "b": 12}, {"a": 12, "b": 10}, [("order-flip", "a", "data")]),
        # Several at once: the order flip, then lines A, B and the I-line.
        (
            {"a": 10, "b": 20, "i": 5},
            {"a": 50, "b": 30},
            [
                ("order-flip", "a", "data"),
                ("shift", "a", "data"),
                ("shift", "b", "data"),
                ("presence", "i", "inst"),
            ],
        ),
    ],
)
def test_leak_signals_table(run0, run1, expected):
    signals = leak_signals(SPEC, _run(**run0), _run(**run1))
    assert [(s.kind, s.line, s.side) for s in signals] == [
        (kind, LINES[line], side) for kind, line, side in expected
    ]


def test_leak_signal_details_name_runs_by_index():
    flip, presence = leak_signals(
        SPEC, _run(a=10, b=12), _run(a=12, b=10, i=40)
    )
    assert flip.detail == "order(A,B) flips: run0=xy run1=yx"
    assert (flip.t_secret0, flip.t_secret1) == (10, 12)
    assert presence.detail == f"line {LINES['i']:#x} accessed only in run 1"
    assert (presence.t_secret0, presence.t_secret1) == (None, 40)
    (absent,) = leak_signals(SPEC, _run(b=50), _run())
    assert absent.detail == f"line {LINES['b']:#x} accessed only in run 0"
    (shift,) = leak_signals(SPEC, _run(b=0), _run(b=MARGIN))
    assert shift.detail == (
        f"line {LINES['b']:#x} first access moved {MARGIN} cycle(s) "
        f"(margin {MARGIN})"
    )
