"""Forward speculative interference: Table-1-style matrix + three-way
verification.

"It's a Trap!" (Aimoniotis et al., 2021) inverts the paper's channel:
younger squashed secret-dependent instructions perturb *older,
speculation-invariant* ones through shared EU ports, the MSHR file and
RS pressure.  This bench sweeps the three forward victims
(``fwd-eu`` / ``fwd-mshr`` / ``fwd-rs``) across all 16 schemes with the
production runner, renders the matrix of leaking schemes, checks the
:class:`repro.workloads.ForwardReceiver` decodes the planted secret on
every leaking cell, and renders the three-way reconciliation table
(static detector x symbolic verdict x dynamic leak signal) — which
must agree on every pair.

Expected pattern (forward interference breaks invisibility):
  fwd-eu    leaks on every invisible-speculation AND delay-on-miss
            scheme (the secret travels as EU time, not as an address)
  fwd-mshr  leaks exactly where speculative misses occupy MSHRs
            (unsafe, CleanupSpec, InvisiSpec, SafeSpec, MuonTrap)
  fwd-rs    leaks wherever the transmitter load issues speculatively
            (value prediction drains the swarm in both runs: clean)
  fence / STT / priority: clean everywhere, for three different
  reasons (no speculative issue, taint gating, EU preemption +
  operand-independent RS holds).
"""

import pytest

from repro.core.matrix import leak_signals
from repro.core.victims import victim_by_name
from repro.schemes.registry import SCHEME_FACTORIES
from repro.staticcheck.crossval import reconcile_verdicts, render_reconciliation
from repro.workloads import FORWARD_VICTIMS, ForwardReceiver

from _common import emit_report, sweep_grid, with_runner

ALL_SCHEMES = tuple(sorted(SCHEME_FACTORIES))

INVISIBLE_SCHEMES = (
    "cleanupspec",
    "invisispec-futuristic",
    "invisispec-spectre",
    "muontrap",
    "safespec-wfb",
    "safespec-wfc",
)


def run_forward_matrix():
    """One runner sweep over the full forward grid; returns
    ``{victim: {scheme: [signal kinds]}}`` plus the summaries."""
    specs = sweep_grid(FORWARD_VICTIMS, ALL_SCHEMES, max_cycles=40_000)
    outcomes = with_runner(lambda runner: runner.run_outcomes(specs))
    assert all(o.ok for o in outcomes), [o.status for o in outcomes if not o.ok]
    by_cell = {}
    for spec, outcome in zip(specs, outcomes, strict=False):
        by_cell[(spec.victim, spec.scheme, spec.secret)] = outcome.summary
    matrix = {}
    for victim in FORWARD_VICTIMS:
        vspec = victim_by_name(victim)
        matrix[victim] = {
            scheme: [
                s.kind
                for s in leak_signals(
                    vspec,
                    by_cell[(victim, scheme, 0)],
                    by_cell[(victim, scheme, 1)],
                )
            ]
            for scheme in ALL_SCHEMES
        }
    return matrix, by_cell


def format_forward_matrix(matrix):
    width = max(len(s) for s in ALL_SCHEMES)
    lines = [
        "Forward speculative interference matrix "
        "(X = secret-dependent timing of OLDER bound-to-retire loads):",
        "",
        f"  {'scheme':<{width}}  " + "  ".join(f"{v:>8}" for v in FORWARD_VICTIMS),
    ]
    for scheme in ALL_SCHEMES:
        cells = []
        for victim in FORWARD_VICTIMS:
            kinds = matrix[victim][scheme]
            cells.append(f"{'X' if kinds else '.':>8}")
        lines.append(f"  {scheme:<{width}}  " + "  ".join(cells))
    return "\n".join(lines)


@pytest.mark.benchmark(group="forward")
def test_bench_forward_interference(benchmark):
    matrix, by_cell = benchmark.pedantic(
        run_forward_matrix, rounds=1, iterations=1
    )

    # -- receiver accuracy on every leaking cell -----------------------
    decode_lines = ["Receiver decode accuracy (leaking cells only):"]
    for victim in FORWARD_VICTIMS:
        vspec = victim_by_name(victim)
        for scheme in ALL_SCHEMES:
            if not matrix[victim][scheme]:
                continue
            receiver = ForwardReceiver.calibrate(vspec, scheme)
            decoded = {
                secret: receiver.decode(by_cell[(victim, scheme, secret)])
                for secret in (0, 1)
            }
            ok = decoded == {0: 0, 1: 1}
            decode_lines.append(
                f"  {victim:<9} {scheme:<22} decoded {decoded}"
                f" {'ok' if ok else 'WRONG'}"
            )
            assert ok, (victim, scheme, decoded)

    # -- three-way verification over the forward victims ---------------
    rows = reconcile_verdicts(list(FORWARD_VICTIMS), list(ALL_SCHEMES))
    table = render_reconciliation(rows)
    assert all(r.agrees for r in rows), [
        (r.victim, r.scheme, r.agreement) for r in rows if not r.agrees
    ]
    assert all(r.static_flagged for r in rows)

    report = "\n\n".join(
        [
            format_forward_matrix(matrix),
            "\n".join(decode_lines),
            "Three-way reconciliation (static x symbolic x dynamic):\n"
            + table,
        ]
    )
    emit_report("forward_interference", report)

    # -- headline pattern ----------------------------------------------
    def leaks(victim):
        return {s for s in ALL_SCHEMES if matrix[victim][s]}

    for victim in FORWARD_VICTIMS:
        # Forward interference breaks every invisible-speculation scheme
        # (and of course the unsafe baseline).
        assert {"unsafe", *INVISIBLE_SCHEMES} <= leaks(victim), victim
        # The classic defenses that DO block it: fences (nothing
        # speculative issues) and STT (tainted transmitters gated).
        assert not leaks(victim) & {"fence-spectre", "fence-futuristic"}
        assert "stt" not in leaks(victim)
        assert "priority" not in leaks(victim)
    # fwd-eu transmits via EU time, not addresses: delay-on-miss does
    # not help.  fwd-mshr transmits via miss requests: it does.
    assert "dom-nontso" in leaks("fwd-eu")
    assert "dom-nontso" not in leaks("fwd-mshr")
    # Value prediction kills the RS channel (predicted miss drains the
    # swarm identically in both runs) but not the EU-latency channel.
    assert "dom-nontso-vp" in leaks("fwd-eu")
    assert "dom-nontso-vp" not in leaks("fwd-rs")
