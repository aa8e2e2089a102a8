#!/usr/bin/env python3
"""Visualize the interference cascades (Figures 3, 4, 5).

Renders ASCII pipeline timelines for each gadget, secret=0 vs secret=1,
so you can watch the gadget ops occupy the non-pipelined unit, the
MSHR-blocked victim load, and the frozen frontend.

Run:  python examples/pipeline_timelines.py
"""

from repro.analysis.timeline import render_timeline, timeline_rows
from repro.core.harness import run_victim_trial
from repro.core.victims import gdmshr_victim, gdnpeu_victim, girs_victim
from repro.trace import Tracer


def show(spec, scheme, names, caption):
    print("=" * 78)
    print(caption)
    print("=" * 78)
    for secret in (0, 1):
        tracer = Tracer()
        run_victim_trial(spec, scheme, secret, tracer=tracer)
        rows = timeline_rows(tracer, names=names)
        trimmed, adds = [], 0
        for row in rows:
            if row.name == "rs add":
                adds += 1
                if adds > 6:
                    continue
            trimmed.append(row)
        print(render_timeline(trimmed, title=f"secret = {secret}"))
        print()


if __name__ == "__main__":
    show(
        gdnpeu_victim(),
        "dom-nontso",
        ["z", "f0", "f1", "f2", "f3", "load A", "load B", "access",
         "transmitter", "gadget"],
        "Figure 3: GDNPEU — gadget ops steal the non-pipelined unit, "
        "delaying the f-chain and load A past load B (secret=1 only)",
    )
    show(
        gdmshr_victim(),
        "invisispec-spectre",
        ["load A", "load B", "access", "mshr"],
        "Figure 4: GDMSHR — 8 speculative distinct-line misses exhaust "
        "the MSHRs, stalling load A's D-cache access (secret=1 only)",
    )
    show(
        girs_victim(),
        "dom-nontso",
        ["chase0", "access", "transmitter", "rs add", "target instr"],
        "Figure 5: GIRS — a missing transmitter strands the adds in the "
        "RS; the frontend freezes and the target line is never fetched "
        "(secret=1)",
    )
