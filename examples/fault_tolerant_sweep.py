#!/usr/bin/env python3
"""Fault-tolerant sweeps: isolation, retry, checkpoint-resume, live.

Uses the fault-injection harness (``repro.runner.faults``) to subject
one sweep to the three failures a long campaign actually meets —

  1. a trial whose configuration genuinely deadlocks (every attempt);
  2. a worker process killed mid-trial (once);
  3. a mid-sweep interruption (simulated by running only part of the
     grid first, journaling as we go);

— then shows the sweep completing anyway: the deadlock becomes a
structured failure record, the killed trial is retried with the same
seed, and resuming over the journal re-runs only what is missing while
matching a fault-free reference exactly.

    python examples/fault_tolerant_sweep.py
    python examples/fault_tolerant_sweep.py --workers 4
"""

import argparse
import os
import tempfile

from repro.runner import (
    FaultPlan,
    FaultSpec,
    TrialJournal,
    expand_grid,
    make_runner,
)
from repro.runner import faults

VICTIMS = ["gdnpeu", "gdmshr", "girs"]
SCHEMES = ["dom-nontso", "invisispec-spectre", "fence-spectre"]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: cpu count, or REPRO_SWEEP_WORKERS)",
    )
    args = parser.parse_args(argv)

    specs = expand_grid(VICTIMS, SCHEMES)
    print(f"Sweep: {len(VICTIMS)} victims x {len(SCHEMES)} schemes x 2 secrets "
          f"= {len(specs)} trials\n")

    # A fault-free reference to compare everything against.
    with make_runner(args.workers) as runner:
        reference = runner.run(specs)
    print(f"[reference]  {len(reference)} trials ok, "
          f"{reference.elapsed:.2f}s on {reference.workers} worker(s)")

    # Inject: one permanently deadlocking trial, one single-shot worker
    # kill.  The plan travels to pool workers automatically.
    faults.install_plan(FaultPlan((
        FaultSpec("deadlock", victim="gdnpeu", scheme="dom-nontso",
                  secret=1, at_cycle=100, max_attempts=99),
        FaultSpec("worker-kill", victim="gdmshr", scheme="fence-spectre",
                  secret=0, max_attempts=1),
    )))

    with tempfile.TemporaryDirectory(prefix="repro-ft-example-") as workdir:
        journal_path = os.path.join(workdir, "sweep.jsonl")
        journal = TrialJournal(journal_path)

        # "Interrupted" first run: only part of the grid executes, each
        # finished trial checkpointed the moment it completes.
        with make_runner(args.workers) as runner:
            runner.run(specs[: len(specs) // 2], journal=journal)
        print(f"[interrupt]  stopped mid-sweep with {len(journal)} trials "
              f"checkpointed in {journal_path}")

        # Resume over the full grid, faults still active.
        with make_runner(args.workers) as runner:
            result = runner.run(specs, journal=journal)

    print(f"[resume]     {len(result)} ok / {len(result.failures)} failed "
          f"of {len(result.outcomes)} trials")
    for failure in result.failures:
        print(f"             failure: {failure.describe()}")
    retried = [o for o in result.outcomes if o.ok and o.attempts > 1]
    for outcome in retried:
        print(f"             retried: {outcome.describe()}")

    faults.clear_plan()

    ok = result.succeeded()
    expected = [s for s in reference
                if not (s.victim, s.scheme, s.secret) == ("gdnpeu", "dom-nontso", 1)]
    assert ok == expected, "resumed sweep diverged from the reference"
    print("\nEvery surviving trial matches the fault-free reference exactly; "
          "the deadlock is data, not a crash.")
    return 0


if __name__ == "__main__":
    import sys

    raise SystemExit(main(sys.argv[1:]))
