#!/usr/bin/env python3
"""The repository benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload paper_cold --seed 0 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/``;
there is nothing to build.  A run:

1. sets up: times several fresh-interpreter set-ups (imports, input
   generation, each entry point's first call on a small input) and
   reports their median as ``setup_s``;
2. measures: repeats whole passes of the workload's calls for
   ``--seconds`` (the first pass always completes), timing every call
   and normalising it by the reference slices around it (see
   ``hostnorm.py``);
3. checks every pass's outputs against the recorded reference, against
   the first pass, and (``sweep_accel``) against cold re-runs;
4. prints one JSON object as its last line: ``correct``, ``attempted``,
   ``failed`` and the end-to-end metrics, or with ``--trace 1`` the
   per-layer metrics of one traced pass (see ``tracing.py``).

Exit status: 0 on a correct run, 1 when an output is wrong, 2 when the
program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)

import hostnorm  # noqa: E402
import workloads  # noqa: E402

#: Fresh-interpreter set-ups timed per run; their median is setup_s.
SETUP_SAMPLES = {"full": 7, "tiny": 1}

#: Seconds one set-up sample may take before the run gives up.
SETUP_TIMEOUT_S = 120

END_TO_END = (
    ("trials_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class PassResult:
    """One pass: per-call times, signatures and what the calls delivered."""

    norm_s: Dict[str, float] = field(default_factory=dict)
    raw_s: Dict[str, float] = field(default_factory=dict)
    sigs: Dict[str, Any] = field(default_factory=dict)
    slices_s: List[float] = field(default_factory=list)
    trials: int = 0
    failed: int = 0
    cycles: int = 0
    complete: bool = True


def run_pass(workload, calls, *, deadline=None, tracer=None) -> PassResult:
    """Run ``calls`` in order, each bracketed by reference slices.

    With a ``deadline`` the pass stops before the first call that would
    start after it (``complete`` is then False)."""
    from tracing import CALL_SPAN

    result = PassResult()
    before = hostnorm.reference_slice()
    result.slices_s.append(before)
    for call in calls:
        if deadline is not None and perf_counter() >= deadline:
            result.complete = False
            break
        frame = None
        if tracer is not None:
            tracer.call_key = call.key
            frame = tracer.push(CALL_SPAN, True)
        error = None
        start = perf_counter()
        try:
            output = call.run()
        except Exception as exc:  # a failing call is a wrong output, not a crash
            output, error = None, exc
        elapsed = perf_counter() - start
        if frame is not None:
            tracer.pop(frame)
        after = hostnorm.reference_slice()
        result.slices_s.append(after)
        result.raw_s[call.key] = elapsed
        result.norm_s[call.key] = hostnorm.normalise(elapsed, before, after)
        before = after
        if error is not None:
            result.sigs[call.key] = f"error: {type(error).__name__}: {error}"
            result.trials += 1
            result.failed += 1
            continue
        sig, trials, failed, cycles = workload.summarise(call.key, output)
        result.sigs[call.key] = sig
        result.trials += trials
        result.failed += failed
        result.cycles += cycles
    return result


def pass_problems(workload, result: PassResult, first: PassResult) -> List[str]:
    """Wrong outputs of one pass: against the reference and the first pass."""
    problems = workload.check(result.sigs)
    for key, sig in result.sigs.items():
        if sig != first.sigs.get(key, sig):
            problems.append(f"{key}: differs from the first pass")
    return problems


def make(args, workdir: str):
    reference = workloads.load_reference()
    return workloads.make_workload(args.workload, args.seed, args.scale, workdir, reference)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def setup_sample(args) -> float:
    """Time this fresh interpreter's set-up (normalised seconds).

    Each phase (import, input generation, first calls) is normalised by
    the slices on either side of it, as a timed call is."""
    # The first slice of a fresh interpreter runs cold; it is not used.
    hostnorm.reference_slice()
    sys.path.insert(0, SRC)
    state: Dict[str, Any] = {}

    def import_program():
        import repro  # noqa: F401  (the import is what is being timed)

    def generate_inputs():
        state["workload"] = make(args, os.path.join(OUT_DIR, f"setup-{os.getpid()}"))
        state["workload"].calls()

    phases = (import_program, generate_inputs, lambda: state["workload"].warmup())
    total = 0.0
    before = hostnorm.reference_slice()
    for phase in phases:
        start = perf_counter()
        phase()
        elapsed = perf_counter() - start
        after = hostnorm.reference_slice()
        total += hostnorm.normalise(elapsed, before, after)
        before = after
    state["workload"].close()
    return total


def measure_setup(args) -> List[float]:
    """Set-up times of fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES[args.scale]):
        proc = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--setup-sample",
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
                "--scale",
                args.scale,
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def measure(args, workload, calls) -> Dict[str, Any]:
    """Untraced passes for ``--seconds``; end-to-end metrics."""
    passes: List[PassResult] = []
    problems: List[str] = []
    deadline = perf_counter() + args.seconds
    while True:
        workload.begin_pass()
        result = run_pass(workload, calls, deadline=deadline if passes else None)
        hygiene = workload.end_pass()
        if result.complete:  # a pass cut short misses its designed counts
            problems += hygiene
        problems += pass_problems(workload, result, passes[0] if passes else result)
        passes.append(result)
        if not result.complete or perf_counter() >= deadline:
            break
    first = passes[0]
    problems += workload.sample_cold_problems(first.sigs)
    norm: Dict[str, List[float]] = defaultdict(list)
    raw: Dict[str, List[float]] = defaultdict(list)
    for result in passes:
        for key in result.norm_s:
            norm[key].append(result.norm_s[key])
            raw[key].append(result.raw_s[key])
    norm_total = hostnorm.per_call_median(norm)
    slices = [s for result in passes for s in result.slices_s]
    print(
        f"passes {len(passes)} (last complete: {passes[-1].complete}), "
        f"trials/pass {first.trials}, cycles/pass {first.cycles}, "
        f"normalised pass {norm_total:.3f} s, raw pass "
        f"{hostnorm.per_call_median(raw):.3f} s, median slice "
        f"{statistics.median(slices) * 1e3:.3f} ms"
    )
    return {
        "passes": passes,
        "problems": problems,
        "metrics": {
            "trials_per_s": first.trials / norm_total,
            "sim_cycles_per_s": first.cycles / norm_total,
        },
    }


def measure_traced(args, workload, calls) -> Dict[str, Any]:
    """One untraced pass, then one traced pass; per-layer metrics."""
    import tracing

    workload.begin_pass()
    plain = run_pass(workload, calls)
    problems = workload.end_pass() + pass_problems(workload, plain, plain)
    tracer = tracing.SpanTracer()
    tracing.install(tracer)
    try:
        workload.begin_pass()
        traced = run_pass(workload, calls, tracer=tracer)
        problems += workload.end_pass()
    finally:
        tracer.uninstall()
    problems += pass_problems(workload, traced, plain)
    problems += workload.sample_cold_problems(plain.sigs)
    metrics = tracing.layer_metrics(tracer)
    plain_norm = sum(plain.norm_s.values())
    metrics["host.ref_slice_ms"] = statistics.median(plain.slices_s) * 1e3
    metrics["host.wall_trials_per_s"] = plain.trials / sum(plain.raw_s.values())
    metrics["host.trace_overhead"] = sum(traced.norm_s.values()) / plain_norm
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(spans_path)
    print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    return {"passes": [plain, traced], "problems": problems, "metrics": metrics}


# ----------------------------------------------------------------------
# reference recording
# ----------------------------------------------------------------------
def record_reference(scale: str) -> Dict[str, Any]:
    """One cold pass of the seedless workloads, with per-call trial and
    simulated-cycle counts taken at the harness boundary."""
    from repro.core import harness

    counter = {"trials": 0, "cycles": 0}
    original = harness.finish_victim_trial

    def counted(*a, **k):
        result = original(*a, **k)
        counter["trials"] += 1
        counter["cycles"] += result.cycles
        return result

    harness.finish_victim_trial = counted
    reference: Dict[str, Any] = {}
    try:
        for name in ("paper_cold", "fig12_suite"):
            workload = workloads.make_workload(name, 0, scale, OUT_DIR)
            entries = reference[name] = {}
            for call in workload.calls():
                counter.update(trials=0, cycles=0)
                sig, trials, _, cycles = workload.summarise(call.key, call.run())
                entries[call.key] = {
                    "sig": sig,
                    "trials": counter["trials"] or trials,
                    "cycles": counter["cycles"] or cycles,
                }
    finally:
        harness.finish_victim_trial = original
    return reference


# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny: a few calls per pass, for the benchmark's own tests",
    )
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="re-record perfbench/reference.json from the current cold code",
    )
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program at {SRC}; run from the repository root", file=sys.stderr)
        return 2
    if args.setup_sample:
        print(setup_sample(args))
        return 0
    sys.path.insert(0, SRC)
    if args.record_reference:
        with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
            json.dump(record_reference(args.scale), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0

    print("host " + json.dumps(hostnorm.host_info(), sort_keys=True))
    setup = [] if args.trace else measure_setup(args)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    workload = make(args, workdir)
    try:
        calls = workload.calls()
        workload.warmup()
        run = (measure_traced if args.trace else measure)(args, workload, calls)
    finally:
        workload.close()
    metrics = run["metrics"]
    if args.trace:
        import tracing

        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
        print("setup samples (normalised s): " + ", ".join(f"{s:.4f}" for s in setup))
    problems = run["problems"]
    for problem in problems:
        print("WRONG " + problem)
    attempted = sum(p.trials for p in run["passes"])
    failed = sum(p.failed for p in run["passes"])
    print(f"wrong_outputs {len(problems)}, failed_frac {failed / attempted:.6f}")
    print(
        json.dumps(
            {
                "correct": not problems and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if not problems and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
