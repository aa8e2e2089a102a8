"""The benchmark's own tests.

    python3 -m pytest perfbench -q

Run from the repository root.  They cover a tiny-size run of every
workload (untraced and traced), the normalisation arithmetic, span
nesting, and that a perturbed output is counted as wrong.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostnorm  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# smoke runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run(workload, trace):
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0",
            "--trace", str(trace),
            "--scale", "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_mirrors_the_code():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER
    )


def test_no_program_means_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "hostnorm.py", "workloads.py", "tracing.py"):
        (bench / name).write_text((Path(HERE) / name).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_cold"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# normalisation
# ----------------------------------------------------------------------
def test_normalise_rescales_by_mean_slice():
    nominal = hostnorm.NOMINAL_SLICE_S
    assert hostnorm.normalise(1.0, nominal, nominal) == pytest.approx(1.0)
    # A host twice as slow: the call and its slices take twice as long.
    assert hostnorm.normalise(2.0, 2 * nominal, 2 * nominal) == pytest.approx(1.0)
    # The two slices are averaged, not taken one at a time.
    assert hostnorm.normalise(1.5, nominal, 2 * nominal) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        hostnorm.normalise(1.0, 0.0, nominal)


def test_per_call_median_sums_medians():
    # A pass cut short contributes its calls, and the total stays one pass.
    samples = {"a": [1.0, 3.0, 2.0], "b": [5.0], "c": [4.0, 6.0]}
    assert hostnorm.per_call_median(samples) == pytest.approx(2.0 + 5.0 + 5.0)


def test_reference_slice_takes_positive_time_and_restores_gc():
    import gc

    assert gc.isenabled()
    assert hostnorm.reference_slice() > 0
    assert gc.isenabled()


# ----------------------------------------------------------------------
# span nesting
# ----------------------------------------------------------------------
@pytest.fixture
def fake_module(monkeypatch):
    """Three nested functions in a module of their own, so that
    ``SpanTracer.wrap`` patches them as it patches the program."""
    mod = types.ModuleType("perfbench_fake_layer")
    exec(
        "def leaf(x):\n"
        "    return sum(range(200)) + x\n"
        "def middle(x):\n"
        "    return leaf(x) + leaf(x)\n"
        "def top(x):\n"
        "    return middle(x) + leaf(x)\n",
        mod.__dict__,
    )
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_spans_nest_and_self_time_is_non_negative(fake_module):
    tracer = tracing.SpanTracer()
    name = fake_module.__name__
    originals = (fake_module.top, fake_module.middle, fake_module.leaf)
    tracer.wrap(f"{name}:top", "top")
    tracer.wrap(f"{name}:middle", "middle")
    tracer.wrap(f"{name}:leaf", "leaf", keep=False)
    call = tracer.push(tracing.CALL_SPAN, True)
    assert fake_module.top(1) == 3 * (sum(range(200)) + 1)
    tracer.pop(call)
    tracer.uninstall()
    assert not tracer.stack
    names = [span[0] for span in tracer.spans]
    assert names == [tracing.CALL_SPAN, "top", "middle"]
    parents = [span[3] for span in tracer.spans]
    assert parents == [-1, 0, 1]
    for _, start, end, _, _ in tracer.spans:
        assert end >= start
    assert tracer.calls["leaf"] == 3
    assert all(value >= 0 for value in tracer.self_s.values())
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-6, abs=1e-9)
    assert (fake_module.top, fake_module.middle, fake_module.leaf) == originals


def test_span_closed_out_of_order_raises():
    tracer = tracing.SpanTracer()
    outer = tracer.push("outer", True)
    tracer.push("inner", True)
    with pytest.raises(RuntimeError):
        tracer.pop(outer)


def test_write_spans_round_trips(tmp_path):
    tracer = tracing.SpanTracer()
    tracer.call_key = "k"
    outer = tracer.push("outer", True)
    tracer.pop(tracer.push("inner", True))
    tracer.pop(outer)
    path = tmp_path / "spans.jsonl"
    tracer.write_spans(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["name"] for line in lines[:2]] == ["outer", "inner"]
    assert lines[1]["parent"] == 0 and lines[1]["call"] == "k"
    assert set(lines[2]["totals"]) == {"outer", "inner"}


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def _pass_of(sigs):
    result = run.PassResult()
    result.sigs = dict(sigs)
    return result


def test_perturbed_paper_cold_verdict_is_wrong():
    reference = workloads.load_reference()["paper_cold"]
    workload = workloads.make_workload("paper_cold", 0, "full", "", {"paper_cold": reference})
    sigs = {key: entry["sig"] for key, entry in reference.items()}
    first = _pass_of(sigs)
    assert run.pass_problems(workload, first, first) == []
    key = next(k for k in sigs if k.startswith("table1/"))
    perturbed = dict(sigs)
    perturbed[key] = [not sigs[key][0]] + sigs[key][1:]
    problems = run.pass_problems(workload, _pass_of(perturbed), first)
    assert len(problems) == 2  # against the recording and the first pass
    assert all(p.startswith(key) for p in problems)


def test_perturbed_fig12_cycles_are_wrong():
    reference = workloads.load_reference()["fig12_suite"]
    workload = workloads.make_workload("fig12_suite", 0, "full", "", {"fig12_suite": reference})
    sigs = {key: entry["sig"] for key, entry in reference.items()}
    assert workload.check(sigs) == []
    # A futuristic fence that made a kernel faster than unsafe breaks
    # both the recording and the paper's Fig. 12 shape.
    key = next(k for k in sigs if k.endswith("/fence-futuristic"))
    unsafe = sigs[key.rsplit("/", 1)[0] + "/unsafe"]
    sigs[key] = [unsafe[0] // 2] + sigs[key][1:]
    problems = workload.check(sigs)
    assert any("recorded" in p for p in problems)
    assert any("futuristic slowdown" in p for p in problems)


def test_perturbed_sweep_outcome_fails_the_cold_sample(tmp_path):
    workload = workloads.make_workload("sweep_accel", 5, "tiny", str(tmp_path))
    try:
        calls = workload.calls()
        workload.begin_pass()
        result = run.run_pass(workload, calls)
        assert workload.end_pass() == []
        assert workload.sample_cold_problems(result.sigs) == []
        # perturb every sampled outcome's cycle count
        ordered = [(c.key, i) for c in calls for i in range(len(result.sigs[c.key]))]
        sampled = ordered[5 % workloads.SAMPLE_EVERY :: workloads.SAMPLE_EVERY]
        assert sampled
        sigs = {key: [list(s) for s in sig] for key, sig in result.sigs.items()}
        for key, i in sampled:
            sigs[key][i][1] += 1
        assert len(workload.sample_cold_problems(sigs)) == len(sampled)
    finally:
        workload.close()
