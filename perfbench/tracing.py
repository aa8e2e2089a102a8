"""Traced runs: spans around calls into each layer's public functions.

The benchmark wraps the program's public functions from here, patching
modules and classes before any simulator object is built, and records
one span per call: name, start, end, parent, and the benchmark call it
belongs to.  Coarse layers (runner, cache, journal, batch, fork,
harness, machine builds and runs, analyses) keep every span in memory;
the per-cycle hot functions (``Core.step``, ``CacheHierarchy.access``,
scheme hooks, ...) are aggregated in place, because keeping millions of
spans would measure the tracer.  Either way a span's *self time* is its
duration minus the time its child spans cover.

End-to-end metrics never come from a traced pass.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Every per-layer metric, in report order: (name, unit, better).  The
#: ``per_layer`` list of BENCHMARK.json mirrors this table.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("runner.cold.trials", "count", "lower"),
    ("runner.cold.s", "s", "lower"),
    ("runner.cache.hits", "count", "higher"),
    ("runner.cache.misses", "count", "lower"),
    ("runner.cache.puts", "count", "lower"),
    ("runner.cache.get_s", "s", "lower"),
    ("runner.cache.put_s", "s", "lower"),
    ("runner.journal.records", "count", "lower"),
    ("runner.journal.record_s", "s", "lower"),
    ("runner.journal.load_s", "s", "lower"),
    ("runner.sweep_s", "s", "lower"),
    ("batch.groups", "count", "higher"),
    ("batch.lanes", "count", "higher"),
    ("batch.ejected", "count", "lower"),
    ("batch.failed_groups", "count", "lower"),
    ("batch.bypass.no_numpy", "count", "lower"),
    ("batch.bypass.sanitize", "count", "lower"),
    ("batch.bypass.snapshot", "count", "lower"),
    ("batch.bypass.min_lanes", "count", "lower"),
    ("batch.bypass.faults", "count", "lower"),
    ("batch.lane_frac", "frac", "higher"),
    ("batch.plan_s", "s", "lower"),
    ("batch.s", "s", "lower"),
    ("snapshot.fork.groups", "count", "higher"),
    ("snapshot.fork.variants", "count", "higher"),
    ("snapshot.fork.fallbacks", "count", "lower"),
    ("snapshot.fork.plan_s", "s", "lower"),
    ("snapshot.fork.s", "s", "lower"),
    ("core.harness.trials", "count", "lower"),
    ("core.harness.begin_s", "s", "lower"),
    ("core.harness.finish_s", "s", "lower"),
    ("core.matrix.cell_s", "s", "lower"),
    ("core.experiments.workload_s", "s", "lower"),
    ("system.machine.builds", "count", "lower"),
    ("system.machine.build_s", "s", "lower"),
    ("system.machine.run_s", "s", "lower"),
    ("system.stepped_cycles", "count", "lower"),
    ("system.sim_cycles", "count", "lower"),
    ("system.ff_skip_frac", "frac", "higher"),
    ("system.stats.compose_s", "s", "lower"),
    ("memory.hierarchy.build_s", "s", "lower"),
    ("memory.accesses", "count", "lower"),
    ("memory.access_s", "s", "lower"),
    ("pipeline.core.steps", "count", "lower"),
    ("pipeline.core.step_s", "s", "lower"),
    ("pipeline.core.next_event_s", "s", "lower"),
    ("pipeline.rob.safety_flags_s", "s", "lower"),
    ("pipeline.retired", "count", "lower"),
    ("pipeline.ipc", "instr/cycle", "higher"),
    ("schemes.hook_s", "s", "lower"),
    ("staticcheck.analyze_s", "s", "lower"),
    ("staticcheck.dynamic_s", "s", "lower"),
    ("symni.check_s", "s", "lower"),
    ("host.ref_slice_ms", "ms", "lower"),
    ("host.wall_trials_per_s", "1/s", "higher"),
    ("host.trace_overhead", "ratio", "lower"),
    ("host.uncovered_frac", "frac", "lower"),
)

#: Public ``SpeculationScheme`` hooks timed as ``schemes.hook``.
SCHEME_HOOKS = (
    "load_decision",
    "peek_load_decision",
    "on_load_complete",
    "predict_value",
    "on_load_safe",
    "may_issue",
    "peek_may_issue",
    "fetch_visible",
    "on_squash",
    "on_retire",
)

CALL_SPAN = "bench.call"


class SpanTracer:
    """In-memory span stack with per-name self time and call counts."""

    def __init__(self) -> None:
        #: Open frames: [name, start, child_s, span index or -1].
        self.stack: List[list] = []
        #: Kept spans: [name, start, end, parent index, call key].
        self.spans: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.call_key: Optional[str] = None
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------
    def push(self, name: str, keep: bool) -> list:
        stack = self.stack
        parent = stack[-1][3] if stack else -1
        start = perf_counter()
        index = parent
        if keep:
            index = len(self.spans)
            self.spans.append([name, start, start, parent, self.call_key])
        frame = [name, start, 0.0, index, keep]
        stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = perf_counter()
        stack = self.stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        duration = end - frame[1]
        self.self_s[frame[0]] += duration - frame[2]
        self.calls[frame[0]] += 1
        if stack:
            stack[-1][2] += duration
        if frame[4]:
            self.spans[frame[3]][2] = end

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    # -- patching ------------------------------------------------------
    def wrap(
        self,
        target: str,
        name: str,
        *,
        keep: bool = True,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
        on_error: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``module:attr`` or ``module:Class.attr`` with a timed
        wrapper.  ``before(args, kwargs)`` returns a token handed to
        ``after(token, args, kwargs, result)``."""
        module_name, path = target.split(":")
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, name, keep, before, after, on_error))

    def _wrapper(self, fn, name, keep, before, after, on_error):
        push, pop = self.push, self.pop
        if before is None and after is None and on_error is None and not keep:
            # Hot path: the cheapest wrapper that still keeps self time.
            stack = self.stack
            self_s, calls = self.self_s, self.calls

            def hot(*args, **kwargs):
                parent = stack[-1][3] if stack else -1
                frame = [name, perf_counter(), 0.0, parent, False]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    duration = end - frame[1]
                    self_s[name] += duration - frame[2]
                    calls[name] += 1
                    if stack:
                        stack[-1][2] += duration

            return hot

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            frame = push(name, keep)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                pop(frame)
                if on_error is not None:
                    on_error(args, kwargs)
                raise
            pop(frame)
            if after is not None:
                after(token, args, kwargs, result)
            return result

        return wrapper

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def write_spans(self, path: str) -> None:
        """Kept spans as JSON lines, then one line of per-name totals."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, call) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "call": call,
                        }
                    )
                    + "\n"
                )
            totals = {
                name: {"calls": self.calls[name], "self_s": self.self_s[name]}
                for name in sorted(self.calls)
            }
            fh.write(json.dumps({"totals": totals}) + "\n")


def install(tracer: SpanTracer) -> None:
    """Wrap every layer's public functions (see PER_LAYER)."""
    counts = tracer.counts

    def count(name, amount=1):
        counts[name] += amount

    # -- runner: cold path, cache, journal ------------------------------
    def cold_after(token, args, kwargs, result):
        count("runner.cold.trials")

    def cold_before(args, kwargs):
        if tracer.inside("snapshot.fork"):
            count("snapshot.fork.fallbacks")

    tracer.wrap(
        "repro.runner.runner:run_trial_outcome",
        "runner.cold",
        before=cold_before,
        after=cold_after,
    )
    tracer.wrap(
        "repro.runner.cache:TrialCache.get",
        "runner.cache.get",
        after=lambda t, a, k, r: count(
            "runner.cache.hits" if r is not None else "runner.cache.misses"
        ),
    )
    tracer.wrap(
        "repro.runner.cache:TrialCache.put",
        "runner.cache.put",
        after=lambda t, a, k, r: count("runner.cache.puts", 1 if r else 0),
    )
    tracer.wrap(
        "repro.runner.journal:TrialJournal.record",
        "runner.journal.record",
        after=lambda t, a, k, r: count("runner.journal.records"),
    )
    tracer.wrap("repro.runner.journal:TrialJournal.load", "runner.journal.load")
    tracer.wrap("repro.runner.runner:SweepRunner.run_outcomes", "runner.sweep")

    # -- batch -----------------------------------------------------------
    def batch_plan_after(token, args, kwargs, result):
        count("batch.offered", len(args[0]))
        for reason, n in result[2].items():
            count(f"batch.bypass.{reason}", n)

    def batch_group_after(token, args, kwargs, result):
        count("batch.groups")
        count("batch.lanes", len(args[0]))
        count("batch.ejected", result.ejected)

    tracer.wrap(
        "repro.batch.plan:plan_batch_groups_report",
        "batch.plan",
        after=batch_plan_after,
    )
    tracer.wrap(
        "repro.batch.engine:run_batch_group_detailed",
        "batch",
        after=batch_group_after,
        on_error=lambda a, k: count("batch.failed_groups"),
    )

    # -- snapshot / fork -------------------------------------------------
    def fork_after(token, args, kwargs, result):
        count("snapshot.fork.groups")
        count("snapshot.fork.variants", len(args[0]))
        if result is None:
            count("snapshot.fork.fallbacks", len(args[0]))

    tracer.wrap("repro.snapshot.fork:plan_fork_groups", "snapshot.fork.plan")
    tracer.wrap("repro.snapshot.fork:run_fork_group", "snapshot.fork", after=fork_after)

    # -- core: harness, matrix, experiments --------------------------------
    tracer.wrap("repro.core.harness:begin_victim_trial", "core.harness.begin")
    tracer.wrap(
        "repro.core.harness:finish_victim_trial",
        "core.harness.finish",
        after=lambda t, a, k, r: count("core.harness.trials"),
    )
    tracer.wrap("repro.core.matrix:evaluate_cell", "core.matrix.cell")
    tracer.wrap("repro.core.experiments:run_workload", "core.experiments.workload")

    # -- system ----------------------------------------------------------
    def run_before(args, kwargs):
        machine = args[0]
        return machine.cycle, _retired(machine)

    def run_after(token, args, kwargs, result):
        machine = args[0]
        count("system.sim_cycles", machine.cycle - token[0])
        count("pipeline.retired", _retired(machine) - token[1])

    tracer.wrap("repro.system.machine:Machine.__init__", "system.machine.build")
    tracer.wrap(
        "repro.system.machine:Machine.run",
        "system.machine.run",
        before=run_before,
        after=run_after,
    )
    tracer.wrap("repro.system.machine:Machine.step", "system.machine.step", keep=False)
    tracer.wrap("repro.system.stats:compose_metrics", "system.stats.compose")

    # -- memory ----------------------------------------------------------
    tracer.wrap("repro.memory.hierarchy:CacheHierarchy.__init__", "memory.hierarchy.build")
    tracer.wrap("repro.memory.hierarchy:CacheHierarchy.access", "memory.access", keep=False)

    # -- pipeline --------------------------------------------------------
    tracer.wrap("repro.pipeline.core:Core.step", "pipeline.core.step", keep=False)
    tracer.wrap(
        "repro.pipeline.core:Core.next_event_cycle", "pipeline.core.next_event", keep=False
    )
    tracer.wrap("repro.pipeline.rob:ROB.safety_flags", "pipeline.rob.safety_flags", keep=False)

    # -- schemes: every class that defines a hook ---------------------------
    importlib.import_module("repro.schemes.registry")
    from repro.pipeline.scheme_api import SpeculationScheme

    classes = [SpeculationScheme]
    for cls in classes:
        classes.extend(cls.__subclasses__())
    for cls in dict.fromkeys(classes):
        for hook in SCHEME_HOOKS:
            if hook in cls.__dict__:
                tracer.wrap(
                    f"{cls.__module__}:{cls.__qualname__}.{hook}",
                    "schemes.hook",
                    keep=False,
                )

    # -- analyses --------------------------------------------------------
    tracer.wrap("repro.staticcheck.analyzer:analyze_victim", "staticcheck.analyze")
    tracer.wrap("repro.staticcheck.crossval:dynamic_signals", "staticcheck.dynamic")
    tracer.wrap("repro.symni.checker:check_victim", "symni.check")


def _retired(machine) -> int:
    return sum(core.stats.retired for core in machine.cores.values())


def layer_metrics(tracer: SpanTracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in PER_LAYER
    (host.* metrics are filled in by the caller)."""
    s, n, c = tracer.self_s, tracer.calls, tracer.counts
    lanes, offered = c["batch.lanes"], c["batch.offered"]
    sim_cycles, stepped = c["system.sim_cycles"], n["system.machine.step"]
    metrics = {
        "runner.cold.trials": c["runner.cold.trials"],
        "runner.cold.s": s["runner.cold"],
        "runner.cache.hits": c["runner.cache.hits"],
        "runner.cache.misses": c["runner.cache.misses"],
        "runner.cache.puts": c["runner.cache.puts"],
        "runner.cache.get_s": s["runner.cache.get"],
        "runner.cache.put_s": s["runner.cache.put"],
        "runner.journal.records": c["runner.journal.records"],
        "runner.journal.record_s": s["runner.journal.record"],
        "runner.journal.load_s": s["runner.journal.load"],
        "runner.sweep_s": s["runner.sweep"],
        "batch.groups": c["batch.groups"],
        "batch.lanes": lanes,
        "batch.ejected": c["batch.ejected"],
        "batch.failed_groups": c["batch.failed_groups"],
        "batch.lane_frac": lanes / offered if offered else 0.0,
        "batch.plan_s": s["batch.plan"],
        "batch.s": s["batch"],
        "snapshot.fork.groups": c["snapshot.fork.groups"],
        "snapshot.fork.variants": c["snapshot.fork.variants"],
        "snapshot.fork.fallbacks": c["snapshot.fork.fallbacks"],
        "snapshot.fork.plan_s": s["snapshot.fork.plan"],
        "snapshot.fork.s": s["snapshot.fork"],
        "core.harness.trials": c["core.harness.trials"],
        "core.harness.begin_s": s["core.harness.begin"],
        "core.harness.finish_s": s["core.harness.finish"],
        "core.matrix.cell_s": s["core.matrix.cell"],
        "core.experiments.workload_s": s["core.experiments.workload"],
        "system.machine.builds": n["system.machine.build"],
        "system.machine.build_s": s["system.machine.build"],
        "system.machine.run_s": s["system.machine.run"],
        "system.stepped_cycles": stepped,
        "system.sim_cycles": sim_cycles,
        "system.ff_skip_frac": 1 - stepped / sim_cycles if sim_cycles else 0.0,
        "system.stats.compose_s": s["system.stats.compose"],
        "memory.hierarchy.build_s": s["memory.hierarchy.build"],
        "memory.accesses": n["memory.access"],
        "memory.access_s": s["memory.access"],
        "pipeline.core.steps": n["pipeline.core.step"],
        "pipeline.core.step_s": s["pipeline.core.step"],
        "pipeline.core.next_event_s": s["pipeline.core.next_event"],
        "pipeline.rob.safety_flags_s": s["pipeline.rob.safety_flags"],
        "pipeline.retired": c["pipeline.retired"],
        "pipeline.ipc": c["pipeline.retired"] / sim_cycles if sim_cycles else 0.0,
        "schemes.hook_s": s["schemes.hook"],
        "staticcheck.analyze_s": s["staticcheck.analyze"],
        "staticcheck.dynamic_s": s["staticcheck.dynamic"],
        "symni.check_s": s["symni.check"],
    }
    for name, _, _ in PER_LAYER:
        if name.startswith("batch.bypass."):
            metrics[name] = c[name]
    total_calls = sum(
        end - start for name, start, end, _, _ in tracer.spans if name == CALL_SPAN
    )
    metrics["host.uncovered_frac"] = (
        s[CALL_SPAN] / total_calls if total_calls else 0.0
    )
    return metrics
