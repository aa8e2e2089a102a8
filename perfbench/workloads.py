"""The benchmark's three workloads.

Each workload is a closed loop with one caller: a *pass* is a fixed
list of calls into the program's public entry points, run one after
another in this process (``SerialSweepRunner``, no pool).  A workload
knows how to build its calls (set-up), what each call delivers (trials
and simulated cycles), how to reduce a call's output to a comparable
signature, and how to check those signatures.

* ``paper_cold`` -- Table 1, the forward 3x16x2 grid and the 112+48
  three-way reconciliation, run cold.  Short victims: per-trial set-up
  is a large share of the time, and no sweep accelerator applies.
* ``fig12_suite`` -- the ten synthetic kernels under unsafe /
  fence-spectre / fence-futuristic.  Long programs: the per-cycle loop
  dominates and set-up is negligible.
* ``sweep_accel`` -- reference-schedule sweeps (batch), a secret x seed
  grid (fork) and a resubmission (cache reads beside writes) through a
  fresh ``SerialSweepRunner(fork=True, batch=True, cache_dir=...)`` and
  ``TrialJournal`` every pass.

``paper_cold`` and ``fig12_suite`` take no random input; ``sweep_accel``
derives its grid seeds from the benchmark's seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

WORKLOADS = ("paper_cold", "fig12_suite", "sweep_accel")

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference.json")


@dataclass
class Call:
    """One timed call into the program."""

    key: str
    run: Callable[[], Any]


def _digest(obj: Any) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _outcome_sig(outcome) -> List[Any]:
    """Status plus a digest of the whole summary (cycles, visible log,
    access times, metrics, probe latencies).  The summary is encoded
    with the journal codec and sorted keys, because a summary read back
    from the trial cache is equal to the original but may order its
    dicts differently."""
    from repro.runner.journal import summary_to_json

    summary = outcome.summary
    if summary is None:
        return [outcome.status.value, None, None]
    encoded = json.dumps(summary_to_json(summary), sort_keys=True)
    return [outcome.status.value, summary.cycles, _digest(encoded)]


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """Interface shared by the three workloads."""

    name = ""

    def calls(self) -> List[Call]:
        raise NotImplementedError

    def warmup(self) -> None:
        """Each entry point's first call, on a small fixed input."""
        raise NotImplementedError

    def begin_pass(self) -> None:
        """Fresh per-pass state (untimed)."""

    def end_pass(self) -> List[str]:
        """Per-pass hygiene problems (untimed); empty when clean."""
        return []

    def summarise(self, key: str, output: Any) -> Tuple[Any, int, int, int]:
        """``(signature, trials, failed trials, simulated cycles)``."""
        raise NotImplementedError

    def check(self, signatures: Dict[str, Any]) -> List[str]:
        """Wrong outputs of one pass, one message each."""
        raise NotImplementedError

    def sample_cold_problems(self, signatures: Dict[str, Any]) -> List[str]:
        """Wrong outputs found by re-running part of a pass cold,
        untimed, after the timed passes."""
        return []

    def close(self) -> None:
        """Release per-run resources."""


def _reference_problems(
    reference: Dict[str, Any], signatures: Dict[str, Any]
) -> List[str]:
    problems = []
    for key, sig in signatures.items():
        want = reference.get(key)
        if want is None:
            problems.append(f"{key}: no recorded reference")
        elif want["sig"] != sig:
            problems.append(f"{key}: got {sig}, recorded {want['sig']}")
    return problems


# ----------------------------------------------------------------------
# paper_cold
# ----------------------------------------------------------------------
class PaperCold(Workload):
    """Table 1 cells, forward-grid pairs and reconciliation rows, cold."""

    name = "paper_cold"

    def __init__(self, seed: int, scale: str, reference: Optional[Dict] = None):
        from repro.core.matrix import DEFAULT_SCHEMES, GADGETS, ORDERINGS
        from repro.core.victims import VICTIM_FACTORIES
        from repro.runner import expand_grid
        from repro.schemes.registry import SCHEME_FACTORIES
        from repro.workloads import FORWARD_VICTIMS

        self.reference = reference if reference is not None else {}
        all_schemes = sorted(SCHEME_FACTORIES)
        cells = [
            (g, o, s) for g in GADGETS for o in ORDERINGS for s in DEFAULT_SCHEMES
        ]
        forward = [(v, s) for v in FORWARD_VICTIMS for s in all_schemes]
        rows = [(v, s) for v in sorted(VICTIM_FACTORIES) for s in all_schemes]
        if scale == "tiny":
            cells, forward, rows = cells[:3], forward[:1], rows[:1]
        self.cells = cells
        self.forward = {
            pair: expand_grid([pair[0]], [pair[1]], max_cycles=40_000)
            for pair in forward
        }
        self.rows = rows

    def calls(self) -> List[Call]:
        from repro.core import matrix
        from repro.runner import SerialSweepRunner
        from repro.staticcheck import crossval

        runner = SerialSweepRunner()
        out = []
        for g, o, s in self.cells:
            out.append(
                Call(
                    f"table1/{g}/{o}/{s}",
                    lambda g=g, o=o, s=s: matrix.evaluate_cell(g, o, s),
                )
            )
        for (v, s), specs in self.forward.items():
            out.append(
                Call(
                    f"forward/{v}/{s}",
                    lambda specs=specs: runner.run_outcomes(specs),
                )
            )
        for v, s in self.rows:
            out.append(
                Call(
                    f"reconcile/{v}/{s}",
                    lambda v=v, s=s: crossval.reconcile_verdicts([v], [s]),
                )
            )
        return out

    def warmup(self) -> None:
        from repro.core import matrix
        from repro.runner import SerialSweepRunner, expand_grid
        from repro.staticcheck import crossval

        matrix.evaluate_cell("gdnpeu", "vd-vd", "unsafe")
        SerialSweepRunner().run_outcomes(
            expand_grid(["fwd-eu"], ["unsafe"], max_cycles=40_000)
        )
        crossval.reconcile_verdicts(["gdnpeu"], ["unsafe"])

    def summarise(self, key, output):
        kind = key.split("/", 1)[0]
        if kind == "forward":
            sig = [_outcome_sig(o) for o in output]
            failed = sum(1 for o in output if not o.ok)
            cycles = sum(o.summary.cycles for o in output if o.ok)
            return sig, len(output), failed, cycles
        if kind == "table1":
            sig = [
                output.vulnerable,
                output.t_secret0,
                output.t_secret1,
                output.detail,
                output.error,
            ]
        else:
            (row,) = output
            sig = [
                row.symbolic_status,
                row.symbolic_kind,
                list(row.dynamic_kinds),
                row.agreement,
                list(row.static_families),
            ]
        # Cells and rows deliver verdicts, not trial summaries: their
        # trials and simulated cycles are the recorded ones, valid
        # whenever the verdict matches the recording.
        want = self.reference.get(key, {})
        return sig, want.get("trials", 0), 0, want.get("cycles", 0)

    def check(self, signatures):
        problems = _reference_problems(self.reference, signatures)
        for key, sig in signatures.items():
            if key.startswith("reconcile/") and sig[3] not in (
                "agree-leak",
                "agree-clean",
            ):
                problems.append(f"{key}: three-way disagreement {sig[3]}")
        return problems


# ----------------------------------------------------------------------
# fig12_suite
# ----------------------------------------------------------------------
FIG12_SCHEMES = ("unsafe", "fence-spectre", "fence-futuristic")


class Fig12Suite(Workload):
    """The ten synthetic kernels under the baseline and both fences."""

    name = "fig12_suite"

    def __init__(self, seed: int, scale: str, reference: Optional[Dict] = None):
        from repro.workloads.synthetic import synthetic_suite

        self.reference = reference if reference is not None else {}
        suite = synthetic_suite()
        if scale == "tiny":
            suite = suite[:1]
        self.suite = suite
        self.full = scale != "tiny"

    def calls(self) -> List[Call]:
        from repro.core import experiments

        return [
            Call(
                f"fig12/{w.name}/{s}",
                lambda w=w, s=s: (w, experiments.run_workload(w, s)),
            )
            for w in self.suite
            for s in FIG12_SCHEMES
        ]

    def warmup(self) -> None:
        from repro.core import experiments
        from repro.workloads.synthetic import synthetic_suite

        experiments.run_workload(
            min(synthetic_suite(), key=lambda w: len(w.program)), "unsafe"
        )

    def summarise(self, key, output):
        workload, core = output
        stats = core.stats
        sig = [stats.cycles, core.regfile.get(workload.checksum_reg), stats.retired]
        return sig, 1, 0, stats.cycles

    def check(self, signatures):
        problems = _reference_problems(self.reference, signatures)
        rows: Dict[str, Dict[str, List[Any]]] = {}
        for key, sig in signatures.items():
            _, name, scheme = key.split("/")
            rows.setdefault(name, {})[scheme] = sig
        for name, by_scheme in rows.items():
            checksums = {sig[1] for sig in by_scheme.values()}
            if len(checksums) != 1:
                problems.append(f"fig12/{name}: defenses changed the checksum")
        if self.full and len(signatures) == len(self.suite) * len(FIG12_SCHEMES):
            problems.extend(fig12_shape_problems(rows))
        return problems


def fig12_shape_problems(rows: Dict[str, Dict[str, List[Any]]]) -> List[str]:
    """The paper's Fig. 12 shape: futuristic geomean > spectre geomean >
    1.05, and no futuristic slowdown below 0.99."""

    def slowdowns(scheme):
        return {
            name: row[scheme][0] / row["unsafe"][0] for name, row in rows.items()
        }

    def geomean(values):
        return math.exp(sum(math.log(v) for v in values) / len(values))

    spectre = slowdowns("fence-spectre")
    futuristic = slowdowns("fence-futuristic")
    g_spectre = geomean(spectre.values())
    g_futuristic = geomean(futuristic.values())
    problems = []
    if not g_futuristic > g_spectre > 1.05:
        problems.append(
            f"fig12 shape: geomeans futuristic {g_futuristic:.3f}, "
            f"spectre {g_spectre:.3f}"
        )
    for name, value in futuristic.items():
        if value < 0.99:
            problems.append(f"fig12/{name}: futuristic slowdown {value:.3f}")
    return problems


# ----------------------------------------------------------------------
# sweep_accel
# ----------------------------------------------------------------------
#: 16 placements of the attacker's reference read across the
#: speculation window (the batch layer's lanes).
REF_CYCLES = tuple(range(40, 360, 20))
REF_VICTIMS = ("gdnpeu", "gdmshr")
REF_SCHEMES = ("dom-nontso", "invisispec-spectre")
GRID_VICTIMS = ("gdnpeu", "gdmshr", "girs", "fwd-eu", "fwd-mshr", "fwd-rs")
GRID_SCHEMES = ("dom-nontso", "invisispec-spectre", "muontrap", "fence-spectre")
GRID_SEEDS = 4
#: The resubmission's base seeds are the grid's shifted by this much,
#: so half its specs are cache reads and half are fresh writes.
RESUBMIT_SHIFT = 2
#: One spec in this many is re-run cold after the timed passes.
SAMPLE_EVERY = 16


class SweepAccel(Workload):
    """Batch, fork, cache and journal layers over fresh state per pass."""

    name = "sweep_accel"

    def __init__(self, seed: int, scale: str, workdir: str):
        from repro.core.victims import ADDR_REF
        from repro.memory.hierarchy import HierarchyConfig
        from repro.runner import expand_grid
        from repro.runner import runner as runner_mod

        ref_cycles, grid_victims, grid_schemes = REF_CYCLES, GRID_VICTIMS, GRID_SCHEMES
        if scale == "tiny":
            ref_cycles, grid_victims, grid_schemes = REF_CYCLES[:2], GRID_VICTIMS[:2], GRID_SCHEMES[:1]
        self.seed = seed
        self.workdir = workdir
        groups: List[Tuple[str, list]] = []
        jittered = HierarchyConfig(dram_jitter=5)
        for victim in REF_VICTIMS:
            for scheme in REF_SCHEMES:
                for hierarchy in (None, jittered):
                    label = "jitter" if hierarchy is not None else "plain"
                    specs = [
                        spec
                        for cycle in ref_cycles
                        for spec in expand_grid(
                            [victim],
                            [scheme],
                            base_seed=seed,
                            reference_accesses=((ADDR_REF, cycle),),
                            hierarchy_config=hierarchy,
                            collect_metrics=hierarchy is not None,
                        )
                    ]
                    groups.append((f"refsweep/{victim}/{scheme}/{label}", specs))
        self.ref_specs = [s for _, specs in groups for s in specs]
        base = seed * GRID_SEEDS
        for phase, first in (("grid", base), ("resubmit", base + RESUBMIT_SHIFT)):
            for victim in grid_victims:
                for scheme in grid_schemes:
                    specs = [
                        spec
                        for b in range(first, first + GRID_SEEDS)
                        for spec in expand_grid(
                            [victim], [scheme], base_seed=b, max_cycles=40_000
                        )
                    ]
                    groups.append((f"{phase}/{victim}/{scheme}", specs))
        self.groups = groups
        self.specs = {key: specs for key, specs in groups}
        # Designed per-pass counts (96 / 544 / 256 at full scale).
        seen: set = set()
        self.expect_hits = 0
        for _, specs in groups:
            for spec in specs:
                digest = spec.digest()
                if digest in seen:
                    self.expect_hits += 1
                seen.add(digest)
        self.expect_puts = len(seen)
        self.expect_lanes = len(self.ref_specs)
        # Count cold trials (fork fallbacks, ejected lanes, unplanned
        # specs): the designed passes run none.
        self.cold_trials = 0
        self._runner_mod = runner_mod
        self._run_trial_outcome = runner_mod.run_trial_outcome

        def counted(*args, **kwargs):
            self.cold_trials += 1
            return self._run_trial_outcome(*args, **kwargs)

        runner_mod.run_trial_outcome = counted
        self.runner = None
        self.journal = None
        self._pass_dir = None
        self._passes = 0

    def close(self) -> None:
        self._runner_mod.run_trial_outcome = self._run_trial_outcome
        shutil.rmtree(self.workdir, ignore_errors=True)

    def begin_pass(self) -> None:
        from repro.runner import SerialSweepRunner, TrialJournal

        self._passes += 1
        self._pass_dir = os.path.join(self.workdir, f"pass{self._passes}")
        shutil.rmtree(self._pass_dir, ignore_errors=True)
        os.makedirs(self._pass_dir)
        self.runner = SerialSweepRunner(
            fork=True, batch=True, cache_dir=os.path.join(self._pass_dir, "cache")
        )
        self.journal = TrialJournal(os.path.join(self._pass_dir, "journal.jsonl"))
        self.cold_trials = 0

    def end_pass(self) -> List[str]:
        runner, journal = self.runner, self.journal
        cache = runner.trial_cache
        puts = sum(
            1
            for _, _, files in os.walk(cache.cache_dir)
            for name in files
            if name.endswith(".json")
        )
        stats = runner._batch_stats or {}
        observed = {
            "cache hits": (cache.hits, self.expect_hits),
            "cache puts": (puts, self.expect_puts),
            "journal records": (len(journal.load()), self.expect_puts),
            "lanes batched": (stats.get("batched", 0), self.expect_lanes),
            "lanes ejected": (stats.get("ejected", 0), 0),
            "failed batch groups": (stats.get("failed", 0), 0),
            "cold trials (fork fallbacks)": (self.cold_trials, 0),
        }
        self.runner = self.journal = None
        shutil.rmtree(self._pass_dir, ignore_errors=True)
        return [
            f"pass {self._passes}: {name} {got}, designed {want}"
            for name, (got, want) in observed.items()
            if got != want
        ]

    def calls(self) -> List[Call]:
        return [
            Call(
                key,
                lambda specs=specs: self.runner.run_outcomes(
                    specs, journal=self.journal
                ),
            )
            for key, specs in self.groups
        ]

    def warmup(self) -> None:
        from repro.core.victims import ADDR_REF
        from repro.runner import SerialSweepRunner, TrialJournal, expand_grid

        scratch = os.path.join(self.workdir, "warmup")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        runner = SerialSweepRunner(
            fork=True, batch=True, cache_dir=os.path.join(scratch, "cache")
        )
        journal = TrialJournal(os.path.join(scratch, "journal.jsonl"))
        batch = [
            spec
            for cycle in REF_CYCLES[:2]
            for spec in expand_grid(
                ["gdnpeu"], ["unsafe"], reference_accesses=((ADDR_REF, cycle),)
            )
        ]
        forked = expand_grid(["gdnpeu"], ["unsafe"], base_seed=1)
        runner.run_outcomes(batch + forked, journal=journal)
        runner.run_outcomes(forked, journal=journal)
        shutil.rmtree(scratch, ignore_errors=True)

    def summarise(self, key, output):
        sig = [_outcome_sig(o) for o in output]
        failed = sum(1 for o in output if not o.ok)
        cycles = sum(o.summary.cycles for o in output if o.ok)
        return sig, len(output), failed, cycles

    def check(self, signatures):
        # sweep_accel has no recorded reference: its seeds vary.  The
        # cold path is the reference (see sample_cold_problems).
        return []

    def sample_cold_problems(self, signatures: Dict[str, Any]) -> List[str]:
        """Re-run a deterministic 1-in-16 sample of the pass's specs cold
        and untimed; each must be bit-identical to the accelerated one."""
        run_cold = self._run_trial_outcome
        ordered = [
            (key, i, spec)
            for key, specs in self.groups
            for i, spec in enumerate(specs)
        ]
        problems = []
        for key, i, spec in ordered[self.seed % SAMPLE_EVERY :: SAMPLE_EVERY]:
            cold = _outcome_sig(run_cold(spec, plan=None))
            if signatures[key][i] != cold:
                problems.append(
                    f"{key}[{i}] {spec.label()}: accelerated "
                    f"{signatures[key][i]} != cold {cold}"
                )
        return problems


def make_workload(
    name: str, seed: int, scale: str, workdir: str, reference: Optional[Dict] = None
) -> Workload:
    if name == "paper_cold":
        return PaperCold(seed, scale, (reference or {}).get(name, {}))
    if name == "fig12_suite":
        return Fig12Suite(seed, scale, (reference or {}).get(name, {}))
    if name == "sweep_accel":
        return SweepAccel(seed, scale, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
