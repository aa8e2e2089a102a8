"""Sweep-runner determinism and pickling guarantees.

The load-bearing property: a ParallelSweepRunner must produce exactly
the TrialSummary sequence the SerialSweepRunner produces, in the same
order, for the same specs — otherwise parallel sweeps would not be a
drop-in replacement for the reference serial path.
"""

import pickle

from repro.core.matrix import run_matrix
from repro.runner import (
    ParallelSweepRunner,
    SerialSweepRunner,
    TrialSpec,
    expand_grid,
    make_runner,
    run_trial_spec,
)
from repro.runner.spec import trial_seed

VICTIMS = ["gdnpeu", "gdmshr", "girs"]
SCHEMES = ["dom-nontso", "invisispec-spectre", "fence-spectre"]


def test_expand_grid_shape_and_seeds():
    specs = expand_grid(VICTIMS, SCHEMES)
    assert len(specs) == len(VICTIMS) * len(SCHEMES) * 2
    # Seeds are stable across processes/runs (CRC32, not salted hash).
    for spec in specs:
        assert spec.seed == trial_seed(spec.victim, spec.scheme, spec.secret)
    # Distinct trials get distinct seeds on this grid.
    assert len({s.seed for s in specs}) == len(specs)


def test_trial_spec_and_summary_pickle_roundtrip():
    spec = TrialSpec(victim="gdnpeu", scheme="dom-nontso", secret=1, seed=7)
    assert pickle.loads(pickle.dumps(spec)) == spec
    summary = run_trial_spec(spec)
    restored = pickle.loads(pickle.dumps(summary))
    assert restored == summary
    assert restored.ab_order() == summary.ab_order()


def test_parallel_matches_serial_trial_for_trial():
    specs = expand_grid(VICTIMS, SCHEMES)
    serial = SerialSweepRunner().run(specs)
    with ParallelSweepRunner(2) as runner:
        parallel = runner.run(specs)
    assert parallel.workers == 2
    assert len(parallel) == len(serial) == len(specs)
    # Frozen-dataclass equality covers cycles, access times, the whole
    # visible-access tuple, and retirement counts.
    assert list(parallel) == list(serial)


def test_parallel_matrix_matches_serial():
    schemes = ["dom-nontso", "fence-spectre"]
    serial = run_matrix(schemes=schemes)
    with ParallelSweepRunner(2) as runner:
        parallel = run_matrix(schemes=schemes, runner=runner)
    assert parallel == serial


def test_make_runner_resolution():
    assert isinstance(make_runner(1), SerialSweepRunner)
    runner = make_runner(3)
    assert isinstance(runner, ParallelSweepRunner)
    assert runner.workers == 3
    runner.close()


def test_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "1")
    assert isinstance(make_runner(), SerialSweepRunner)
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "4")
    runner = make_runner()
    assert isinstance(runner, ParallelSweepRunner)
    assert runner.workers == 4
    runner.close()


def test_sweep_result_grouping():
    specs = expand_grid(["gdnpeu"], SCHEMES)
    result = SerialSweepRunner().run(specs)
    grouped = result.by_scheme()
    assert set(grouped) == set(SCHEMES)
    assert all(len(v) == 2 for v in grouped.values())
    assert result.trials_per_second > 0
