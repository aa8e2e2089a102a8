"""Content-addressed trial cache: correctness and invalidation."""

import json
import pathlib

import pytest

import repro.runner.cache as runner_cache
from repro.runner import (
    SerialSweepRunner,
    TrialCache,
    TrialSpec,
    cache_key,
)


def _specs(max_cycles=2000):
    return [
        TrialSpec(
            victim="gdnpeu",
            scheme=scheme,
            secret=secret,
            max_cycles=max_cycles,
        )
        for scheme in ("unsafe", "dom-nontso")
        for secret in (0, 1)
    ]


def _entry_files(cache_dir):
    return sorted(pathlib.Path(cache_dir).rglob("*.json"))


def _stats(**overrides):
    """Expected stats dict: all-zero baseline plus ``overrides``."""
    base = {
        "hits": 0,
        "misses": 0,
        "bypasses": 0,
        "put_errors": 0,
        "quarantined": 0,
        "evictions": 0,
    }
    base.update(overrides)
    return base


def test_cached_rerun_is_byte_identical(tmp_path):
    """Second run of the same sweep: all hits, identical outcomes, and
    the on-disk entries are untouched byte for byte."""
    specs = _specs()
    first = SerialSweepRunner(cache_dir=tmp_path).run_outcomes(specs)
    files = _entry_files(tmp_path)
    assert len(files) == len(specs)
    before = {f: f.read_bytes() for f in files}

    cache = TrialCache(tmp_path)
    replayed = [cache.get(spec) for spec in specs]
    assert cache.stats() == _stats(hits=len(specs))
    assert replayed == first

    second = SerialSweepRunner(cache_dir=tmp_path).run_outcomes(specs)
    assert second == first
    assert {f: f.read_bytes() for f in _entry_files(tmp_path)} == before


def test_cache_hit_skips_simulation(tmp_path, monkeypatch):
    """With a warm cache, the runner never touches the simulator."""
    specs = _specs()
    first = SerialSweepRunner(cache_dir=tmp_path).run_outcomes(specs)

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("simulated a trial that should be cached")

    monkeypatch.setattr("repro.runner.runner.run_trial_outcome", boom)
    second = SerialSweepRunner(cache_dir=tmp_path).run_outcomes(specs)
    assert second == first


def test_schema_hash_invalidates_entries(tmp_path, monkeypatch):
    """Changing the build fingerprint (i.e. any edit to a source file
    of the package) orphans every existing entry."""
    spec = _specs()[0]
    cache = TrialCache(tmp_path)
    SerialSweepRunner(cache_dir=tmp_path).run_outcomes([spec])
    assert cache.get(spec) is not None

    monkeypatch.setattr(
        runner_cache, "build_fingerprint", lambda: "deadbeefdeadbeef"
    )
    stale = TrialCache(tmp_path)
    assert stale.get(spec) is None
    assert stale.stats() == _stats(misses=1)
    # Keys diverge too: old entries are orphaned, not overwritten.
    assert cache_key(spec) != cache_key(spec, "somethingelse")


def test_tampered_entry_reads_as_miss(tmp_path):
    """A corrupt or relocated entry is a miss, never a wrong answer."""
    spec = _specs()[0]
    SerialSweepRunner(cache_dir=tmp_path).run_outcomes([spec])
    (entry,) = _entry_files(tmp_path)

    data = json.loads(entry.read_text())
    data["digest"] = "0" * len(data["digest"])
    entry.write_text(json.dumps(data))
    assert TrialCache(tmp_path).get(spec) is None

    entry.write_text("{not json")
    assert TrialCache(tmp_path).get(spec) is None


def test_failures_are_not_cached(tmp_path):
    """Only ``ok`` outcomes are memoized: a deadlocked trial re-runs."""
    spec = TrialSpec(
        victim="gdnpeu", scheme="unsafe", secret=1, max_cycles=40
    )
    outcomes = SerialSweepRunner(cache_dir=tmp_path).run_outcomes([spec])
    assert not outcomes[0].ok
    assert _entry_files(tmp_path) == []
    assert TrialCache(tmp_path).get(spec) is None


def test_cache_composes_with_fork(tmp_path):
    """fork=True + cache_dir: first run forks, second run is all cache
    hits, and both match the plain cold run."""
    specs = _specs()
    cold = SerialSweepRunner().run_outcomes(specs)
    first = SerialSweepRunner(fork=True, cache_dir=tmp_path).run_outcomes(
        specs
    )
    second = SerialSweepRunner(fork=True, cache_dir=tmp_path).run_outcomes(
        specs
    )
    assert first == cold
    assert second == cold


def test_cache_key_depends_on_spec_and_schema():
    a, b = _specs()[:2]
    assert cache_key(a) == cache_key(a)
    assert cache_key(a) != cache_key(b)
    assert cache_key(a, "aaaa") != cache_key(a, "bbbb")


@pytest.mark.parametrize("shard", [True])
def test_entries_are_sharded(tmp_path, shard):
    """Entries land in two-hex-char shard directories keyed by prefix."""
    spec = _specs()[0]
    SerialSweepRunner(cache_dir=tmp_path).run_outcomes([spec])
    (entry,) = _entry_files(tmp_path)
    assert entry.parent.name == cache_key(spec)[:2]
    assert entry.stem == cache_key(spec)
