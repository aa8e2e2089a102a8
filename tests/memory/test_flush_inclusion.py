"""``CacheHierarchy.flush`` stops at an LLC miss when the LLC is
inclusive, checked against the flush that invalidated every cache.

With ``inclusive_llc`` (the default) a line the LLC does not hold is in
no private cache, so invalidating the private caches of such a line
changes nothing.  Random sequences of accesses, stores, warm fills and
flushes run on two hierarchies, one flushing as shipped and one through
``reference_flush`` (the body ``flush`` had before), and the two must
agree on every cache's lines, replacement state and stats, the MSHR
files, DRAM, ``visible_log``, the coherence directory, the policy RNG,
the tracer's events and every observer call.
"""

import random

import pytest

from repro.memory import AccessKind, CacheHierarchy, HierarchyConfig, LevelConfig
from repro.memory.cache import Cache
from repro.trace import Tracer
from repro.trace.bus import install_tracer_on_hierarchy


def reference_flush(self, addr):
    """``CacheHierarchy.flush`` before it relied on LLC inclusion."""
    line = self.llc.layout.line_addr(addr)
    for c in range(self.num_cores):
        self.l1i[c].invalidate(line)
        self.l1d[c].invalidate(line)
        self.l2[c].invalidate(line)
    self.llc.invalidate(line)
    if self.coherence is not None:
        self.coherence.on_flush(line)
    observer = self.observer
    if observer is not None:
        observer.on_flush(addr)


class RecordingObserver:
    """Every hierarchy and LLC observer call, in order."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        if not name.startswith("on_"):
            raise AttributeError(name)

        def record(*args):
            self.calls.append((name,) + tuple(a.name if isinstance(a, Cache) else a for a in args))

        return record


def _config(policy="qlru", **overrides):
    return HierarchyConfig(
        l1i=LevelConfig(4, 2, latency=3),
        l1d=LevelConfig(4, 2, latency=3),
        l2=LevelConfig(8, 2, latency=12),
        llc=LevelConfig(8, 4, latency=40, policy=policy, num_slices=2),
        dram_latency=200,
        l1d_mshrs=4,
        **overrides,
    )


def _hierarchy(config, cores):
    h = CacheHierarchy(cores, config)
    tracer = Tracer()
    install_tracer_on_hierarchy(tracer, h)
    h.observer = h.llc.observer = RecordingObserver()
    return h, tracer


def _ops(seed, cores, n=300):
    rng = random.Random(seed)
    # 24 lines over few sets: evictions, back-invalidations and
    # flushes of absent and present lines all happen.
    lines = [0x10_000 + 64 * i * 3 for i in range(24)]
    ops = []
    for _ in range(n):
        kind = rng.random()
        core = rng.randrange(cores)
        addr = rng.choice(lines) + rng.randrange(64)
        if kind < 0.45:
            ops.append(("access", core, addr, rng.choice(list(AccessKind)), rng.random() < 0.8))
        elif kind < 0.6:
            ops.append(("write", core, addr, rng.randrange(256)))
        elif kind < 0.7:
            ops.append(("warm", core, addr))
        elif kind < 0.75:
            ops.append(("hit_level", core, addr))
        else:
            ops.append(("flush", addr))
    return ops


def _apply(h, op, flush):
    name = op[0]
    if name == "access":
        _, core, addr, kind, visible = op
        h.access(core, addr, kind, visible=visible, cycle=len(h.visible_log))
    elif name == "write":
        _, core, addr, value = op
        h.write(core, addr, value)
    elif name == "warm":
        # Machine.warm_icache / warm_data order: LLC first.
        _, core, addr = op
        h.llc.fill(addr, update=False)
        h.l2[core].fill(addr, update=False)
        h.l1d[core].fill(addr, update=False)
    elif name == "hit_level":
        h.hit_level(op[1], op[2])
    else:
        flush(h, op[1])


def _private_lines_in_llc(h):
    private = set()
    for c in range(h.num_cores):
        for cache in (h.l1i[c], h.l1d[c], h.l2[c]):
            private.update(cache.resident_lines())
    return all(h.llc.holds(line) for line in private)


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize(
    "config",
    [
        _config(),
        _config(policy="random", seed=3),
        _config(enable_coherence=False),
        _config(inclusive_llc=False),
    ],
    ids=["qlru", "random", "no-coherence", "non-inclusive"],
)
def test_flush_equals_a_full_flush(seed, config):
    cores = 2 + seed % 2
    shipped, shipped_tracer = _hierarchy(config, cores)
    reference, reference_tracer = _hierarchy(config, cores)
    for op in _ops(seed, cores):
        _apply(shipped, op, CacheHierarchy.flush)
        _apply(reference, op, reference_flush)
        if config.inclusive_llc:
            assert _private_lines_in_llc(shipped), op
    assert shipped.capture() == reference.capture()
    assert shipped_tracer.events == reference_tracer.events
    assert shipped.observer.calls == reference.observer.calls
    assert shipped.visible_log == reference.visible_log
    if config.enable_coherence:
        assert shipped.coherence.capture() == reference.coherence.capture()


def test_flush_of_an_absent_line_invalidates_nothing(monkeypatch):
    h, tracer = _hierarchy(_config(), 2)
    h.access(0, 0x10_000)
    calls = []
    real = Cache.invalidate
    monkeypatch.setattr(
        Cache, "invalidate", lambda self, addr: calls.append(self.name) or real(self, addr)
    )
    h.flush(0x20_000)
    assert calls == []
    assert h.observer.calls[-1] == ("on_flush", 0x20_000)
    h.flush(0x10_000)
    assert len(calls) == 3 * 2 + 1  # every private cache, then the LLC
    assert calls[-1] == "LLC"
    assert h.hit_level(0, 0x10_000) == "DRAM"


def test_non_inclusive_flush_reaches_private_copies_the_llc_lost():
    """Without inclusion the LLC may drop a line its private caches keep;
    a flush must still invalidate every cache."""
    h = CacheHierarchy(2, _config(inclusive_llc=False))
    line = 0x10_000
    h.access(0, line)
    stride = h.llc.layout.line_size * h.llc.layout.num_sets
    for way in range(1, 64):
        h.llc.fill(line + way * stride)
        if not h.llc.holds(line):
            break
    assert not h.llc.holds(line)
    assert h.l1d[0].holds(line) and h.l2[0].holds(line)
    h.flush(line)
    assert not h.l1d[0].holds(line) and not h.l2[0].holds(line)
