"""Counter-based RNG stream: determinism and seq semantics.

The whole point of :mod:`repro.memory.stream` is that a draw is a pure
function of its key, so independent consumers — the scalar
:class:`MainMemory`, a restored snapshot, and a batch lane restored
from the leader's capture — reconstruct identical values.  These tests
pin each of those contracts.
"""

from repro.memory.main_memory import MainMemory
from repro.memory.stream import (
    DOMAIN_DRAM,
    DOMAIN_NOISE_FIRE,
    DOMAIN_NOISE_INDEX,
    MASK64,
    CounterStream,
    draw_below,
    draw_uniform,
    mix64,
    stream_word,
)


# ----------------------------------------------------------------------
# the scalar mixer
# ----------------------------------------------------------------------
def test_mix64_is_deterministic_and_64_bit():
    assert mix64(0x1234) == mix64(0x1234)
    for x in (0, 1, MASK64, 0xDEADBEEF):
        assert 0 <= mix64(x) <= MASK64
    # Bijective finalizer: distinct inputs in a small range stay distinct.
    outs = {mix64(x) for x in range(4096)}
    assert len(outs) == 4096


def test_stream_word_keys_every_field():
    base = stream_word(7, DOMAIN_DRAM, 100, 0)
    assert stream_word(7, DOMAIN_DRAM, 100, 0) == base
    assert stream_word(8, DOMAIN_DRAM, 100, 0) != base
    assert stream_word(7, DOMAIN_DRAM + 1, 100, 0) != base
    assert stream_word(7, DOMAIN_DRAM, 101, 0) != base
    assert stream_word(7, DOMAIN_DRAM, 100, 1) != base


def test_domains_do_not_alias():
    """A noise decision at cycle t never perturbs the jitter drawn at
    the same cycle — the property that keeps lockstep lanes converged."""
    words = {
        stream_word(7, domain, 50, 0)
        for domain in (DOMAIN_DRAM, DOMAIN_NOISE_FIRE, DOMAIN_NOISE_INDEX)
    }
    assert len(words) == 3


def test_draw_below_and_uniform_ranges():
    for seq in range(64):
        assert 0 <= draw_below(3, DOMAIN_DRAM, 9, seq, 6) < 6
        assert 0.0 <= draw_uniform(3, DOMAIN_NOISE_FIRE, 9, seq) < 1.0


# ----------------------------------------------------------------------
# the scalar consumer
# ----------------------------------------------------------------------
def test_counter_stream_seq_semantics():
    stream = CounterStream(11)
    # Repeated draws at one (cycle, core) key count up...
    assert stream.next_seq(40, 0) == 0
    assert stream.next_seq(40, 0) == 1
    assert stream.next_seq(40, 0) == 2
    # ...a new key resets, even back at a previously-seen cycle.
    assert stream.next_seq(40, 2) == 0
    assert stream.next_seq(41, 2) == 0
    assert stream.next_seq(40, 0) == 0


def test_counter_stream_draws_are_reconstructible():
    """Two streams with the same seed replaying the same key sequence
    produce identical draws — draw sites share no hidden state."""
    a = CounterStream(99)
    b = CounterStream(99)
    keys = [(10, 0), (10, 0), (10, 2), (11, 0), (11, 0), (11, 0)]
    assert [a.jitter_draw(c, k, 5) for c, k in keys] == [
        b.jitter_draw(c, k, 5) for c, k in keys
    ]
    # And each value is exactly the pure-function draw for its key.
    c = CounterStream(99)
    d = CounterStream(99)
    for cycle, core in keys:
        seq = c.next_seq(cycle, core)
        assert d.jitter_draw(cycle, core, 5) == draw_below(
            99, DOMAIN_DRAM + core, cycle, seq, 6
        )


def test_counter_stream_state_round_trip():
    stream = CounterStream(5)
    stream.jitter_draw(100, 1, 7)
    stream.jitter_draw(100, 1, 7)
    saved = stream.state()
    next_direct = stream.jitter_draw(100, 1, 7)
    restored = CounterStream.from_state(saved)
    assert restored.jitter_draw(100, 1, 7) == next_direct


# ----------------------------------------------------------------------
# MainMemory integration
# ----------------------------------------------------------------------
def test_main_memory_jitter_is_keyed_not_sequenced():
    """Two memories with one seed agree draw-for-draw, and a capture /
    restore replays the identical suffix."""
    a = MainMemory(latency=200, jitter=9, seed=42)
    b = MainMemory(latency=200, jitter=9, seed=42)
    keys = [(5, 0), (5, 0), (6, 2), (7, 0)]
    assert [a.access_latency(c, k) for c, k in keys] == [
        b.access_latency(c, k) for c, k in keys
    ]
    saved = a.capture()
    tail = [a.access_latency(8, 0), a.access_latency(8, 0)]
    a.restore(saved)
    assert [a.access_latency(8, 0), a.access_latency(8, 0)] == tail


def test_main_memory_zero_jitter_touches_no_stream_state():
    mem = MainMemory(latency=150, jitter=0, seed=3)
    before = mem.capture()[1]
    assert mem.access_latency(100, 0) == 150
    assert mem.capture()[1] == before


def test_main_memory_reseed_restarts_the_stream():
    a = MainMemory(latency=200, jitter=9, seed=1)
    a.access_latency(5, 0)
    a.reseed(1)
    b = MainMemory(latency=200, jitter=9, seed=1)
    assert a.access_latency(5, 0) == b.access_latency(5, 0)
