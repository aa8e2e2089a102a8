"""Snapshot round-trip properties.

``capture()`` -> ``restore()`` -> ``capture()`` must be the identity on
the captured representation, and a restored machine must continue
exactly as the original would have — at any cycle, under any scheme.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.harness import begin_victim_trial
from repro.core.victims import victim_by_name
from repro.schemes.registry import SCHEME_FACTORIES
from repro.snapshot import schema_components, state_schema_hash
from repro.staticcheck.sanitizer import InvariantSanitizer
from repro.trace import Tracer

ALL_SCHEMES = sorted(SCHEME_FACTORIES)


def _setup(scheme, secret=1, seed=0, trace=True):
    victim = victim_by_name("gdnpeu")
    return begin_victim_trial(
        victim,
        scheme,
        secret,
        seed=seed,
        tracer=Tracer() if trace else None,
    )


@settings(max_examples=25, deadline=None)
@given(
    scheme=st.sampled_from(ALL_SCHEMES),
    cycles=st.integers(min_value=0, max_value=200),
    secret=st.sampled_from((0, 1)),
)
def test_capture_restore_capture_is_identity(scheme, cycles, secret):
    """Property: re-capturing immediately after a restore reproduces the
    exact capture tuple (machine-wide, any mid-run cycle)."""
    setup = _setup(scheme, secret=secret)
    machine, core = setup.machine, setup.core
    while machine.cycle < cycles and not core.halted:
        machine.step()
    snap = machine.capture()
    machine.restore(snap)
    assert machine.capture() == snap


@settings(max_examples=25, deadline=None)
@given(
    scheme=st.sampled_from(ALL_SCHEMES),
    cycles=st.integers(min_value=1, max_value=300),
)
def test_resumed_run_matches_uninterrupted(scheme, cycles):
    """Property: restore + run-to-halt == run-to-halt, from any fork
    cycle — identical final cycle, stats, and event stream."""
    setup = _setup(scheme)
    machine, core = setup.machine, setup.core
    while machine.cycle < cycles and not core.halted:
        machine.step()
    snap = machine.capture()
    machine.run(until=lambda: core.halted, max_cycles=20_000)
    reference = (
        machine.cycle,
        core.stats.retired,
        core.stats.squashes,
        list(machine.tracer.events),
        list(machine.hierarchy.visible_log),
    )
    machine.restore(snap)
    machine.run(until=lambda: core.halted, max_cycles=20_000)
    resumed = (
        machine.cycle,
        core.stats.retired,
        core.stats.squashes,
        list(machine.tracer.events),
        list(machine.hierarchy.visible_log),
    )
    assert resumed == reference


@pytest.mark.parametrize(
    "scheme", ["unsafe", "dom-nontso", "stt", "muontrap", "invisispec-spectre"]
)
def test_restored_state_satisfies_invariants(scheme):
    """A restored mid-run snapshot is a valid pipeline state: run to
    halt, restore the capture, and run the rest under the cycle-level
    invariant sanitizer; every check must pass."""
    setup = _setup(scheme, seed=3)
    machine, core = setup.machine, setup.core
    while machine.cycle < 60 and not core.halted:
        machine.step()
    assert len(core.rob) > 0  # mid-run: instructions in flight
    snap = machine.capture()
    machine.run(until=lambda: core.halted, max_cycles=20_000)
    machine.restore(snap)
    sanitizer = InvariantSanitizer().attach(core)
    machine.fault_injector = sanitizer  # also disables fast-forward
    machine.run(until=lambda: core.halted, max_cycles=20_000)
    assert core.halted
    assert sanitizer.invariant_checks > 0


def test_restore_preserves_container_identity():
    """Holders of shared mutable containers (tracer event list, visible
    log) must observe the restore — restore mutates in place, never
    rebinds."""
    setup = _setup("dom-nontso")
    machine = setup.machine
    events = machine.tracer.events
    log = machine.hierarchy.visible_log
    snap = machine.capture()
    machine.run(until=lambda: setup.core.halted, max_cycles=20_000)
    assert machine.tracer.events is events
    machine.restore(snap)
    assert machine.tracer.events is events
    assert machine.hierarchy.visible_log is log


def test_dyninstr_aliasing_survives_restore():
    """One dynamic instruction aliased across ROB/RS/LSU/trace must
    restore as one object, not several copies."""
    setup = _setup("unsafe")
    machine, core = setup.machine, setup.core
    while machine.cycle < 60 and not core.halted:
        machine.step()
    snap = machine.capture()
    machine.restore(snap)
    by_seq = {}
    for holder in (list(core.rob), list(core.rs), list(core.fetch_queue)):
        for instr in holder:
            prev = by_seq.setdefault(instr.seq, instr)
            assert prev is instr, f"seq {instr.seq} restored as two objects"


def test_state_schema_hash_is_stable_and_sensitive():
    """The schema hash is deterministic per build and covers every
    snapshot component (so any capture-layout change moves it)."""
    assert state_schema_hash() == state_schema_hash()
    names = {name for name, _, _ in schema_components()}
    assert {
        "Machine",
        "Core",
        "ROB",
        "ReservationStation",
        "ExecutionUnit",
        "CommonDataBus",
        "LoadStoreUnit",
        "CacheHierarchy",
        "Cache",
        "MSHRFile",
        "CoherenceDirectory",
        "MainMemory",
        "DynInstr",
    } <= names
    for _, version, fields in schema_components():
        assert version >= 1
        assert fields  # every component declares its captured fields


@pytest.mark.parametrize("scheme", ["muontrap", "priority", "cleanupspec"])
def test_scheme_state_roundtrip(scheme):
    """Scheme-internal transient state (filter caches, undo logs,
    wrapped base schemes) round-trips through capture_state."""
    setup = _setup(scheme)
    machine, core = setup.machine, setup.core
    while machine.cycle < 100 and not core.halted:
        machine.step()
    state = core.scheme.capture_state()
    core.scheme.restore_state(state)
    assert core.scheme.capture_state() == state
