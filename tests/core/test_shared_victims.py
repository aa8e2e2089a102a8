"""Shared victims: one immutable build per (factory, kwargs) per process.

``victim_by_name`` hands every trial, analysis and sweep the same
:class:`VictimSpec`, so these tests pin down when two calls share a
victim, that sharing cannot leak state between users (the victim and
its program are frozen), and that the facts computed once per victim
(the warm I-lines, the static families) equal their per-use
definitions.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
import time
from types import MappingProxyType

import pytest

from repro.core import victims
from repro.core.harness import begin_victim_trial, finish_victim_trial
from repro.core.victims import (
    VICTIM_FACTORIES,
    VICTIM_MEMO_SIZE,
    VictimSpec,
    gdnpeu_victim,
    victim_by_name,
)
from repro.isa import instructions as ins
from repro.isa.program import Program
from repro.runner import TrialSpec
from repro.runner.runner import begin_trial_spec, run_trial_spec, summarize_trial
from repro.schemes.registry import SCHEME_FACTORIES
from repro.service.codec import spec_from_json, spec_to_json
from repro.staticcheck import analyzer
from repro.staticcheck.crossval import reconcile_verdicts, static_families
from repro.workloads.synthetic import synthetic_suite

REGISTRY = sorted(VICTIM_FACTORIES)
SCHEMES = sorted(SCHEME_FACTORIES)


@pytest.fixture
def counting_factory(monkeypatch):
    """Register ``probe``: a factory that records its kwargs and builds
    a fresh gdnpeu victim per call."""
    calls = []

    def probe(**kwargs):
        calls.append(kwargs)
        return gdnpeu_victim()

    monkeypatch.setitem(VICTIM_FACTORIES, "probe", probe)
    return calls


class TestSharing:
    def test_equal_kwargs_share_one_victim(self):
        assert victim_by_name("gdnpeu") is victim_by_name("gdnpeu")
        a = victim_by_name("gdmshr", variant="vi-ad", num_mshr_loads=8)
        b = victim_by_name("gdmshr", num_mshr_loads=8, variant="vi-ad")
        assert a is b

    def test_different_kwargs_build_different_victims(self):
        vd = victim_by_name("gdnpeu", variant="vd-vd")
        vi = victim_by_name("gdnpeu", variant="vi-ad")
        assert vd is not vi
        assert vd.name == "gdnpeu-vd-vd" and vi.name == "gdnpeu-vi-ad"
        assert victim_by_name("fwd-eu", followers=2) is not victim_by_name("fwd-eu")

    def test_list_and_dict_kwargs_share(self, counting_factory):
        a = victim_by_name("probe", lines=[1, 2], opts={"k": [3]})
        b = victim_by_name("probe", lines=[1, 2], opts={"k": [3]})
        assert a is b
        assert counting_factory == [{"lines": [1, 2], "opts": {"k": [3]}}]

    def test_codec_decoded_kwargs_build(self, counting_factory):
        """The service codec decodes tagged lists and dicts; a spec
        that round-trips through it reaches the same shared victim."""
        kwargs = (("lines", [1, 2]), ("opts", {"k": (3, 4)}))
        spec = TrialSpec(victim="probe", scheme="unsafe", secret=0, victim_kwargs=kwargs)
        decoded = spec_from_json(spec_to_json(spec))
        assert decoded.digest() == spec.digest()
        direct = victim_by_name("probe", **dict(spec.victim_kwargs))
        assert victim_by_name("probe", **dict(decoded.victim_kwargs)) is direct
        assert len(counting_factory) == 1

    @pytest.mark.parametrize(
        "first, second",
        [
            (1, True),
            (1, 1.0),
            (0.0, -0.0),
            ([1, 2], (1, 2)),
            ({"a": 1}, {"a": True}),
            ({"a": 1, "b": 2}, {"b": 2, "a": 1}),
        ],
    )
    def test_kwargs_keep_their_type(self, counting_factory, first, second):
        """Values that Python compares equal but that a factory could
        tell apart never share a victim."""
        assert victim_by_name("probe", x=first) is not victim_by_name("probe", x=second)
        assert [call["x"] for call in counting_factory] == [first, second]

    def test_unkeyable_kwargs_build_unshared(self, counting_factory):
        marker = object()
        assert victim_by_name("probe", x=marker) is not victim_by_name("probe", x=marker)
        assert len(counting_factory) == 2

    def test_patched_factory_is_not_served_stale(self, monkeypatch):
        original = victim_by_name("gdnpeu")
        replacement = gdnpeu_victim()
        monkeypatch.setitem(VICTIM_FACTORIES, "gdnpeu", lambda **kw: replacement)
        assert victim_by_name("gdnpeu") is replacement
        monkeypatch.undo()
        assert victim_by_name("gdnpeu") is original

    def test_patched_forward_factory_is_not_served_stale(self, monkeypatch):
        from repro.workloads import forward

        original = victim_by_name("fwd-eu")
        replacement = gdnpeu_victim()
        monkeypatch.setitem(
            forward.FORWARD_VICTIM_FACTORIES, "fwd-eu", lambda **kw: replacement
        )
        assert victim_by_name("fwd-eu") is replacement
        monkeypatch.undo()
        assert victim_by_name("fwd-eu") is original

    def test_memo_is_bounded_least_recently_used_first(self, counting_factory):
        first = victim_by_name("probe", n=0)
        for n in range(1, VICTIM_MEMO_SIZE):
            victim_by_name("probe", n=n)
        assert victim_by_name("probe", n=0) is first  # refreshed: now newest
        victim_by_name("probe", n=VICTIM_MEMO_SIZE)  # evicts n=1, the oldest
        assert len(victims._victims) <= VICTIM_MEMO_SIZE
        assert victim_by_name("probe", n=0) is first
        calls = len(counting_factory)
        victim_by_name("probe", n=1)
        assert len(counting_factory) == calls + 1

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown victim 'nope'"):
            victim_by_name("nope")

    def test_runner_and_matrix_share_the_registry_victim(self):
        from repro.core.matrix import _victim_for

        spec = TrialSpec(victim="gdnpeu", scheme="unsafe", secret=0)
        assert begin_trial_spec(spec).spec is victim_by_name("gdnpeu")
        assert _victim_for("gdnpeu", "vd-ad") is victim_by_name("gdnpeu", variant="vd-vd")
        assert _victim_for("gdmshr", "vi-ad") is victim_by_name("gdmshr", variant="vi-ad")
        assert _victim_for("girs", "vi-ad") is victim_by_name("girs")
        assert _victim_for("girs", "vd-vd") is None


def test_racing_threads_share_one_victim_per_key(monkeypatch):
    """Threads racing on the memo get one victim per key while it stays
    in the memo, and evictions under contention never fail a lookup or
    overrun the bound."""
    base = gdnpeu_victim()

    def probe(**kwargs):
        time.sleep(0.0002)  # a slow build: racing threads miss together
        return dataclasses.replace(base, notes=repr(kwargs))

    monkeypatch.setitem(VICTIM_FACTORIES, "probe", probe)
    threads, errors = 8, []
    seen = [dict() for _ in range(threads)]
    start = threading.Barrier(threads)

    def worker(index, keys, repeats):
        rng = random.Random(index)
        try:
            start.wait(timeout=30)
            for _ in range(repeats):
                order = list(keys)
                rng.shuffle(order)
                for n in order:
                    victim = victim_by_name("probe", n=n)
                    assert victim.notes == repr({"n": n})
                    seen[index].setdefault(n, victim)
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)

    def race(keys, repeats):
        pool = [
            threading.Thread(target=worker, args=(i, keys, repeats))
            for i in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
            assert not thread.is_alive()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        race(range(VICTIM_MEMO_SIZE // 2), repeats=20)
        assert not errors, errors
        for n in range(VICTIM_MEMO_SIZE // 2):
            assert len({id(s[n]) for s in seen}) == 1, n
        race(range(VICTIM_MEMO_SIZE + 16), repeats=5)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert len(victims._victims) <= VICTIM_MEMO_SIZE


class TestImmutability:
    def test_victim_fields_cannot_be_assigned(self):
        spec = victim_by_name("gdnpeu")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.program = spec.program  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.branch_slot = 0  # type: ignore[misc]

    def test_victim_mappings_and_sequences_are_read_only(self):
        spec = victim_by_name("gdnpeu", variant="vi-ad")
        assert isinstance(spec.registers, MappingProxyType)
        assert isinstance(spec.memory_image, MappingProxyType)
        with pytest.raises(TypeError):
            spec.registers["i"] = 0  # type: ignore[index]
        with pytest.raises(TypeError):
            spec.memory_image[spec.secret_addr] = 1  # type: ignore[index]
        for name in ("prime_l1", "flush_lines", "cold_ilines"):
            assert isinstance(getattr(spec, name), tuple), name

    def test_program_cannot_be_mutated(self):
        program = victim_by_name("gdnpeu").program
        with pytest.raises(dataclasses.FrozenInstanceError):
            program.instructions = ()  # type: ignore[misc]
        with pytest.raises(TypeError):
            program.instructions[0] = ins.nop()  # type: ignore[index]
        with pytest.raises(TypeError):
            program.labels["body"] = 0  # type: ignore[index]
        with pytest.raises(dataclasses.FrozenInstanceError):
            program.instructions[0].latency = 99  # type: ignore[misc]

    def test_construction_copies_caller_containers(self):
        registers, prime = {"i": 1}, [64]
        instructions, labels = [ins.nop(), ins.halt()], {"end": 1}
        program = Program(instructions, labels)
        spec = dataclasses.replace(
            gdnpeu_victim(), program=program, registers=registers, prime_l1=prime
        )
        registers["i"], labels["end"] = 7, 0
        prime.append(128)
        instructions.pop()
        assert spec.registers == {"i": 1} and spec.prime_l1 == (64,)
        assert len(program) == 2 and program.labels == {"end": 1}

    def test_replace_makes_a_variant_without_touching_the_shared_victim(self):
        shared = victim_by_name("gdnpeu")
        program = shared.program
        instructions = list(program)[:-1] + [ins.halt()]
        variant = dataclasses.replace(
            shared, program=dataclasses.replace(program, instructions=instructions)
        )
        assert variant is not shared and variant.program is not program
        assert victim_by_name("gdnpeu") is shared and shared.program is program

    def test_equality_is_identity(self):
        assert gdnpeu_victim() != gdnpeu_victim()
        spec = victim_by_name("gdnpeu")
        assert spec == spec and {spec: 1}[spec] == 1


def _fresh(name: str) -> VictimSpec:
    """A victim straight from its factory, never through the memo."""
    return VICTIM_FACTORIES[name]()


@pytest.mark.parametrize("name", REGISTRY)
def test_shared_victim_summaries_equal_fresh_builds(name):
    """Every scheme and secret: a trial of the shared victim, built
    once and run many times, summarizes exactly as a fresh build."""
    shared = victim_by_name(name)
    for scheme in SCHEMES:
        for secret in (0, 1):
            spec = TrialSpec(victim=name, scheme=scheme, secret=secret, max_cycles=40_000)
            fresh = _fresh(name)
            cold = finish_victim_trial(
                begin_victim_trial(fresh, scheme, secret, max_cycles=spec.max_cycles)
            )
            assert run_trial_spec(spec) == summarize_trial(spec, fresh, cold), (
                scheme,
                secret,
            )
    assert victim_by_name(name) is shared


class TestStaticFamilies:
    @pytest.mark.parametrize("name", REGISTRY)
    def test_memoized_families_equal_uncached_analysis(self, name):
        report = analyzer.analyze_victim(_fresh(name))
        expected = tuple(sorted({f.family for f in report.findings}))
        assert static_families(victim_by_name(name)) == expected

    def test_reconciliation_analyzes_each_victim_once(self, monkeypatch):
        """Rows of one victim share its static column, across calls
        too, and the analysis is looked up when it runs (so a wrapped
        ``analyze_victim`` sees every call)."""
        calls = []
        real = analyzer.analyze_victim

        def counted(spec, **kwargs):
            calls.append(spec.name)
            return real(spec, **kwargs)

        static_families.cache_clear()
        monkeypatch.setattr(analyzer, "analyze_victim", counted)
        try:
            first = reconcile_verdicts(["girs"], ["unsafe", "fence-spectre"])
            second = reconcile_verdicts(["girs"], ["unsafe"])
        finally:
            static_families.cache_clear()
        assert calls == ["girs"]
        assert {row.static_families for row in first + second} == {
            static_families(victim_by_name("girs"))
        }


def _old_harness_warm_lines(program, line_size, cold):
    """The per-slot loop the harness ran before ``Program.warm_lines``."""
    ilines = set()
    for slot in range(len(program)):
        ilines.add(program.address_of_slot(slot) & ~(line_size - 1))
    return sorted(ilines - set(cold))


def _old_symni_warm_lines(program, line_size, cold):
    """The symbolic executor's copy, which aligned the cold addresses."""
    mask = ~(line_size - 1)
    warm = {program.address_of_slot(slot) & mask for slot in range(len(program))}
    return sorted(warm - {line & mask for line in cold})


PROGRAMS = [(f"victim:{name}", _fresh(name)) for name in REGISTRY] + [
    (f"fig12:{w.name}", w) for w in synthetic_suite()
]


@pytest.mark.parametrize(
    "label, holder", PROGRAMS, ids=[label for label, _ in PROGRAMS]
)
def test_warm_lines_equal_the_old_per_slot_loops(label, holder):
    program = holder.program
    code_lines = _old_harness_warm_lines(program, 64, ())
    cold_sets = [(), code_lines[::2], tuple(getattr(holder, "cold_ilines", ()))]
    for line_size in (32, 64, 128):
        for cold in cold_sets:
            got = list(program.warm_lines(line_size, cold))
            assert got == _old_symni_warm_lines(program, line_size, cold)
            if line_size == 64:  # the harness's lines, its cold lines aligned
                assert got == _old_harness_warm_lines(program, line_size, cold)
    # A cold address inside a line leaves that whole line cold.
    inside = [line + 4 for line in code_lines[:1]]
    assert list(program.warm_lines(64, inside)) == code_lines[1:]
    assert program.warm_lines(64) is program.warm_lines(64)  # derived once
