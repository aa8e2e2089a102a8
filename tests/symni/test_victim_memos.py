"""Per-victim symbolic set-up is computed once and shared read-only.

``victim_resources`` (the executor's resource summaries) and
``victim_listing`` (the counterexample's program listing) are memoized
per victim, keyed on the shared victim object as
``crossval.static_families`` is.  A memoized result must equal a fresh
computation for every registry victim, and nobody may change a shared
one.
"""

import dataclasses

import pytest

from repro.core.victims import VICTIM_FACTORIES, victim_by_name
from repro.schemes.registry import SCHEME_FACTORIES
from repro.staticcheck.resources import summarize_resources
from repro.symni import checker, executor
from repro.symni.checker import check_victim, victim_listing
from repro.symni.executor import SymniExecutor, victim_resources
from repro.symni.model import model_for

VICTIMS = sorted(VICTIM_FACTORIES)


@pytest.mark.parametrize("victim", VICTIMS)
def test_memoized_results_equal_fresh_ones(victim):
    spec = victim_by_name(victim)
    resources = victim_resources(spec)
    assert dict(resources) == summarize_resources(spec.program, spec.core_config)
    assert victim_resources(spec) is resources
    assert victim_listing(spec) == spec.program.listing()
    assert victim_listing(spec) is victim_listing(spec)
    assert SymniExecutor.for_victim(spec, model_for("unsafe")).resources is resources


@pytest.mark.parametrize("victim", VICTIMS)
def test_memoized_resources_run_like_fresh_ones(victim):
    """An executor built without the memo (it summarizes the program
    itself) runs exactly as the one ``for_victim`` builds."""
    spec = victim_by_name(victim)
    for scheme in ("unsafe", "dom-nontso", "stt"):
        model = model_for(scheme)
        shared = SymniExecutor.for_victim(spec, model).run()
        fresh = SymniExecutor(
            spec.program,
            model,
            secret_addr=spec.secret_addr,
            registers=spec.registers,
            memory_image=spec.memory_image,
            prime_l1=spec.prime_l1,
            flush_lines=spec.flush_lines,
            cold_ilines=spec.cold_ilines,
            core_config=spec.core_config,
        )
        assert dict(fresh.resources) == dict(victim_resources(spec))
        fresh_result = fresh.run()
        assert shared.traces == fresh_result.traces, scheme
        assert shared.notes == fresh_result.notes, scheme


def test_shared_resources_cannot_be_mutated():
    resources = victim_resources(victim_by_name("gdnpeu"))
    with pytest.raises(TypeError):
        resources[0] = resources[1]
    with pytest.raises(TypeError):
        del resources[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        resources[0].latency = 99


def test_one_summary_and_one_listing_per_victim(monkeypatch):
    """Every scheme's row of one victim reuses its summaries, and every
    divergent verdict reuses its listing."""
    spec = victim_by_name("gdmshr")
    victim_resources.cache_clear()
    victim_listing.cache_clear()
    summaries, listings = [], []
    real_summarize = executor.summarize_resources
    monkeypatch.setattr(
        executor,
        "summarize_resources",
        lambda *args: summaries.append(args) or real_summarize(*args),
    )
    monkeypatch.setattr(
        type(spec.program),
        "listing",
        lambda program, _real=type(spec.program).listing: listings.append(program)
        or _real(program),
    )
    verdicts = [check_victim("gdmshr", scheme, replay=False) for scheme in sorted(SCHEME_FACTORIES)]
    divergent = [v for v in verdicts if v.counterexample is not None]
    assert divergent
    assert len(summaries) == 1
    assert len(listings) == 1
    for verdict in divergent:
        assert verdict.counterexample.program_listing == checker.victim_listing(spec)
