"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.memory.hierarchy import HierarchyConfig, LevelConfig


def pytest_addoption(parser):
    parser.addoption(
        "--refresh-golden",
        action="store_true",
        default=False,
        help="rewrite the golden trace files under tests/data/golden_traces/ "
        "from the current simulator instead of diffing against them",
    )


def small_hierarchy_config(**overrides) -> HierarchyConfig:
    """A fast hierarchy for unit tests (attack-relevant shape intact:
    16-way QLRU LLC, finite MSHRs)."""
    defaults = dict(
        l1i=LevelConfig(16, 4, latency=3),
        l1d=LevelConfig(16, 4, latency=3),
        l2=LevelConfig(32, 4, latency=12),
        llc=LevelConfig(64, 16, latency=40, policy="qlru"),
        dram_latency=200,
        dram_jitter=0,
        l1d_mshrs=4,
    )
    defaults.update(overrides)
    return HierarchyConfig(**defaults)


@pytest.fixture
def hierarchy_config():
    return small_hierarchy_config()


def kernel_machine(workload, scheme: str):
    """A one-core machine ready to run a Fig. 12 kernel under ``scheme``
    (memory image loaded, I-side warm), as ``run_workload`` builds it.
    Returns (machine, core)."""
    from repro.core.victims import ATTACK_HIERARCHY
    from repro.schemes import make_scheme
    from repro.system.machine import Machine

    machine = Machine(num_cores=1, hierarchy_config=ATTACK_HIERARCHY)
    for addr, value in workload.memory_image.items():
        machine.hierarchy.memory.write(addr, value)
    machine.warm_icache(0, workload.program)
    core = machine.attach(0, workload.program, make_scheme(scheme))
    return machine, core


def run_on_scheme(
    program,
    scheme,
    *,
    registers=None,
    memory=None,
    hierarchy=None,
    predictor=None,
    num_cores=2,
    warm_icache=True,
    tracer=None,
    max_cycles=200_000,
):
    """Run a program on core 0 of a small machine under a scheme.

    ``tracer`` (a :class:`repro.trace.Tracer`) is wired into the whole
    machine when given.  Returns (machine, core).
    """
    from repro.system.machine import Machine
    from repro.trace import install_tracer

    machine = Machine(
        num_cores=num_cores, hierarchy_config=hierarchy or small_hierarchy_config()
    )
    for addr, value in (memory or {}).items():
        machine.hierarchy.memory.write(addr, value)
    if warm_icache:
        machine.warm_icache(0, program)
    core = machine.attach(
        0,
        program,
        scheme,
        predictor=predictor,
        registers=registers,
    )
    if tracer is not None:
        install_tracer(tracer, machine=machine)
    machine.run(until=lambda: core.halted, max_cycles=max_cycles)
    return machine, core
