"""Synthetic workload suite tests: every kernel runs correctly on both
the interpreter and the pipeline, and has the bottleneck it claims."""

import pytest

from repro.isa import Interpreter
from repro.workloads.synthetic import synthetic_suite, workload_by_name

from tests.conftest import run_on_scheme


ALL = synthetic_suite()


class TestSuiteStructure:
    def test_suite_nonempty_and_named(self):
        names = [w.name for w in ALL]
        assert len(names) == len(set(names))
        assert len(names) >= 6

    def test_lookup_by_name(self):
        assert workload_by_name("stream").name == "stream"
        with pytest.raises(KeyError):
            workload_by_name("spec2017")


@pytest.mark.parametrize("workload", ALL, ids=lambda w: w.name)
class TestEveryWorkload:
    def test_interpreter_and_pipeline_agree(self, workload):
        expected = Interpreter(workload.program, max_instructions=200_000).run(
            memory=workload.memory_image
        )
        machine, core = run_on_scheme(
            workload.program, None, memory=workload.memory_image, max_cycles=500_000
        )
        assert core.halted
        assert (
            core.regfile.get(workload.checksum_reg)
            == expected.registers.get(workload.checksum_reg)
        )

    def test_checksum_is_data_dependent(self, workload):
        """The checksum must reflect the memory image (guards against
        dead kernels that defenses could trivially skip)."""
        expected = Interpreter(workload.program, max_instructions=200_000).run(
            memory=workload.memory_image
        )
        if not workload.memory_image:
            pytest.skip("pure-compute kernel")
        perturbed_image = dict(workload.memory_image)
        key = next(iter(perturbed_image))
        perturbed_image[key] += 1
        perturbed = Interpreter(
            workload.program, max_instructions=200_000
        ).run(memory=perturbed_image)
        assert (
            perturbed.registers.get(workload.checksum_reg)
            != expected.registers.get(workload.checksum_reg)
        )


class TestBottlenecks:
    def test_pointer_chase_is_serial(self):
        machine, core = run_on_scheme(
            workload_by_name("pointer_chase").program,
            None,
            memory=workload_by_name("pointer_chase").memory_image,
            max_cycles=500_000,
        )
        # ~latency-bound: ipc far below 1
        assert core.stats.ipc < 0.1

    def test_ilp_is_fast(self):
        machine, core = run_on_scheme(workload_by_name("ilp").program, None)
        assert core.stats.ipc > 1.0

    def test_branchy_mispredicts(self):
        w = workload_by_name("branchy")
        machine, core = run_on_scheme(w.program, None, memory=w.memory_image)
        assert core.stats.mispredicts > 5

    def test_sqrt_kernel_uses_nonpipelined_port(self):
        w = workload_by_name("sqrt_kernel")
        machine, core = run_on_scheme(w.program, None)
        assert core.eus[0].issues >= 32
