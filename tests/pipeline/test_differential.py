"""Property-based differential testing: pipeline vs. golden model.

For any generated program, the out-of-order core (with arbitrary branch
prediction, squashes, forwarding, reordering) must produce exactly the
architectural state of the in-order interpreter.
"""

from hypothesis import given, settings, strategies as st

from repro.isa import Interpreter
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline import Core, CoreConfig, StaticTakenPredictor, TwoBitPredictor
from repro.workloads import RandomProgramConfig, random_program

from tests.conftest import small_hierarchy_config


def run_and_compare(seed, predictor=None, config=None):
    program = random_program(seed, config)
    expected = Interpreter(program, max_instructions=100_000).run()
    hierarchy = CacheHierarchy(1, small_hierarchy_config())
    core = Core(
        0,
        program,
        hierarchy,
        config=CoreConfig(),
        predictor=predictor or TwoBitPredictor(),
    )
    core.run(max_cycles=200_000)
    assert core.halted
    for reg, value in expected.registers.items():
        assert core.regfile.get(reg, 0) == value, f"reg {reg} (seed {seed})"
    for addr, value in expected.memory.items():
        assert core.hierarchy.memory.peek(addr) == value, (
            f"mem {addr:#x} (seed {seed})"
        )
    return core


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_programs_match_interpreter(seed):
    run_and_compare(seed)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_programs_under_mistrained_prediction(seed):
    """Static-taken predictor maximizes mispredicts; architectural state
    must survive arbitrary squashing."""
    run_and_compare(seed, predictor=StaticTakenPredictor(True))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_programs_with_tiny_structures(seed):
    """Structural stalls (tiny ROB/RS/FQ) must not change results."""
    config = CoreConfig(
        rob_size=8,
        rs_size=6,
        fetch_queue_size=4,
        lsu_size=4,
        fetch_width=2,
        dispatch_width=2,
        retire_width=2,
        cdb_width=1,
    )
    program = random_program(seed)
    expected = Interpreter(program, max_instructions=100_000).run()
    hierarchy = CacheHierarchy(1, small_hierarchy_config())
    core = Core(0, program, hierarchy, config=config)
    core.run(max_cycles=400_000)
    for reg, value in expected.registers.items():
        assert core.regfile.get(reg, 0) == value


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    branch_prob=st.sampled_from([0.0, 0.3]),
    store_prob=st.sampled_from([0.0, 0.3]),
)
def test_random_programs_mix_extremes(seed, branch_prob, store_prob):
    config = RandomProgramConfig(
        length=30, branch_probability=branch_prob, store_probability=store_prob
    )
    run_and_compare_with_config(seed, config)


def run_and_compare_with_config(seed, gen_config):
    program = random_program(seed, gen_config)
    expected = Interpreter(program, max_instructions=100_000).run()
    hierarchy = CacheHierarchy(1, small_hierarchy_config())
    core = Core(0, program, hierarchy)
    core.run(max_cycles=200_000)
    for reg, value in expected.registers.items():
        assert core.regfile.get(reg, 0) == value
    for addr, value in expected.memory.items():
        assert core.hierarchy.memory.peek(addr) == value
