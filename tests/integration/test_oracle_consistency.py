"""Consistency of the execution views used by §5.1's checker:

the pipeline's conditional-branch outcome stream must equal the
architectural (in-order) one, and replaying the interpreter's outcomes
through the oracle predictor must produce a mis-speculation-free
execution with identical architectural results.
"""

from hypothesis import given, settings, strategies as st

from repro.isa import Interpreter
from repro.pipeline.branch import OraclePredictor
from repro.workloads import random_program

from tests.conftest import run_on_scheme


def oracle_replay(seed):
    """Run ``random_program(seed)`` with an oracle fed the interpreter's
    outcomes; returns (interpreter result, oracle, core)."""
    program = random_program(seed)
    expected = Interpreter(program).run()
    oracle = OraclePredictor(expected.branch_outcomes)
    _, core = run_on_scheme(program, None, predictor=oracle, max_cycles=400_000)
    return expected, oracle, core


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=4000))
def test_branch_traces_agree(seed):
    """Every conditional branch the pipeline resolves has the outcome
    the interpreter recorded for it, and the pipeline never asks for
    more predictions than the interpreter executed branches."""
    _, oracle, core = oracle_replay(seed)
    assert core.stats.mispredicts == 0
    assert not oracle.exhausted


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=4000))
def test_oracle_replay_has_no_squashes(seed):
    """The NoSpec(E) construction: replaying the architectural outcomes
    through the oracle predictor is mis-speculation-free and
    result-identical."""
    expected, _, core = oracle_replay(seed)
    assert core.stats.squashes == 0
    for reg, value in expected.registers.items():
        assert core.regfile.get(reg) == value, f"register {reg}"
    for addr, value in expected.memory.items():
        assert core.hierarchy.memory.peek(addr) == value, f"mem {addr:#x}"
