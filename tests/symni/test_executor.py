"""Executor semantics: windows, policies, pressure, and the calibration
matrix (symbolic side only — grounding lives in test_matrix_agreement)."""

from repro.core.victims import victim_by_name
from repro.isa.builder import ProgramBuilder
from repro.isa.symbolic import SecretSpace
from repro.symni.executor import CheckBounds, SymniExecutor
from repro.symni.model import model_for
from repro.symni.observables import (
    KIND_CTRL_DIVERGE,
    KIND_MSHR_EXHAUST,
    KIND_PORT_BUSY,
    KIND_SPEC_ACCESS,
    KIND_SPEC_IFETCH,
    first_divergence,
)

SECRET_ADDR = 0x2000


def run_victim(name, scheme, **kwargs):
    spec = victim_by_name(name)
    executor = SymniExecutor.for_victim(spec, model_for(scheme), **kwargs)
    result = executor.run()
    return result, first_divergence(result.traces, result.assignments)


def kinds(result):
    return [{obs.kind for obs in trace} for trace in result.traces]


# ----------------------------------------------------------------------
# basic structure
# ----------------------------------------------------------------------
def test_secret_independent_program_is_clean():
    b = ProgramBuilder()
    b.imm("x", 7)
    b.alu("y", ("x",), lambda x: x + 1, name="inc")
    b.store_addr(SECRET_ADDR + 0x100, "y")
    b.halt()
    executor = SymniExecutor(
        b.build(), model_for("unsafe"), secret_addr=SECRET_ADDR
    )
    result = executor.run()
    assert first_divergence(result.traces, result.assignments) is None
    assert result.windows_explored == 0


def test_architectural_secret_branch_is_ctrl_diverge():
    b = ProgramBuilder()
    b.load_addr("s", SECRET_ADDR, name="sec")
    b.branch_if(("s",), lambda s: s != 0, "skip", name="br")
    b.imm("a", 1)
    b.label("skip")
    b.halt()
    executor = SymniExecutor(
        b.build(), model_for("unsafe"), secret_addr=SECRET_ADDR
    )
    result = executor.run()
    div = first_divergence(result.traces, result.assignments)
    assert div is not None
    assert div.kind == KIND_CTRL_DIVERGE


def test_window_bound_truncates_and_is_reported():
    result, div = run_victim(
        "gdnpeu", "unsafe", bounds=CheckBounds(max_window_instrs=1)
    )
    assert result.truncated
    assert any("truncated" in note for note in result.notes)


def test_window_budget_zero_explores_nothing():
    spec = victim_by_name("gdnpeu")
    executor = SymniExecutor.for_victim(
        spec, model_for("unsafe"), bounds=CheckBounds(max_windows=0)
    )
    result = executor.run()
    assert result.windows_explored == 0
    assert result.truncated


def test_wider_secret_space_is_supported():
    space = SecretSpace(variables=(("secret", (0, 1, 2, 3)),))
    spec = victim_by_name("gdnpeu")
    executor = SymniExecutor.for_victim(
        spec, model_for("unsafe"), space=space
    )
    result = executor.run()
    assert len(result.traces) == 4
    assert first_divergence(result.traces, result.assignments) is not None


# ----------------------------------------------------------------------
# per-policy observable rules
# ----------------------------------------------------------------------
def test_visible_scheme_emits_spec_access():
    result, div = run_victim("gdnpeu", "unsafe")
    assert div is not None
    assert div.kind == KIND_SPEC_ACCESS


def test_invisible_scheme_hides_accesses_but_not_ports():
    result, div = run_victim("gdnpeu", "invisispec-spectre")
    assert div is not None
    assert div.kind == KIND_PORT_BUSY
    for trace_kinds in kinds(result):
        assert KIND_SPEC_ACCESS not in trace_kinds


def test_delay_on_miss_strands_gadget_in_miss_lane():
    result, _ = run_victim("gdnpeu", "dom-nontso")
    lane0, lane1 = kinds(result)
    # gdnpeu primes secret=1's transmitter line: lane 1 hits and runs
    # the gadget; lane 0 misses, is delayed, and emits no port events.
    assert KIND_PORT_BUSY not in lane0
    assert KIND_PORT_BUSY in lane1


def test_value_prediction_equalizes_gdnpeu():
    result, div = run_victim("gdnpeu", "dom-nontso-vp")
    assert div is None


def test_fence_emits_nothing_speculative():
    result, div = run_victim("gdnpeu", "fence-spectre")
    assert div is None
    for trace_kinds in kinds(result):
        assert not trace_kinds & {
            KIND_SPEC_ACCESS,
            KIND_SPEC_IFETCH,
            KIND_PORT_BUSY,
            KIND_MSHR_EXHAUST,
        }


def test_mshr_exhaustion_under_invisible_scheme():
    result, div = run_victim("gdmshr", "invisispec-spectre")
    assert div is not None
    assert div.kind == KIND_MSHR_EXHAUST
    lane0, lane1 = kinds(result)
    assert KIND_MSHR_EXHAUST not in lane0  # coalesced: fanout 1
    assert KIND_MSHR_EXHAUST in lane1  # distinct lines: fanout >= capacity


def test_delay_on_miss_issues_no_mshr_demand():
    result, div = run_victim("gdmshr", "dom-nontso")
    assert div is None


def test_girs_ifetch_timing_under_invisispec():
    result, div = run_victim("girs", "invisispec-spectre")
    assert div is not None
    assert div.kind == KIND_SPEC_IFETCH


def test_icache_protection_silences_girs():
    result, div = run_victim("girs", "safespec-wfb")
    assert div is None


def test_stt_gates_tainted_transmitter():
    result, div = run_victim("gdnpeu", "stt")
    assert div is None


def test_stt_misses_architectural_secret():
    result, div = run_victim("gdnpeu-architectural", "stt")
    assert div is not None
    assert div.kind == KIND_PORT_BUSY


def test_priority_shields_every_builtin_victim():
    for name in ("gdnpeu", "gdmshr", "girs", "gdnpeu-arith"):
        result, div = run_victim(name, "priority")
        assert div is None, name


def test_dynamic_latency_defeats_value_prediction():
    result, div = run_victim("gdnpeu-arith", "dom-nontso-vp")
    assert div is not None
    assert div.kind == KIND_PORT_BUSY


def test_cleanupspec_rolls_back_fills_but_access_was_seen():
    spec = victim_by_name("gdnpeu")
    executor = SymniExecutor.for_victim(spec, model_for("cleanupspec"))
    result = executor.run()
    div = first_divergence(result.traces, result.assignments)
    assert div is not None
    assert div.kind == KIND_SPEC_ACCESS
