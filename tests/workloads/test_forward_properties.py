"""Generator soundness for the forward-interference gadget family.

:func:`repro.workloads.random_forward_gadget` promises two properties
for *every* seed and config:

* the built program is valid — :class:`~repro.isa.program.Program`'s
  ``__post_init__`` validation accepts it (labels resolve, registers
  are defined before use, the victim branch exists);
* the static detector flags it —
  :func:`repro.staticcheck.detectors.detect_forward_interference`
  reports the family, because the generated window always contains an
  op tainted by the speculative secret load sharing a port with an
  older plausibly-pending instruction.

Property-tested here so the gadget-synthesis direction (ROADMAP) can
trust the generator as a corpus source without per-sample vetting.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.isa.instructions import OpClass
from repro.staticcheck.analyzer import analyze_victim
from repro.staticcheck.report import FAMILY_FORWARD, Severity
from repro.workloads import ForwardGadgetConfig, random_forward_gadget

configs = st.builds(
    ForwardGadgetConfig,
    max_prelude=st.integers(min_value=0, max_value=8),
    max_followers=st.integers(min_value=0, max_value=8),
    max_junk=st.integers(min_value=0, max_value=6),
    min_pending_latency=st.integers(min_value=5, max_value=10),
    max_latency=st.integers(min_value=12, max_value=80),
)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), config=configs)
def test_generated_program_is_valid(seed, config):
    """Program.__post_init__ ran without raising (construction IS the
    validation), and the spec is victim-shaped: a resolvable branch
    slot with a window behind it."""
    spec = random_forward_gadget(seed, config)
    program = spec.program
    assert 0 <= spec.branch_slot < len(program)
    assert program.at(spec.branch_slot).opclass is OpClass.BRANCH
    assert program.at(len(program) - 1).opclass is OpClass.HALT
    # The mispredicted path must contain the tainted contender.
    names = [inst.name for inst in program]
    assert "fwd contender" in names
    assert names.index("fwd contender") > spec.branch_slot


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), config=configs)
def test_generated_gadget_is_always_flagged(seed, config):
    """Soundness against the static detector: every generated gadget
    carries a forward-interference finding pairing the younger tainted
    contender with the older pending op on the same port."""
    spec = random_forward_gadget(seed, config)
    report = analyze_victim(spec)
    forward = [f for f in report.findings if f.family == FAMILY_FORWARD]
    assert forward, report.render()
    assert all(f.severity in tuple(Severity) for f in forward)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_generator_is_deterministic(seed):
    """Same seed, same gadget — byte-for-byte identical instruction
    stream (the corpus must be reproducible from seeds alone)."""
    a = random_forward_gadget(seed)
    b = random_forward_gadget(seed)
    assert a.name == b.name
    assert len(a.program) == len(b.program)
    for ia, ib in zip(a.program, b.program, strict=False):
        assert ia.name == ib.name
        assert ia.opclass is ib.opclass
        assert ia.latency == ib.latency
        assert ia.port == ib.port
        assert ia.srcs == ib.srcs
