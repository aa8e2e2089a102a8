"""Attacker calibration toolkit.

The paper's PoCs rely on offline tuning — "We can trade-off error rate
and bit rate by changing PoC parameters" (§4.4), reference accesses "at
a fixed time after inducing the mis-speculation" (§3.3.1), instruction
selection that "maximizes the interference" (§4.2.1).  This module
packages that tuning: given a scheme (the defended machine the attacker
is probing), it searches victim-gadget parameters until the channel
opens, exactly as an attacker would against unknown hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.harness import run_victim_trial
from repro.core.matrix import MARGIN, line_signal, order_flips
from repro.core.victims import VictimSpec, gdnpeu_victim
from repro.pipeline.scheme_api import SpeculationScheme


@dataclass
class CalibrationResult:
    """Outcome of a parameter search."""

    ok: bool
    spec: Optional[VictimSpec]
    parameter: str
    value: Optional[int]
    tried: List[Tuple[int, str]] = field(default_factory=list)
    t_secret0: Optional[int] = None
    t_secret1: Optional[int] = None

    def describe(self) -> str:
        status = "calibrated" if self.ok else "FAILED"
        tried = ", ".join(f"{v}:{o}" for v, o in self.tried)
        return (
            f"{status} {self.parameter}={self.value} "
            f"(t0={self.t_secret0}, t1={self.t_secret1}; tried {tried})"
        )


def find_reference_cycle(
    spec: VictimSpec,
    scheme: Union[str, SpeculationScheme],
    *,
    line: Optional[int] = None,
    margin: int = MARGIN,
) -> Optional[int]:
    """The VD-AD/VI-AD 'clock' calibration: run the victim with both
    secrets and place the attacker's fixed-time reference access halfway
    between the two observed access times.  None when the monitored
    access does not shift (the scheme is not vulnerable this way)."""
    line = line if line is not None else (
        spec.line_a if spec.line_a is not None else spec.target_iline
    )
    t0 = run_victim_trial(spec, scheme, 0).first_access(line)
    t1 = run_victim_trial(spec, scheme, 1).first_access(line)
    if t0 is None or t1 is None or line_signal(t0, t1, margin) != "shift":
        return None
    return (t0 + t1) // 2


def secret_dependent_order(
    spec: VictimSpec, scheme: Union[str, SpeculationScheme]
) -> bool:
    """Does the A/B order flip with the secret for this spec/scheme?"""
    orders = [
        run_victim_trial(spec, scheme, s).order(spec.line_a, spec.line_b)
        for s in (0, 1)
    ]
    return order_flips(*orders)


def sweep_parameter(
    builder: Callable[..., VictimSpec],
    parameter: str,
    values: Sequence[int],
    scheme: Union[str, SpeculationScheme],
    *,
    check: Optional[Callable[[VictimSpec], bool]] = None,
) -> CalibrationResult:
    """Try ``builder(parameter=v)`` for each value until ``check``
    (default: the VD-VD order flips) passes."""
    check = check or (lambda spec: secret_dependent_order(spec, scheme))
    tried: List[Tuple[int, str]] = []
    for value in values:
        spec = builder(**{parameter: value})
        if check(spec):
            t0 = run_victim_trial(spec, scheme, 0).first_access(spec.line_a)
            t1 = run_victim_trial(spec, scheme, 1).first_access(spec.line_a)
            tried.append((value, "ok"))
            return CalibrationResult(
                ok=True,
                spec=spec,
                parameter=parameter,
                value=value,
                tried=tried,
                t_secret0=t0,
                t_secret1=t1,
            )
        tried.append((value, "no"))
    return CalibrationResult(
        ok=False, spec=None, parameter=parameter, value=None, tried=tried
    )


def tune_gdnpeu_reference_chain(
    scheme: Union[str, SpeculationScheme],
    *,
    g_len_candidates: Sequence[int] = (6, 8, 10, 12, 14, 16, 18, 20),
) -> CalibrationResult:
    """Tune the reference load B's address-generation chain so its
    issue time falls between load A's baseline and interfered times —
    the g(z)-takes-G-cycles requirement of Figure 6."""
    return sweep_parameter(gdnpeu_victim, "g_len", g_len_candidates, scheme)
