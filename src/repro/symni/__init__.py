"""Bounded symbolic noninterference checking, cross-validated.

``repro.symni`` answers, per (victim, scheme) pair, the question the
static detectors only approximate: *does any pair of secret values
produce attacker-distinguishable executions under this scheme's
visibility model?*  It explores the program symbolically (one lane per
secret assignment, lockstep), compares abstract observable traces, and
grounds every counterexample in the cycle-level simulator — a dirty
verdict that does not reproduce dynamically becomes an explicit
abstraction-gap record, never a silent drop.

Layering: ``symni`` sits above ``isa``/``staticcheck``/``runner`` and
is imported by the ``staticcheck`` CLI only at function level (the
``--symni`` cross-validation mode); nothing below imports it.
"""

from repro.core.matrix import leak_signals
from repro.symni.checker import (
    STATUS_CLEAN,
    STATUS_CONFIRMED,
    STATUS_GAP,
    STATUS_UNVERIFIED,
    VERDICT_STATUSES,
    SchemeVerdict,
    check_matrix,
    check_victim,
)
from repro.symni.counterexample import Counterexample, minimize_counterexample
from repro.symni.executor import CheckBounds, ExecutionResult, SymniExecutor
from repro.symni.model import (
    LoadPolicy,
    SchemeModel,
    all_models,
    model_for,
    model_from_scheme,
    resolve_model,
)
from repro.symni.observables import (
    OBSERVATION_KINDS,
    Divergence,
    ObservableTrace,
    Observation,
    first_divergence,
)
from repro.symni.replay import ReplayResult, replay_counterexample
from repro.symni.report import NoninterferenceReport, verdict_dict

__all__ = [
    "STATUS_CLEAN",
    "STATUS_CONFIRMED",
    "STATUS_GAP",
    "STATUS_UNVERIFIED",
    "VERDICT_STATUSES",
    "SchemeVerdict",
    "check_matrix",
    "check_victim",
    "Counterexample",
    "minimize_counterexample",
    "CheckBounds",
    "ExecutionResult",
    "SymniExecutor",
    "LoadPolicy",
    "SchemeModel",
    "all_models",
    "model_for",
    "model_from_scheme",
    "resolve_model",
    "OBSERVATION_KINDS",
    "Divergence",
    "ObservableTrace",
    "Observation",
    "first_divergence",
    "ReplayResult",
    "replay_counterexample",
    "leak_signals",
    "NoninterferenceReport",
    "verdict_dict",
]
