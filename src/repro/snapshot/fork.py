"""Snapshot/fork trial execution: share the secret-independent prefix.

A sweep group is a set of :class:`~repro.runner.spec.TrialSpec`s that
differ only in ``secret`` (and, when the seed is provably inert, in
``seed``).  Every trial in the group simulates the exact same machine
up to the first cycle in which the secret *value* can influence state:
the secret bit lives at one memory address, every value read goes
through ``CacheHierarchy.access``, and every such access emits a cache
probe event carrying its line address — so the first trace event
touching the secret's line upper-bounds the first secret sampling, and
the end of the previous cycle is a provably secret-independent fork
point.

The executor runs one *probe* trial per group under a cache-kind
tracer, finds that fork point from the probe's own event stream (a
rolling checkpoint bounds the replay needed to land on it exactly),
captures the machine there once, and then finishes each remaining
variant from a restore + a counter-free ``memory.poke`` of its secret.
Differential tests assert the result: forked summaries and traces are
bit-identical to cold-started runs for every scheme.

Seed inertness: with ``noise_rate == 0`` and ``dram_jitter == 0``
(:func:`repro.runner.spec.stream_dependent` is false) the per-trial
seed feeds only RNGs that are never drawn during the run
(the attacker agent's shuffle RNG and the DRAM jitter RNG), so
seed-only variants are synthesized by relabeling — no simulation at
all.  DRAM jitter demotes the group to per-seed sub-groups (the jitter
RNG lives inside the snapshot, so secret forking stays sound); noise
injection disables forking outright, because the injector's RNG lives
outside the machine.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runner.spec import (
    TrialOutcome,
    TrialSpec,
    TrialStatus,
    TrialSummary,
    stream_dependent,
)

#: Cycles between rolling checkpoints during the probe run; bounds the
#: replay needed to land exactly on the fork point.
CHECKPOINT_INTERVAL = 64

#: Minimum group size worth a probe (a singleton gains nothing).
MIN_GROUP = 2


def group_key(spec: TrialSpec) -> str:
    """Digest of the spec with the forkable dimensions normalized out."""
    if stream_dependent(spec):
        return "seeded:" + replace(spec, secret=0).digest()
    return "inert:" + replace(spec, secret=0, seed=0).digest()


def plan_fork_groups(
    specs: Sequence[TrialSpec],
) -> Tuple[List[List[int]], List[int]]:
    """Partition spec indices into forkable groups and a cold remainder.

    Returns ``(groups, passthrough)``: each group is a list of indices
    (probe first, in spec order) whose specs differ only in the
    forkable dimensions; ``passthrough`` indices run on the cold path
    (sanitized trials, singleton groups).
    """
    buckets: Dict[str, List[int]] = {}
    passthrough: List[int] = []
    for i, spec in enumerate(specs):
        if spec.sanitize or spec.noise_rate > 0.0:
            # Sanitized trials install per-instance hook wrappers on
            # the core and scheme; noisy trials drive a NoiseInjector
            # whose private RNG lives outside the machine snapshot.
            # Both stay on the cold path.
            passthrough.append(i)
            continue
        buckets.setdefault(group_key(spec), []).append(i)
    groups: List[List[int]] = []
    for indices in buckets.values():
        if len(indices) >= MIN_GROUP:
            groups.append(indices)
        else:
            passthrough.extend(indices)
    passthrough.sort()
    return groups, passthrough


# ----------------------------------------------------------------------
# group execution
# ----------------------------------------------------------------------
def run_fork_group(specs: Sequence[TrialSpec]) -> Optional[List[TrialOutcome]]:
    """Execute one fork group; outcomes align with ``specs``.

    Returns ``None`` when the probe itself fails — the caller re-runs
    the whole group on the cold path, whose fault isolation reproduces
    the failure as a structured outcome.  A failure in a *forked
    variant* falls back to a cold run of just that spec.
    """
    try:
        return _run_fork_group(list(specs))
    except KeyboardInterrupt:
        raise
    except Exception:
        return None


def _run_fork_group(specs: List[TrialSpec]) -> List[TrialOutcome]:
    from repro.core.victims import victim_by_name
    from repro.runner.runner import run_trial_outcome, summarize_trial
    from repro.trace import Tracer
    from repro.trace.events import CACHE_KINDS, STAGE_KINDS

    probe = specs[0]
    victim = victim_by_name(probe.victim, **dict(probe.victim_kwargs))
    kinds = CACHE_KINDS + STAGE_KINDS if probe.collect_metrics else CACHE_KINDS
    tracer = Tracer(kinds=kinds)
    setup = _begin(probe, victim, tracer)
    secret_line = setup.machine.hierarchy.llc.layout.line_addr(
        victim.secret_addr
    )

    fork_cycle, fork_snap = _probe_to_fork_point(setup, secret_line)
    # Finish the probe itself (from the fork point when one was found:
    # the capture/replay landed the machine exactly there).
    probe_result = _finish(setup, fork_cycle)
    summaries: Dict[Tuple[int, int], TrialSummary] = {
        (probe.secret, probe.seed): summarize_trial(probe, victim, probe_result)
    }

    outcomes: List[Optional[TrialOutcome]] = [None] * len(specs)
    for i, spec in enumerate(specs):
        computed = summaries.get((spec.secret, spec.seed))
        if computed is None and fork_snap is None:
            # The secret was never sampled: the run is secret-
            # independent and (in an inert group) seed-independent, so
            # every variant is a relabel of the probe.
            computed = summaries[(probe.secret, probe.seed)]
        if computed is None:
            base = summaries.get(
                next(
                    (k for k in summaries if k[0] == spec.secret), None
                )
            )
            if base is None:
                base = _run_variant(
                    setup, spec, victim, fork_cycle, fork_snap
                )
                if base is None:
                    # Variant-level fault: isolate via the cold path.
                    outcomes[i] = run_trial_outcome(spec, plan=None)
                    continue
                summaries[(spec.secret, spec.seed)] = base
            computed = base
        if computed.secret != spec.secret or computed.seed != spec.seed:
            # Seed (and, for never-sampled secrets, secret) relabeling:
            # the simulated outcome is provably identical, only the
            # identity label differs.
            computed = replace(
                computed, secret=spec.secret, seed=spec.seed
            )
            summaries[(spec.secret, spec.seed)] = computed
        outcomes[i] = TrialOutcome(
            digest=spec.digest(),
            victim=spec.victim,
            scheme=spec.scheme,
            secret=spec.secret,
            seed=spec.seed,
            status=TrialStatus.OK,
            attempts=1,
            summary=computed,
        )
    return outcomes  # type: ignore[return-value]


def _begin(spec: TrialSpec, victim, tracer):
    from repro.core.harness import begin_victim_trial

    return begin_victim_trial(
        victim,
        spec.scheme,
        spec.secret,
        hierarchy_config=spec.hierarchy_config,
        reference_accesses=spec.reference_accesses,
        noise_rate=spec.noise_rate,
        noise_pool=spec.noise_pool,
        seed=spec.seed,
        max_cycles=spec.max_cycles,
        tracer=tracer,
        extra_lines=spec.extra_lines,
    )


def _probe_to_fork_point(setup, secret_line: int):
    """Run the probe until the secret's line first appears in the event
    stream; land the machine at the end of the previous cycle.

    Returns ``(fork_cycle, snapshot)``, or ``(None, None)`` when the
    probe halted without ever touching the secret line (secret-inert
    run).  On return the machine sits *at* the fork point, captured.
    """
    machine, core = setup.machine, setup.core
    tracer = machine.tracer
    events = tracer.events
    state = {
        "scanned": len(events),
        "hit": False,
        "ckpt_cycle": machine.cycle,
        "ckpt": machine.capture(),
    }

    def predicate() -> bool:
        if core.halted:
            return True
        i = state["scanned"]
        n = len(events)
        while i < n:
            if events[i].arg("line") == secret_line:
                state["scanned"] = i
                state["hit"] = True
                return True
            i += 1
        state["scanned"] = n
        if machine.cycle - state["ckpt_cycle"] >= CHECKPOINT_INTERVAL:
            state["ckpt_cycle"] = machine.cycle
            state["ckpt"] = machine.capture()
        return False

    machine.run(
        until=predicate, max_cycles=setup.max_cycles, fast_forward=True
    )
    if not state["hit"]:
        return None, None
    first_touch = events[state["scanned"]].cycle
    fork_cycle = max(first_touch - 1, state["ckpt_cycle"])
    # Rewind to the checkpoint (at or before the fork point, within one
    # checkpoint interval) and replay up to the fork point exactly.
    machine.restore(state["ckpt"])
    while machine.cycle < fork_cycle and not core.halted:
        machine.step()
    return fork_cycle, machine.capture()


def _finish(setup, fork_cycle: Optional[int]):
    from repro.core.harness import finish_victim_trial

    budget = setup.max_cycles
    if fork_cycle is not None:
        # Same absolute horizon as a cold run: the prefix already spent
        # fork_cycle cycles of the budget.
        budget = setup.max_cycles - fork_cycle
    return finish_victim_trial(setup, max_cycles=budget)


def _run_variant(setup, spec: TrialSpec, victim, fork_cycle, fork_snap):
    """Restore the fork point, swap the secret in, run the suffix."""
    from repro.runner.runner import summarize_trial

    try:
        machine = setup.machine
        machine.restore(fork_snap)
        # poke, not write: the secret swap is the one divergence from
        # the captured state and must not disturb access counters.
        machine.hierarchy.memory.poke(victim.secret_addr, spec.secret)
        setup.secret = spec.secret
        result = _finish(setup, fork_cycle)
        return summarize_trial(spec, victim, result)
    except KeyboardInterrupt:
        raise
    except Exception:
        return None
