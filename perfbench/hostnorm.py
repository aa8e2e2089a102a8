"""Host-speed normalisation.

This host's speed drifts by tens of percent between identical passes,
and neither process CPU time nor steal time tracks the drift.  So every
program call is bracketed by a fixed pure-Python *reference slice* (a
few milliseconds of interpreter work that touches no program state),
and the call's host time is rescaled by the mean of the two slices
around it: ``normalised = call_s * NOMINAL_SLICE_S / mean(slices)``.
A normalised second is a second on a host where one slice takes
exactly :data:`NOMINAL_SLICE_S`.

This module imports nothing from the program, so a fresh interpreter
can time a slice before ``import repro``.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import time
from typing import Dict, List

#: Iterations of each half of a slice (about 2 ms each on a 2-vCPU Xeon).
LOOP_ITERS = 3100
HEAP_ITERS = 1400

#: Objects in the heap half's working set: enough to spill out of the
#: per-core caches, as the simulator's object graph does.
HEAP_CELLS = 8192

#: Host seconds one slice is defined to take after normalisation.
NOMINAL_SLICE_S = 0.004


class _Cell:
    __slots__ = ("tag", "age", "link")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.age = 0
        self.link = None

    def touch(self, cycle: int) -> int:
        self.age = cycle
        return self.tag


def _loop_work(iters: int) -> int:
    """Interpreter-bound half: attribute access, method calls, small-int
    arithmetic, dict stores and a short queue over a few objects."""
    cells = [_Cell(i) for i in range(64)]
    index: Dict[int, tuple] = {}
    queue: List[int] = []
    acc = 0
    for i in range(iters):
        cell = cells[(acc ^ i) & 63]
        acc = (acc * 1103515245 + cell.touch(i)) & 0xFFFF
        index[acc & 511] = (i, acc)
        queue.append(acc)
        if len(queue) > 32:
            acc ^= queue.pop(0)
    return acc + len(index)


#: The heap half's working set, built once per process so that no slice
#: asks the operating system for fresh memory: in a fresh interpreter
#: that alone doubled a slice's time.
_HEAP = [_Cell(i) for i in range(HEAP_CELLS)]
_HEAP_INDEX: Dict[int, tuple] = dict.fromkeys(range(2 * HEAP_CELLS), ())


def _heap_work(iters: int) -> int:
    """Memory-bound half: the same operations scattered over a large
    working set, plus short-lived objects."""
    cells, index = _HEAP, _HEAP_INDEX
    recent: List[_Cell] = []
    acc = 0
    for i in range(iters):
        cell = cells[(acc * 7919 + i) & (HEAP_CELLS - 1)]
        acc = (acc * 1103515245 + cell.touch(i)) & 0xFFFFF
        index[acc & (2 * HEAP_CELLS - 1)] = (i, acc)
        fresh = _Cell(acc)
        fresh.link = (i, acc)
        recent.append(fresh)
        if len(recent) > 256:
            recent = recent[128:]
    return acc + len(recent)


def reference_slice() -> float:
    """Run one reference slice with GC off; return its host seconds.

    This host has slow spells of two kinds: some slow interpreter-bound
    loops more than the simulator, others slow memory-bound code more.
    Timed beside Table 1 cells, Fig. 12 kernels and batch groups, either
    half alone tracked the simulator less well than both together."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop_work(LOOP_ITERS)
        _heap_work(HEAP_ITERS)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def normalise(call_s: float, slice_before_s: float, slice_after_s: float) -> float:
    """Rescale ``call_s`` host seconds by the slices around the call."""
    if slice_before_s <= 0 or slice_after_s <= 0:
        raise ValueError("reference slices must take positive time")
    return call_s * NOMINAL_SLICE_S / ((slice_before_s + slice_after_s) / 2)


def per_call_median(samples: Dict[str, List[float]]) -> float:
    """Sum over calls of each call's median time across passes.

    A run may stop part-way through a later pass; taking each call's
    median before summing keeps the total a whole pass regardless."""
    return sum(statistics.median(values) for values in samples.values())


def host_info() -> Dict[str, str]:
    """CPU model, CPU count, and interpreter/numpy versions."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "cpu_model": model,
        "nproc": str(os.cpu_count() or 1),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
