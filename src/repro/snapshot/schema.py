"""State-layout versioning for persisted artifacts.

The five memory components — :class:`CacheHierarchy`, :class:`Cache`,
:class:`MSHRFile`, :class:`CoherenceDirectory` and :class:`MainMemory`
— keep a ``capture()``/``restore()`` pair: every batch lane is a fresh
hierarchy restored from its leader's capture, lane 0's final capture
must equal the leader's, and snapshot handles fingerprint it.  Each
declares two class attributes:

* ``SNAP_VERSION`` — an integer bumped whenever the *meaning* of its
  capture tuple changes without the field list changing;
* ``SNAP_SCHEMA`` — the ordered tuple of field names its ``capture()``
  emits.

:func:`state_schema_hash` folds all of them into one digest.  The
content-addressed trial cache keys on it, and snapshot handles record
it, so a change to the captured layout turns stale entries into misses
and makes old handles refuse to load.  It is a *layout* hash, not a
behaviour hash: a change to simulator logic that keeps every layout
leaves it unchanged, so such a change needs a fresh trial-cache
directory.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

#: Memoized digest (the component schemas are class-level constants, so
#: one computation per process is exact).
_CACHED_HASH: Optional[str] = None


def _component_classes() -> List[type]:
    """Every class with a captured state layout, in a fixed order.
    Imported lazily so this module stays importable from pool workers
    without dragging the whole simulator in at import time."""
    from repro.memory.cache import Cache
    from repro.memory.coherence import CoherenceDirectory
    from repro.memory.hierarchy import CacheHierarchy
    from repro.memory.main_memory import MainMemory
    from repro.memory.mshr import MSHRFile

    return [CacheHierarchy, Cache, MSHRFile, CoherenceDirectory, MainMemory]


def schema_components() -> Tuple[Tuple[str, int, Tuple[str, ...]], ...]:
    """(class name, SNAP_VERSION, SNAP_SCHEMA) for every component."""
    return tuple(
        (cls.__name__, cls.SNAP_VERSION, tuple(cls.SNAP_SCHEMA))
        for cls in _component_classes()
    )


def state_schema_hash() -> str:
    """Hex digest identifying the captured state layout of this build."""
    global _CACHED_HASH
    if _CACHED_HASH is None:
        payload = repr(schema_components()).encode()
        _CACHED_HASH = hashlib.sha256(payload).hexdigest()[:16]
    return _CACHED_HASH
