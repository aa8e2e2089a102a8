"""Optional numpy dependency gate for the batched engine.

numpy is a *runtime* extra (``pip install repro[batch]``), not a hard
dependency: every entry point in :mod:`repro.batch` degrades to "no
batch groups" when it is absent, and the sweep runner's specs fall
through to the relabel/cold layers.  Code that genuinely needs the
arrays calls :func:`require_numpy` and gets an actionable ImportError.
"""

from __future__ import annotations

from typing import Any

try:  # pragma: no cover - exercised via HAVE_NUMPY in both states
    import numpy as _numpy
except ImportError:  # pragma: no cover - CI tests job runs without numpy
    _numpy = None  # type: ignore[assignment]

#: The numpy module, or None when unavailable.  Typed ``Any`` so the
#: strict-mypy batch modules work with or without numpy stubs installed.
np: Any = _numpy

HAVE_NUMPY: bool = np is not None


def require_numpy() -> Any:
    """Return numpy or raise an ImportError naming the extra."""
    if np is None:
        raise ImportError(
            "repro.batch requires numpy; install it with "
            "'pip install repro[batch]'.  (Without numpy, sweeps fall "
            "through to the relabel and cold paths.)"
        )
    return np
