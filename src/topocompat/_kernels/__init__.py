"""Kernel backend selection.

The compiled extension (``_ckernels``, built from the hand-written
``_ckernels.c``) covers graphs of order <= 64, where adjacency bitmasks fit
machine words.  Larger graphs, or
environments without the extension, use the pure-Python twin.  Set
``TOPO_COMPAT_PURE=1`` to force the pure backend (useful for benchmarking
and debugging); both backends return identical results, and
:func:`active_backend` names the one in use.
"""

from __future__ import annotations

import os

from . import pykernels
from .pykernels import BUDGET_EXCEEDED, EXHAUSTED, FOUND

__all__ = [
    "FOUND",
    "EXHAUSTED",
    "BUDGET_EXCEEDED",
    "COMPILED_MAX_ORDER",
    "active_backend",
    "kernels_for",
    "pykernels",
]

COMPILED_MAX_ORDER = 64

if os.environ.get("TOPO_COMPAT_PURE", "") in ("", "0"):
    try:
        from . import _ckernels
    except ImportError:
        _ckernels = None
else:
    _ckernels = None


def active_backend() -> str:
    return "compiled" if _ckernels is not None else "pure"


def kernels_for(order: int):
    """Backend module for a search over a graph of the given order."""
    if _ckernels is not None and order <= COMPILED_MAX_ORDER:
        return _ckernels
    return pykernels
