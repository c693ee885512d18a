"""Kernel backend selection.

The compiled extension (``_ckernels``, built from the hand-written
``_ckernels.c``) covers graphs of order <= 64, where adjacency bitmasks fit
machine words.  Larger graphs, or a process that cannot load the extension
(a tree without an in-place build, say), use the pure-Python twin.  The
choice reads nothing but those two facts: to run the pure kernels in a tree
built in place, delete the extension's ``.so``.  Both backends return
identical results, and :func:`active_backend` names the one in use.
"""

from __future__ import annotations

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

try:
    from . import _ckernels
except ImportError:
    _ckernels = None


def active_backend() -> str:
    return "compiled" if _ckernels is not None else "pure"


def kernels_for(order: int):
    """Backend module for a search over a graph of the given order."""
    if _ckernels is not None and order <= COMPILED_MAX_ORDER:
        return _ckernels
    return pykernels
