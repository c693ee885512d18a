"""Exception hierarchy shared across the package, and the base of its value types."""


class TopoCompatError(Exception):
    """Base class for all errors raised by this package."""


class InvalidVertex(TopoCompatError):
    """A vertex id is outside the graph's 0..n-1 range."""


class InvalidEdge(TopoCompatError):
    """An edge is malformed (self-loop)."""


class InvalidParameter(TopoCompatError):
    """A topology parameter is outside its legal range."""


class InvalidReachability(TopoCompatError):
    """The reachability passed to the power transform is not a positive integer."""


class InvalidPotential(TopoCompatError):
    """A potential/order pair does not satisfy 0 <= p <= n."""


class HostTooLarge(TopoCompatError):
    """The host graph exceeds the search budget's order cap."""


class BudgetExceeded(TopoCompatError):
    """A search ran out of node or time budget; the result is unknown."""


class EdgeListFormatError(TopoCompatError):
    """An edge-list file does not follow the `n m` / `u v` text format."""


class _FrozenRecord:
    """Immutable value over the attributes named in ``_fields``.

    Equality (same class only), hashing and ``Name(field=value, ...)`` reprs
    are those of a frozen dataclass, without importing ``dataclasses``: that
    module loads ``inspect``, and its decorator generates code through
    ``exec``, together about 10 ms of every CLI process's start-up (2-vCPU
    Xeon, Python 3.11).  Fields live in the instance ``__dict__``, so pickle
    and copy restore them without calling ``__setattr__``.
    """

    _fields: tuple = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
