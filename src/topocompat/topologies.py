"""Generators for the named interconnect and task topologies.

Hypercube vertex ids double as their bit labels: vertex i is adjacent to
vertex j iff i ^ j has exactly one bit set.  That convention makes
Hamming-distance properties directly testable.  A graph that is H_s under
any other labelling is recognized, with its labels, by
:func:`topocompat.graph.hypercube_labels`, so callers can take the closed
forms instead of exponential searches.

A :class:`TopologySpec` names a topology by its kind and one parameter: a
generated kind of ``_GENERATORS`` and its integer, or ``file`` and the path
of an edge-list file.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from . import graph
from .errors import InvalidParameter, _FrozenRecord
from .graph import Graph

__all__ = [
    "hypercube",
    "ring",
    "star",
    "complete",
    "gray_code_cycle",
    "TopologySpec",
    "parse_topology_spec",
]

MAX_HYPERCUBE_DIM = 20  # order cap 2^20


def check_hypercube_dim(s: int, what: str = "hypercube dimension") -> int:
    """s, once it is checked to be an integer in 1..MAX_HYPERCUBE_DIM;
    InvalidParameter, naming it ``what``, otherwise.  The table's reaches
    share the bound, under their own name."""
    graph._check_integer(s, InvalidParameter, what)
    if not (1 <= s <= MAX_HYPERCUBE_DIM):
        raise InvalidParameter(f"{what} must be in 1..{MAX_HYPERCUBE_DIM}, got {s}")
    return s


def hypercube(s: int) -> Graph:
    """The s-dimensional hypercube H_s on 2^s bit-string vertices.

    Vertex v's row is v with each of its s bits flipped, sorted; every entry
    is the one shared int of its vertex id.
    """
    _generated_order("hypercube", s)
    ids = tuple(range(1 << s))
    bits = [1 << k for k in range(s)]
    return Graph._from_neighbors(tuple([tuple(sorted([ids[v ^ b] for b in bits])) for v in ids]))


def _generated_order(kind: str, k: int) -> int:
    """The order of the generated ``kind:k`` (a kind of ``_GENERATORS``), once
    ``k`` is checked; InvalidParameter, before any edge is listed, for a ``k``
    the generator refuses, a non-integer included.  The generators and
    ``TopologySpec.order`` both check here.  K_n's edges are capped with
    every power's, at ``graph._POWER_MAX_EDGES``."""
    if not isinstance(k, int):
        raise InvalidParameter(f"{kind} parameter must be an integer, got {k!r}")
    if kind == "hypercube":
        check_hypercube_dim(k)
        return 1 << k
    name, least = {"ring": ("ring", 3), "star": ("star", 2),
                   "complete": ("complete-graph", 1)}[kind]
    if k < least:
        raise InvalidParameter(f"{name} order must be >= {least}, got {k}")
    if kind == "complete":
        m, cap = k * (k - 1) // 2, graph._POWER_MAX_EDGES
        if m > cap:
            raise InvalidParameter(f"complete graph K_{k} has {m} edges, above the cap {cap} "
                                   "(the edges of H_20)")
    elif k > 1 << MAX_HYPERCUBE_DIM:
        raise InvalidParameter(f"{kind} order {k} exceeds the cap 2^{MAX_HYPERCUBE_DIM}")
    return k


def ring(p: int) -> Graph:
    """The cycle graph C_p: vertex i adjacent to (i +- 1) mod p; p <= 2^20."""
    _generated_order("ring", p)
    ids = tuple(range(p))
    inner = [(ids[i - 1], ids[i + 1]) for i in range(1, p - 1)]
    return Graph._from_neighbors(((1, ids[-1]), *inner, (0, ids[-2])))


def star(p: int) -> Graph:
    """The star K_{1,p-1}: center vertex 0 adjacent to vertices 1..p-1; p <= 2^20."""
    _generated_order("star", p)
    return Graph._from_neighbors((tuple(range(1, p)),) + ((0,),) * (p - 1))


def complete(n: int) -> Graph:
    """The complete graph K_n, with at most as many edges as H_20 (n <= 4579)."""
    _generated_order("complete", n)
    ids = tuple(range(n))
    return Graph._from_neighbors(tuple([ids[:v] + ids[v + 1:] for v in range(n)]))


def gray_code_cycle(s: int) -> Tuple[int, ...]:
    """Reflected-binary Gray sequence: a Hamiltonian cycle witness for H_s.

    Returns all 2^s vertex ids in an order whose consecutive labels, cyclically
    including last back to first, differ in exactly one bit.
    """
    if s < 2:
        raise InvalidParameter(f"hypercube has a Hamiltonian cycle only for s >= 2, got {s}")
    check_hypercube_dim(s)
    return tuple(i ^ (i >> 1) for i in range(1 << s))


# kind -> generator of ``kind:k``, for every kind that a spec generates
_GENERATORS = {"hypercube": hypercube, "ring": ring, "star": star, "complete": complete}


class TopologySpec(_FrozenRecord):
    """Tagged descriptor of a topology: a kind and its one parameter.

    Text syntax (used by the CLI) is ``kind:parameter``: ``hypercube:s``,
    ``ring:p``, ``star:p`` and ``complete:n`` are generated, and
    ``file:PATH`` is read from an edge-list file, its parameter the path.
    """

    _fields = ("kind", "parameter")

    def __init__(self, kind: str, parameter: Union[int, str, None] = None):
        super().__init__(kind, parameter)

    def order(self) -> Optional[int]:
        """The order of a generated topology, its parameter checked as
        ``build()`` checks it; None for a file or an unknown kind, whose
        order ``build()`` finds or refuses."""
        if self.kind in _GENERATORS:
            return _generated_order(self.kind, self.parameter)
        return None

    def build(self) -> Graph:
        if self.kind in _GENERATORS:
            return _GENERATORS[self.kind](self.parameter)
        if self.kind != "file":
            raise InvalidParameter(f"unknown topology kind {self.kind!r}")
        if not isinstance(self.parameter, str) or not self.parameter:
            raise InvalidParameter(f"file path must be a non-empty string, got {self.parameter!r}")
        from .edgelist import read_edge_list_path

        return read_edge_list_path(self.parameter)

    def __str__(self) -> str:
        return f"{self.kind}:{self.parameter}"


def parse_topology_spec(text: str) -> TopologySpec:
    """Parse the ``kind:parameter`` spec syntax."""
    kind, sep, arg = text.partition(":")
    if not sep or not arg:
        raise InvalidParameter(f"expected KIND:ARG topology spec, got {text!r}")
    if kind == "file":
        return TopologySpec(kind, arg)
    if kind in _GENERATORS:
        try:
            value = int(arg)
        except ValueError:
            raise InvalidParameter(f"{kind} parameter must be an integer, got {arg!r}") from None
        return TopologySpec(kind=kind, parameter=value)
    raise InvalidParameter(f"unknown topology kind {kind!r} in {text!r}")
