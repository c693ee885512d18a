"""Immutable simple undirected graphs with distance machinery.

Vertices are the integers 0..n-1.  Graphs are simple (no self-loops, no
parallel edges) and never mutated after construction, so instances can be
shared freely across threads.

Adjacency is stored once, as a sorted neighbor tuple per vertex; edges,
lookups, equality and hashing derive from it, and per-vertex bitmasks
(arbitrary-width ints) are built lazily for the search kernels.

The central transform here is :func:`graph_power`: connecting every pair of
vertices whose distance in the original graph is at most a given reachability.
Each vertex's ball minus the vertex becomes its neighbor tuple directly, with
no edge list.  Up to order 4096 all balls are grown at once as bitmasks, one
round per unit of reach, and each row is read off its mask in ascending order;
above it every vertex gets its own BFS, because all masks at once would take
n^2/8 bytes (512 MB at order 65536), which loses to the BFS on sparse graphs.
A power with more edges than H_20 is refused as its rows are counted.

:func:`largest_ball` (the star potential) brackets first: no ball is larger
than the Moore bound of the maximum degree, nor than the largest component,
and one BFS that meets the smaller of the two bounds is the answer.  Only
otherwise does it size every ball, on the same two paths, against a
deadline.
"""

from __future__ import annotations

import math
import re
import time
from bisect import bisect_left
from collections import deque
from functools import reduce
from operator import or_
from typing import Iterable, List, Optional, Tuple

from .errors import BudgetExceeded, InvalidEdge, InvalidParameter, InvalidReachability, InvalidVertex

__all__ = [
    "Graph",
    "from_edge_list",
    "diameter",
    "graph_power",
    "is_bipartite",
    "component_color_classes",
    "largest_ball",
]

# Largest order whose transforms grow every ball at once as bitmasks, which
# take n^2/8 bytes (2 MB here); see the module docstring.
_BALL_MASK_MAX_ORDER = 4096

# Most edges a transform may have: those of H_20, the cap topologies.complete
# uses too.  Rows hold 16 bytes of pointers per edge, 168 MB at the cap.
_POWER_MAX_EDGES = 20 << 19


class Graph:
    """A simple undirected graph on vertices 0..n-1."""

    __slots__ = ("_n", "_neighbors", "_masks")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        if n < 1:
            raise InvalidParameter(f"graph order must be positive, got {n}")
        adj = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n):
                raise InvalidVertex(f"vertex {u} out of range 0..{n - 1}")
            if not (0 <= v < n):
                raise InvalidVertex(f"vertex {v} out of range 0..{n - 1}")
            if u == v:
                raise InvalidEdge(f"self-loop at vertex {u}")
            adj[u].append(v)
            adj[v].append(u)
        self._n = n
        self._neighbors = tuple(tuple(sorted(set(nbrs))) for nbrs in adj)
        self._masks: Optional[Tuple[int, ...]] = None

    @classmethod
    def _from_neighbors(cls, neighbors: Tuple[Tuple[int, ...], ...]) -> "Graph":
        """Wrap already valid adjacency: sorted, symmetric, loop-free tuples."""
        g = cls.__new__(cls)
        g._n, g._neighbors, g._masks = len(neighbors), neighbors, None
        return g

    @property
    def order(self) -> int:
        return self._n

    @property
    def edges(self) -> frozenset:
        """Edge set as frozenset of (u, v) pairs with u < v."""
        return frozenset(self.sorted_edges())

    @property
    def num_edges(self) -> int:
        return sum(map(len, self._neighbors)) // 2

    def neighbors(self, v: int) -> Tuple[int, ...]:
        self._check_vertex(v)
        return self._neighbors[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._neighbors[v])

    def max_degree(self) -> int:
        return max(len(nbrs) for nbrs in self._neighbors)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        nbrs = self._neighbors[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def adjacency_masks(self) -> Tuple[int, ...]:
        """Per-vertex neighbor bitmasks (bit v of mask u set iff u ~ v).

        Built on first use and cached; the arbitrary-width Python ints work
        for any order, and fit machine words for n <= 64 where the compiled
        search kernels apply.
        """
        if self._masks is None:
            self._masks = tuple(sum(1 << v for v in nbrs) for nbrs in self._neighbors)
        return self._masks

    def sorted_edges(self) -> list:
        """Edges as (u, v) pairs with u < v, in lexicographic order."""
        return [(u, v) for u, nbrs in enumerate(self._neighbors) for v in nbrs if v > u]

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise InvalidVertex(f"vertex {v} out of range 0..{self._n - 1}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._neighbors == other._neighbors

    def __hash__(self) -> int:
        return hash(self._neighbors)

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.num_edges})"


def from_edge_list(n: int, edges: Iterable[Tuple[int, int]]) -> Graph:
    """Build a graph from an order and edge pairs.

    Duplicate pairs and reversed duplicates collapse to one edge.  Raises
    InvalidVertex for endpoints outside 0..n-1 and InvalidEdge for self-loops.
    It repeats the ``Graph`` constructor and stays public only because the
    benchmark's tracer (``perfbench/tracing.py``) imports it.
    """
    return Graph(n, edges)


def _bfs_levels(g: Graph, source: int, cutoff: Optional[int] = None) -> dict:
    """Distances from source by BFS, optionally stopping at depth cutoff."""
    dist = {source: 0}
    queue = deque([source])
    nbrs = g._neighbors
    while queue:
        u = queue.popleft()
        du = dist[u]
        if cutoff is not None and du >= cutoff:
            continue
        for w in nbrs[u]:
            if w not in dist:
                dist[w] = du + 1
                queue.append(w)
    return dist


def diameter(g: Graph) -> "int | float":
    """Largest finite distance; ``math.inf`` when the graph is disconnected."""
    n = g.order
    worst = 0
    for s in range(n):
        dist = _bfs_levels(g, s)
        if len(dist) < n:
            return math.inf
        ecc = max(dist.values())
        if ecc > worst:
            worst = ecc
    return worst


def graph_power(g: Graph, reach: int, deadline: Optional[float] = None) -> Graph:
    """Reachability transform: connect every pair at distance 1..reach.

    The vertex set is unchanged.  reach=1 is the identity and returns the
    input instance (graphs are immutable).  reach=0 is rejected: the edgeless
    transform has no use downstream and would leak degenerate cases into the
    embedding engine.

    Up to order 4096 the rows come from bitmask balls grown all at once
    (:func:`_ball_masks`); above it, from one BFS per vertex, because all the
    masks would take n^2/8 bytes.  The result is the same either way.  A
    power with more than ``_POWER_MAX_EDGES`` edges raises InvalidParameter:
    the mask path counts them by popcount before any row is made, the BFS
    path as each row is made.  Each mask round or BFS checks the optional
    monotonic ``deadline`` and raises BudgetExceeded past it.
    """
    if reach < 1:
        raise InvalidReachability(f"reachability must be >= 1, got {reach}")
    if reach == 1:
        return g
    if g.order <= _BALL_MASK_MAX_ORDER:
        balls = _ball_masks(g, reach, deadline, "reachability transform")
        # below the cap at the default orders (K_4096 has 8,386,560 edges),
        # but it keeps the cap true whichever constant moves
        _check_power_entries(sum(b.bit_count() for b in balls) - g.order, reach)
        return Graph._from_neighbors(_rows_of(balls))
    rows, entries = [], 0
    for s in range(g.order):
        _check_deadline(deadline, "reachability transform")
        ball = _bfs_levels(g, s, cutoff=reach)
        entries += len(ball) - 1
        _check_power_entries(entries, reach)
        # a ball minus its center is exactly the vertices at distance 1..reach
        rows.append(tuple(sorted(v for v in ball if v != s)))
    return Graph._from_neighbors(tuple(rows))


def _check_power_entries(entries: int, reach: int) -> None:
    """Refuse a power whose rows hold ``entries`` > twice the edge cap."""
    if entries > 2 * _POWER_MAX_EDGES:
        raise InvalidParameter(f"the reach-{reach} transform has more than {_POWER_MAX_EDGES} "
                               f"edges, the cap (the edges of H_20)")


def _check_deadline(deadline: Optional[float], what: str) -> None:
    """Raise BudgetExceeded naming the pass ``what`` once past ``deadline``."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded(f"{what} ran out of time budget")


def _ball_masks(g: Graph, reach: int, deadline: Optional[float], what: str) -> List[int]:
    """Every vertex's closed reach-ball as a bitmask (bit u set iff dist <= reach).

    Round d sets ball_d(v) = ball_{d-1}(v) | OR of ball_{d-1}(u) over u ~ v,
    reading only the previous round's list, so at most two rounds of masks
    are alive at once.  A round that changes nothing leaves every ball a
    whole component, so later rounds are skipped.  Each round first checks
    the optional monotonic ``deadline`` and raises BudgetExceeded, naming the
    pass ``what``, past it.
    """
    nbrs = g._neighbors
    balls = [1 << v for v in range(g.order)]
    for _ in range(reach):
        _check_deadline(deadline, what)
        prev, get = balls, balls.__getitem__
        balls = [reduce(or_, map(get, nb), ball) for ball, nb in zip(prev, nbrs)]
        if balls == prev:
            break
    return balls


def _rows_of(balls: List[int]) -> Tuple[Tuple[int, ...], ...]:
    """Neighbor tuples of the power graph, emptying ``balls`` as it goes.

    Character i of the reversed binary string is bit i, so its ``1``s come
    out in ascending order and each row is sorted without a sort.  Every row
    indexes one shared tuple of vertex ids instead of allocating fresh ints,
    and each ball is dropped as soon as its row is out, so peak memory stays
    near one set of masks.
    """
    ids = tuple(range(len(balls)))
    ones = re.compile("1").finditer
    rows = []
    for v in range(len(balls)):
        bits = bin(balls[v] ^ (1 << v))[:1:-1]
        balls[v] = None
        rows.append(tuple([ids[m.start()] for m in ones(bits)]))
    return tuple(rows)


def component_color_classes(g: Graph) -> List[Tuple[int, Optional[Tuple[int, int]]]]:
    """Per connected component: its order, and its 2-coloring class sizes.

    Each entry is ``(size, (a, b))`` with ``a >= b`` and ``a + b == size``
    when the component is bipartite, or ``(size, None)`` when it has an odd
    cycle.  A connected component's 2-coloring is unique up to swapping the
    two classes, so the sorted pair is well defined.
    """
    color = [-1] * g.order
    out = []
    for root in range(g.order):
        if color[root] != -1:
            continue
        color[root] = 0
        counts = [1, 0]
        odd = False
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in g._neighbors[u]:
                if color[w] == -1:
                    color[w] = color[u] ^ 1
                    counts[color[w]] += 1
                    queue.append(w)
                elif color[w] == color[u]:
                    odd = True
        a, b = max(counts), min(counts)
        out.append((a + b, None if odd else (a, b)))
    return out


def is_bipartite(g: Graph) -> bool:
    """True iff the graph has no odd cycle (BFS 2-coloring, per component)."""
    return all(classes is not None for _, classes in component_color_classes(g))


def largest_ball(
    g: Graph, reach: int, deadline: Optional[float] = None
) -> Tuple[int, Tuple[int, ...]]:
    """The first center of a largest reach-ball, and the ball's other
    vertices in ascending order, without building the power graph.

    These are the first vertex of maximum degree in the reach-th power and
    its neighbours there.  One BFS that meets the bound of
    :func:`_ball_by_bound` decides it; otherwise the ball sizes come from the
    same size-selected path as :func:`graph_power` (a popcount over the ball
    masks up to order 4096, a BFS per vertex above), then one more BFS lists
    the ball.  That pass checks the optional monotonic ``deadline`` once per
    mask round or once per BFS, and raises BudgetExceeded past it.
    """
    if reach < 0:
        raise InvalidReachability(f"reachability must be >= 0, got {reach}")
    found = _ball_by_bound(g, reach)
    return found if found is not None else _largest_ball_pass(g, reach, deadline)


def _ball_by_bound(g: Graph, reach: int) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """:func:`largest_ball`'s answer when one BFS meets the upper bound
    U = min(M, C) on every ball, else None.

    M is the Moore bound 1 + D * sum((D - 1)^i, i < reach) for maximum degree
    D (Hoffman & Singleton 1960), capped at the order; C is the order of the
    largest component.  When M < C, M is uncapped and a vertex of lower
    degree has a ball below it, so the probe is the first vertex of degree D.
    Otherwise it is the first vertex of the first largest component, and
    every smaller id lies in a smaller component.  Either way a probe whose
    ball reaches U is the first center of a largest ball.
    """
    if reach == 0:  # every ball is its center alone, which M = 1 does not rank
        return 0, ()
    degrees = list(map(len, g._neighbors))
    top = max(degrees)
    moore = _moore_bound(top, reach, g.order)
    largest = _largest_component(g, moore)
    probe, bound = (degrees.index(top), moore) if largest is None else largest
    ball = _bfs_levels(g, probe, cutoff=reach)
    if len(ball) < bound:
        return None
    return probe, tuple(sorted(v for v in ball if v != probe))


def _moore_bound(degree: int, reach: int, cap: int) -> int:
    """min(cap, 1 + degree * sum((degree - 1)^i, i < reach)), summed only
    until it reaches cap, so a huge reach costs at most cap terms."""
    total, layer = 1, degree
    for _ in range(reach):
        if total >= cap or not layer:
            break
        total += layer
        layer *= degree - 1
    return min(total, cap)


def _largest_component(g: Graph, above: int) -> Optional[Tuple[int, int]]:
    """(first vertex, order) of the first largest component, or None as
    soon as some component has more than ``above`` vertices.

    Components are swept from each unseen vertex in ascending order, so
    each sweep starts at its component's smallest id.
    """
    nbrs = g._neighbors
    seen = bytearray(g.order)
    best = (0, 0)
    for root in range(g.order):
        if seen[root]:
            continue
        seen[root], stack, size = 1, [root], 1
        while stack:
            for w in nbrs[stack.pop()]:
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
                    size += 1
            if size > above:
                return None
        if size > best[1]:
            best = (root, size)
    return best


def _largest_ball_pass(
    g: Graph, reach: int, deadline: Optional[float] = None
) -> Tuple[int, Tuple[int, ...]]:
    """:func:`largest_ball` from every ball's size, with no bound."""
    if g.order <= _BALL_MASK_MAX_ORDER:
        sizes = [b.bit_count() for b in _ball_masks(g, reach, deadline, "largest-ball pass")]
    else:
        sizes = []
        for s in range(g.order):
            _check_deadline(deadline, "largest-ball pass")
            sizes.append(len(_bfs_levels(g, s, cutoff=reach)))
    center = sizes.index(max(sizes))
    return center, tuple(sorted(v for v in _bfs_levels(g, center, cutoff=reach) if v != center))
