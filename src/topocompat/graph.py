"""Immutable simple undirected graphs with distance machinery.

Vertices are the integers 0..n-1.  Graphs are simple (no self-loops, no
parallel edges), and their edges never change after construction, so
instances can be shared freely across threads.

Adjacency is one set of neighbor relations with two views: a sorted
neighbor tuple per vertex, and a bitmask per vertex (arbitrary-width ints)
for the search kernels.  A graph built from edges holds the tuples and makes
the masks on first use; a power on the mask path holds the masks and decodes
the tuples (:func:`_rows_of`) only when something first reads a row.
Lookups, equality and hashing read the tuples; the edge count and the edge
set read whichever view is there.

The central transform here is :func:`graph_power`: connecting every pair of
vertices whose distance in the original graph is at most a given reachability.
Its closed balls come in vertex order from :func:`_balls`, the one place
that chooses among three routes:

- arcs (order <= 4096, maximum degree <= 2): every component is a path or a
  cycle, and each ball is a window of a walk along it, clipped on a path and
  taken round a cycle, that slides one position per vertex
  (:func:`_arc_balls`): O(n) big-int operations at any reach;
- mask rounds (order <= 4096, some degree >= 3): all balls grow at once as
  bitmasks, one round per unit of reach (:func:`_round_balls`), O(reach * m)
  big-int operations, with an early stop once a round changes nothing;
  round 1 comes straight from the rows, and the last round is made as it
  is read, so the star pass, which maps each ball to its popcount as it
  comes, holds one round of masks, not two;
- BFS (order > 4096): one cutoff BFS per vertex, O(n * ball) steps, because
  all masks at once would take n^2/8 bytes (512 MB at order 65536), which
  loses to the BFS on sparse graphs.

On the first two, each ball minus its centre becomes the vertex's adjacency
mask as it is: writing the power (``edgelist.write_edge_list``) makes no
tuple, and ``embed``'s subgraph search gets the masks with no re-encode.  A
ring potential decodes the rows (``embedding._anchor_order``) and relabels
the masks from them.  On the BFS route each ball minus its vertex becomes
its neighbor tuple (:func:`_ball_row`, one per ball from :func:`_bfs_balls`).
A power with more edges than H_20 is refused as its rows are counted (by
popcount on a mask), and from order 4580 on, where even the complete graph
is over that cap, first by a lower bound from the component orders and
neighbour degrees.

The largest ball (``compat.star_potential_certificate``, the star potential)
is bracketed first (:func:`_ball_by_bound`): no ball is larger than the
Moore bound of the maximum degree, nor than the largest component.  A BFS
from the first vertex of maximum degree that meets the Moore bound is the
answer; failing that, a graph that :func:`hypercube_labels` recognizes as
H_s under some labelling has every ball of one size, and the ball of vertex
0 is the answer; failing both, one component sweep gives the largest
component, and a BFS from its first vertex that meets its order is.  Only
otherwise does :func:`_largest_ball_pass` size every ball, by the same three
routes, against a deadline.
"""

from __future__ import annotations

import re
import time
from bisect import bisect_right
from collections import deque
from functools import reduce
from itertools import islice
from operator import index, lt, or_
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetExceeded, InvalidEdge, InvalidParameter, InvalidReachability, InvalidVertex

__all__ = [
    "Graph",
    "from_edge_list",
    "graph_power",
    "hypercube_labels",
]

# Largest order whose transforms grow every ball at once as bitmasks, which
# take n^2/8 bytes (2 MB here); see the module docstring.
_BALL_MASK_MAX_ORDER = 4096

# Most edges a transform may have: those of H_20, the cap topologies.complete
# uses too.  Rows hold 16 bytes of pointers per edge, 168 MB at the cap.
_POWER_MAX_EDGES = 20 << 19


def _check_vertex(v: int, n: int) -> int:
    """v as the int ``operator.index`` gives, once it is checked to be a
    vertex id in 0..n-1; InvalidVertex otherwise."""
    v = _check_integer(v, InvalidVertex, "vertex")
    if not (0 <= v < n):
        raise InvalidVertex(f"vertex {v} out of range 0..{n - 1}")
    return v


def _check_edge(u: int, v: int, n: int) -> Tuple[int, int]:
    """The edge (u, v) on n vertices as the two ints ``Graph`` adds, or the
    error it gives an edge whose ids are not vertices, or a self-loop."""
    u, v = _check_vertex(u, n), _check_vertex(v, n)
    if u == v:
        raise InvalidEdge(f"self-loop at vertex {u}")
    return u, v


class Graph:
    """A simple undirected graph on vertices 0..n-1.

    ``Graph(n, edges)`` builds one from an order and edge pairs: duplicate
    pairs and reversed duplicates collapse to one edge.  Raises InvalidVertex
    for endpoints outside 0..n-1 and InvalidEdge for self-loops.  The order
    and the endpoints are used as the ints ``operator.index`` gives; any
    other value raises InvalidParameter (the order) or InvalidVertex.
    """

    __slots__ = ("_n", "_rows", "_masks")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        n = _check_integer(n, InvalidParameter, "graph order")
        if n < 1:
            raise InvalidParameter(f"graph order must be positive, got {n}")
        adj = [[] for _ in range(n)]
        ids = list(range(n))  # each row entry is the one shared int of its vertex id
        for u, v in edges:
            try:  # free from Python 3.11 on until it raises, so ints keep the fast path
                if not (0 <= u < n and 0 <= v < n and u != v):
                    _check_edge(u, v, n)  # raises: ints that fail the test are no edge
                adj[u].append(ids[v])
                adj[v].append(ids[u])
            except TypeError:  # an id that neither compares nor indexes as an int does
                u, v = _check_edge(u, v, n)
                adj[u].append(ids[v])
                adj[v].append(ids[u])
        for v, row in enumerate(adj):  # in place, so no list outlives its tuple
            # a row that came strictly ascending (a written file's) needs no set or sort
            ascending = all(map(lt, row, islice(row, 1, None)))
            adj[v] = tuple(row) if ascending else tuple(sorted(set(row)))
        self._n = n
        self._rows = tuple(adj)
        self._masks: Optional[Tuple[int, ...]] = None

    @classmethod
    def _from_neighbors(cls, neighbors: Tuple[Tuple[int, ...], ...]) -> "Graph":
        """Wrap already valid adjacency: sorted, symmetric, loop-free tuples."""
        g = cls.__new__(cls)
        g._n, g._rows, g._masks = len(neighbors), neighbors, None
        return g

    @classmethod
    def _from_masks(cls, masks: Tuple[int, ...]) -> "Graph":
        """Wrap already valid adjacency masks: symmetric, no bit v in mask v."""
        g = cls.__new__(cls)
        g._n, g._rows, g._masks = len(masks), None, masks
        return g

    @property
    def _neighbors(self) -> Tuple[Tuple[int, ...], ...]:
        """The neighbor tuples, decoded from the masks on first use.

        Filling is idempotent (every thread decodes the same tuples), so a
        shared graph needs no lock.
        """
        if self._rows is None:
            self._rows = _rows_of(self._masks)
        return self._rows

    @property
    def order(self) -> int:
        return self._n

    @property
    def edges(self) -> frozenset:
        """Edge set as frozenset of (u, v) pairs with u < v."""
        return frozenset((u, v) for u, upper in enumerate(self._upper_rows(range(self._n)))
                         for v in upper)

    @property
    def num_edges(self) -> int:
        if self._rows is None:
            return sum(mask.bit_count() for mask in self._masks) // 2
        return sum(map(len, self._rows)) // 2

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self._neighbors[_check_vertex(v, self._n)]

    def degree(self, v: int) -> int:
        return len(self._neighbors[_check_vertex(v, self._n)])

    def max_degree(self) -> int:
        return max(map(len, self._neighbors))

    def adjacency_masks(self) -> Tuple[int, ...]:
        """Per-vertex neighbor bitmasks (bit v of mask u set iff u ~ v).

        Built from the neighbor tuples on first use and cached, unless the
        graph holds them already (a power on the mask path); the
        arbitrary-width Python ints work for any order, and fit machine words
        for n <= 64 where the compiled search kernels apply.
        """
        if self._masks is None:
            self._masks = tuple(sum(1 << v for v in nbrs) for nbrs in self._rows)
        return self._masks

    def _upper_rows(self, labels: Sequence) -> Iterator[list]:
        """Per vertex u in turn, ``labels[v]`` for each neighbor v > u, ascending.

        A graph held only as masks reads u's off ``mask >> (u + 1)``, whose
        reversed binary string has bit i at character i, so half the bits are
        decoded and no tuple is made; otherwise u's tuple is sliced.
        """
        if self._rows is None:
            ones = re.compile("1").finditer
            for u, mask in enumerate(self._masks):
                yield [labels[u + 1 + m.start()] for m in ones(bin(mask >> (u + 1))[:1:-1])]
        else:
            for u, nbrs in enumerate(self._rows):
                yield list(map(labels.__getitem__, nbrs[bisect_right(nbrs, u):]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._neighbors == other._neighbors

    def __hash__(self) -> int:
        return hash(self._neighbors)

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.num_edges})"


# Graph(n, edges) under the name the benchmark's tracer (``perfbench/tracing.py``) and the
# tests import; the package itself calls ``Graph``
from_edge_list = Graph


def _bfs_levels(g: Graph, source: int, cutoff: int) -> dict:
    """Distances from source by BFS, up to depth cutoff: source's closed
    cutoff-ball, as a dict."""
    dist = {source: 0}
    queue = deque([source])
    nbrs = g._neighbors
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du >= cutoff:
            continue
        for w in nbrs[u]:
            if w not in dist:
                dist[w] = du + 1
                queue.append(w)
    return dist


def graph_power(g: Graph, reach: int, deadline: Optional[float] = None) -> Graph:
    """Reachability transform: connect every pair at distance 1..reach.

    The vertex set is unchanged.  reach=1 is the identity and returns the
    input instance (graphs are immutable).  reach=0 is rejected: the edgeless
    transform has no use downstream and would leak degenerate cases into the
    embedding engine.

    Each vertex's row is its closed ball from :func:`_balls` minus the
    vertex itself, made as the ball is read.  A mask ball (order <= 4096)
    with its centre bit cleared is the power's adjacency mask for that
    vertex: the result holds those masks and makes no neighbor tuple until
    one is read.  A BFS ball (above order 4096, where all the masks would
    take n^2/8 bytes) becomes its neighbor tuple.  The result is the same on
    every route.  A power with more than ``_POWER_MAX_EDGES`` edges raises
    InvalidParameter as its rows are counted, before any is handed on; when
    even the complete graph on g's vertices is over the cap,
    :func:`_power_entries_floor` is checked first, before any ball is made.
    The optional monotonic ``deadline`` is read as :func:`_balls` says, and
    BudgetExceeded is raised past it.
    """
    reach = _check_reach(reach)
    if reach == 1:
        return g
    if g.order * (g.order - 1) > 2 * _POWER_MAX_EDGES:  # else no power can pass the cap
        _check_power_entries(_power_entries_floor(g, reach), reach)
    rows, entries = [], 0
    for v, ball in enumerate(_balls(g, reach, deadline, "reachability transform")):
        if type(ball) is dict:
            row = _ball_row(ball, v)
            entries += len(row)
        else:  # a mask: the row is the ball without bit v
            row = ball ^ 1 << v
            entries += row.bit_count()
        _check_power_entries(entries, reach)
        rows.append(row)
    rows = tuple(rows)
    return Graph._from_neighbors(rows) if type(row) is tuple else Graph._from_masks(rows)


def _check_integer(value, error: type, what: str) -> int:
    """The library's one integer test: ``operator.index(value)``, the int
    its caller computes with from then on, for an int or a type that acts
    as one (a numpy integer, say); ``error``, naming the value ``what``,
    for a value that ``operator.index`` refuses, whatever its value (a
    float, a str or a Fraction, say)."""
    try:
        return index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def _check_reach(reach: int) -> int:
    """reach as a checked int; InvalidReachability for one that is not an
    integer, or is below 1, for the transform and every potential."""
    reach = _check_integer(reach, InvalidReachability, "reachability")
    if reach < 1:
        raise InvalidReachability(f"reachability must be >= 1, got {reach}")
    return reach


def _ball_row(ball: dict, v: int) -> Tuple[int, ...]:
    """v's row in a power: its closed ball ``ball`` (a :func:`_bfs_levels`
    dict, which loses v here) minus v, ascending."""
    del ball[v]
    return tuple(sorted(ball))


def _bfs_balls(g: Graph, reach: int, deadline: Optional[float], what: str) -> Iterator[dict]:
    """Each vertex's closed reach-ball in turn, as its cutoff BFS dict, made
    as it is read.  Before each BFS the optional monotonic ``deadline`` is
    checked, and BudgetExceeded naming the pass ``what`` is raised past it."""
    for v in range(g.order):
        _check_deadline(deadline, what)
        yield _bfs_levels(g, v, reach)


def _power_entries_floor(g: Graph, reach: int) -> int:
    """A lower bound on the row entries (twice the edges) of g's reach-th
    power, in O(n + m): the sum over vertices v of the larger of two floors
    on v's row, which is v's ball minus v.

    Component floor: min(c, reach + 1) - 1, for v in a component of order
    c.  Proof: let v have eccentricity e <= c - 1.  BFS layers 0..e from v
    are all non-empty, so v's ball of radius reach holds at least reach + 1
    vertices when reach < e, and the whole component when reach >= e.

    Neighbour floor, at reach >= 2 in a bipartite component:
    deg(v) + deg(u) - 1 for v's neighbour u of largest degree.  Proof: the
    ball holds N(v) and N(u) - {v}, at distances 1 and 2; a bipartite
    graph has no triangle, so they share no vertex, and neither holds v.

    The sum is exact when no component has more than reach + 1 vertices,
    since every ball is then its whole component, and loose otherwise: at
    reach r >= 2 a long even ring's rows hold 2r entries against max(r, 3),
    and at r = 2 those of H_s hold s(s + 1)/2 against 2s - 1.
    """
    color, components = _colored_components(g)
    floors = [min(c, reach + 1) - 1 for c, _ in components]
    # the neighbour floor holds in bipartite components at reach >= 2
    sharp = [reach >= 2 and classes is not None for _, classes in components]
    nbrs = g._neighbors
    degree = list(map(len, nbrs))
    total = 0
    for v, nb in enumerate(nbrs):
        k = color[v] >> 1
        if sharp[k] and nb:
            total += max(floors[k], degree[v] + max(map(degree.__getitem__, nb)) - 1)
        else:
            total += floors[k]
    return total


def _check_power_entries(entries: int, reach: int) -> None:
    """Refuse a power whose rows hold ``entries`` > twice the edge cap."""
    if entries > 2 * _POWER_MAX_EDGES:
        raise InvalidParameter(f"the reach-{reach} transform has more than {_POWER_MAX_EDGES} "
                               f"edges, the cap (the edges of H_20)")


def _check_deadline(deadline: Optional[float], what: str) -> None:
    """Raise BudgetExceeded naming the pass ``what`` once past ``deadline``."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded(f"{what} ran out of time budget")


def _balls(g: Graph, reach: int, deadline: Optional[float], what: str) -> Iterator:
    """Every vertex's closed reach-ball in vertex order, each made or handed
    on as it is read: the one place that chooses a ball route.

    Above order 4096 each ball is a cutoff BFS dict (:func:`_bfs_balls`,
    the deadline read before each BFS).  Up to it each is a bitmask, bit u
    set iff dist <= reach: when no vertex has degree above 2 the balls are
    arcs (:func:`_arc_balls`: one walk and O(n) big-int operations, the
    deadline read once), otherwise they grow in mask rounds
    (:func:`_round_balls`: one round per unit of reach, O(reach * m)
    operations, the deadline read before each round).  Past the optional
    monotonic ``deadline`` any route raises BudgetExceeded naming the pass
    ``what``.
    """
    if g.order > _BALL_MASK_MAX_ORDER:
        return _bfs_balls(g, reach, deadline, what)
    _check_deadline(deadline, what)
    if g.max_degree() <= 2:
        return _arc_balls(g._neighbors, reach)
    return _round_balls(g._neighbors, reach, deadline, what)


def _arc_balls(nbrs: Sequence[Tuple[int, ...]], reach: int) -> Iterator[int]:
    """The closed reach-balls of a graph of maximum degree <= 2, in vertex
    order, from a window that slides along one walk of each component.

    Every component is then a path or a cycle.  A path is walked from one
    end (an isolated vertex is a path of one), then each vertex left over
    lies on a cycle and is walked from there, so each component is a run
    w_0..w_{L-1} with w_i ~ w_{i+1}, plus w_{L-1} ~ w_0 on a cycle.  On a
    path dist(w_i, w_j) = |i - j|, so the ball of w_i is the window of
    positions i - reach..i + reach clipped to 0..L-1.  On a cycle
    dist(w_i, w_j) = min(|i - j|, L - |i - j|), so the ball is that window
    taken mod L.  Once reach is at least every vertex's eccentricity (L // 2
    on a cycle, L - 1 on a path) every ball is the whole component.
    Otherwise the window moves from i to i + 1 by clearing the bit of
    position i - reach and setting that of i + reach + 1: dropped when
    outside 0..L-1 on a path, taken mod L on a cycle.  There reach < L // 2
    gives 2 * reach + 1 < L, so the window's positions are distinct mod L:
    the cleared one is in the window and the set one is not, and one XOR of
    both bits does the move.  That is O(n) big-int operations at any reach,
    and only the current window is held beside the balls.  The walks visit
    the vertices out of order, so every ball is made before the first is
    handed on, and each is dropped as it is: a reader that turns each ball
    into something of its own holds one set of masks, not two.
    """
    n = len(nbrs)
    seen = bytearray(n)
    balls = [0] * n
    for first in [v for v, nb in enumerate(nbrs) if len(nb) < 2] + list(range(n)):
        if seen[first]:
            continue
        run, v = [], first
        seen[v] = 1
        while v >= 0:
            run.append(v)
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = 1
                    v = w
                    break
            else:
                v = -1
        size, cycle = len(run), len(nbrs[first]) == 2
        if reach >= (size // 2 if cycle else size - 1):
            whole = sum(map((1).__lshift__, run))
            for v in run:
                balls[v] = whole
            continue
        # the window of position 0: 0..reach, and L - reach..L - 1 on a cycle
        window = sum(map((1).__lshift__, run[:reach + 1] + (run[size - reach:] if cycle else [])))
        for i, v in enumerate(run):
            balls[v] = window
            lo, hi = i - reach, i + reach + 1
            if cycle:  # run[j] with -L <= j < L is position j mod L
                window ^= (1 << run[lo]) | (1 << run[hi - size])
            else:
                window ^= (1 << run[lo] if lo >= 0 else 0) | (1 << run[hi] if hi < size else 0)
    for v in range(n):
        yield balls[v]
        balls[v] = 0


def _round_balls(
    nbrs: Sequence[Tuple[int, ...]], reach: int, deadline: Optional[float], what: str
) -> Iterable[int]:
    """Every vertex's closed reach-ball as a bitmask, one round per unit of
    reach, in vertex order.

    Round 1 sets ball_1(v) = {v} | N(v), straight from the rows.  Round
    d >= 2 sets ball_d(v) to the OR of ball_{d-1}(u) over u ~ v, without
    v's own ball_{d-1}: that is already inside the OR.  Proof: v lies in
    each ball_{d-1}(u), as d - 1 >= 1; any other w in ball_{d-1}(v) has a
    shortest path from v whose second vertex u ~ v is at distance <= d - 2
    from w.  Isolated vertices keep their ball {v}.  Each round is made
    lazily and listed only when the next round reads it, and the last one
    is returned unlisted, each ball made as it is read: a reader that keeps
    only each ball's size holds one listed round of masks, and one that
    keeps rows at most two.  A round that changes nothing leaves every ball
    a whole component, so later rounds are skipped and that round is
    returned as listed.  Each round from round 2 on first checks the
    optional monotonic ``deadline`` (:func:`_balls` checks it before round
    1) and raises BudgetExceeded, naming the pass ``what``, past it.
    """
    balls = (reduce(or_, map((1).__lshift__, nb), 1 << v) for v, nb in enumerate(nbrs))  # round 1
    prev = None
    for _ in range(reach - 1):  # rounds 2..reach, each read off the listed round before it
        balls = list(balls)
        if balls == prev:
            return balls
        _check_deadline(deadline, what)
        prev, get = balls, balls.__getitem__
        balls = (reduce(or_, map(get, nb)) if nb else ball for ball, nb in zip(prev, nbrs))
    return balls


def _rows_of(masks: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """Neighbor tuples of a graph held as adjacency masks, decoded on demand.

    Character i of the reversed binary string is bit i, so its ``1``s come
    out in ascending order and each row is sorted without a sort.  Every row
    indexes one shared tuple of vertex ids instead of allocating fresh ints.
    """
    ids = tuple(range(len(masks)))
    ones = re.compile("1").finditer
    return tuple([tuple([ids[m.start()] for m in ones(bin(mask)[:1:-1])]) for mask in masks])


def _colored_components(
    g: Graph, deadline: Optional[float] = None, what: str = "component sweep"
) -> Tuple[List[int], List[Tuple[int, Optional[Tuple[int, int]]]]]:
    """Each vertex's colour, and per connected component its order and its
    2-coloring class sizes.

    Each component's entry is ``(size, (a, b))`` with ``a >= b`` and
    ``a + b == size`` when the component is bipartite, or ``(size, None)``
    when it has an odd cycle.  A connected component's 2-coloring is unique
    up to swapping the two classes, so the sorted pair is well defined.  In
    the k-th component (in the order of their smallest vertices) the
    colours are 2k and 2k + 1, by the parity of the BFS depth, so
    ``colour >> 1`` is the component.  The optional monotonic ``deadline``
    is read each time 4096 units of work have built up, a unit being a
    dequeued vertex or one of its row's entries, and BudgetExceeded naming
    the pass ``what`` is raised past it.
    """
    nbrs = g._neighbors
    color = [-1] * g.order
    counts, out = [], []
    work = 0
    for root in range(g.order):
        if color[root] != -1:
            continue
        color[root] = base = len(counts)
        counts += (1, 0)
        odd = False
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if deadline is not None:
                work += 1 + len(nbrs[u])
                if work >= 4096:
                    work = 0
                    _check_deadline(deadline, what)
            for w in nbrs[u]:
                if color[w] == -1:
                    color[w] = color[u] ^ 1
                    counts[color[w]] += 1
                    queue.append(w)
                elif color[w] == color[u]:
                    odd = True
        a, b = max(counts[base:]), min(counts[base:])
        out.append((a + b, None if odd else (a, b)))
    return color, out


def hypercube_labels(g: Graph) -> Optional[List[int]]:
    """Each vertex's label in H_s when g is the hypercube H_s under some
    labelling of its vertices, else None, in O(n * s) (Bhat, "On the
    complexity of testing a graph for n-cube", IPL 1980).

    g is refused at once unless n = 2^s and every degree is s.  Vertex 0
    gets label 0 and its i-th neighbour 1 << i; a BFS from 0 then gives each
    vertex at depth k + 1 the OR of the labels of its neighbours at depth
    k.  g is accepted only if every vertex is reached, the labels are
    distinct, and every edge's two labels differ in exactly one bit.
    Proof: n distinct labels in 0..2^s - 1 are a bijection onto the
    vertices of H_s; each of g's n * s / 2 edges maps to an edge of H_s,
    which has n * s / 2 edges, so the map is an isomorphism.  A labelling
    that goes wrong can only be refused, never accepted.  The edges are
    checked only at the n / 2 vertices whose label has even weight: an edge
    that flips one bit leaves that set, so if all of theirs do, they are
    n * s / 2 distinct edges, which is every edge of g.  Conversely, when
    g is H_s the labels are an isomorphism: the neighbours of 0 may take
    the unit labels in any order (an automorphism of H_s permutes the
    bits), and the neighbours of a vertex at depth k + 1 >= 2 at depth k
    are its label with one of its k + 1 bits cleared, whose OR is its label.
    """
    n, nbrs = g.order, g._neighbors
    s = n.bit_length() - 1
    if n != 1 << s or any(len(nb) != s for nb in nbrs):
        return None
    label, depth = [0] * n, [-1] * n  # depth -1 until reached
    depth[0] = 0
    for i, w in enumerate(nbrs[0]):
        label[w], depth[w] = 1 << i, 1
    reached = [0, *nbrs[0]]
    # in BFS order, so each label is whole before its vertex is read
    for u in reached:
        lu, deeper = label[u], depth[u] + 1
        for w in nbrs[u]:
            if depth[w] < 0:
                label[w], depth[w] = lu, deeper
                reached.append(w)
            elif depth[w] == deeper:
                label[w] |= lu
    if len(reached) != n or len(set(label)) != n:
        return None
    return label if all((lv ^ label[w]).bit_count() == 1 for v, lv in enumerate(label)
                        if not lv.bit_count() & 1 for w in nbrs[v]) else None


def _ball_by_bound(g: Graph, reach: int) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """The first center of a largest reach-ball and the ball's other vertices
    in ascending order, when a probe BFS meets an upper bound on every ball
    or g is a hypercube, else None.

    Two probes are tried, with the hypercube test between them.  M is the
    Moore bound 1 + D * sum((D - 1)^i, i < reach) for maximum degree D
    (Hoffman & Singleton 1960), capped at the order.  When M is below the
    order it is uncapped, and the first probe is the first vertex of degree
    D against M: every vertex of lower degree has a Moore bound below M, and
    every vertex before the probe has lower degree.  It decides every
    reach-1 star in O(n), so only when it misses is g tried as a hypercube
    (:func:`hypercube_labels`, O(m)): H_s is vertex-transitive, so its
    answer is vertex 0 and its ball.  Only then are the components swept
    (:func:`_colored_components`).  With C the order of the largest
    component, and C <= M, the second probe is the first vertex of the
    first largest component against C: every id below it lies in a
    component swept earlier, which is smaller.  Either way a probe whose
    ball meets its bound is the first center of a largest ball.  C does not
    depend on the reach.
    """
    top = g.max_degree()
    moore = _moore_bound(top, reach, g.order)
    if moore < g.order:
        probe = next(v for v, nb in enumerate(g._neighbors) if len(nb) == top)
        row = _ball_row(_bfs_levels(g, probe, reach), probe)
        if len(row) + 1 == moore:
            return probe, row
    if hypercube_labels(g) is not None:
        return 0, _ball_row(_bfs_levels(g, 0, reach), 0)
    color, components = _colored_components(g)
    orders = [c for c, _ in components]
    largest = max(orders)
    if largest > moore:
        return None
    probe = color.index(2 * orders.index(largest))  # the k-th component's root has colour 2k
    row = _ball_row(_bfs_levels(g, probe, reach), probe)
    return (probe, row) if len(row) + 1 == largest else None


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


def _largest_ball_pass(
    g: Graph, reach: int, deadline: Optional[float] = None
) -> Tuple[int, Tuple[int, ...]]:
    """The first center of a largest reach-ball and the ball's other
    vertices, from every ball's size with no bound: each ball from
    :func:`_balls` is sized as it is read and dropped (a popcount of each
    mask up to order 4096, the length of each BFS dict above), then one
    more BFS lists the ball.  Past the optional monotonic ``deadline`` it
    raises BudgetExceeded, as the transform does."""
    sizes = [len(ball) if type(ball) is dict else ball.bit_count()
             for ball in _balls(g, reach, deadline, "largest-ball pass")]
    center = sizes.index(max(sizes))
    return center, _ball_row(_bfs_levels(g, center, reach), center)
