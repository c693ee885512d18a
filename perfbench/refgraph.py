"""Reference graphs and answer checks, written independently of topocompat.

Nothing here imports the package under test.  Graphs are a vertex count plus
one int adjacency bitmask per vertex; generators, the reachability transform,
the canonical edge-list text and every witness check are re-derived from the
definitions, so a wrong answer from the program cannot be hidden by the same
bug in the checker.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple


class RefGraph:
    """Simple undirected graph on 0..n-1 as per-vertex neighbour bitmasks."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        adj = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v}) for order {n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = adj

    @classmethod
    def from_masks(cls, masks: List[int]) -> "RefGraph":
        g = cls.__new__(cls)
        g.n = len(masks)
        g.adj = masks
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and (self.adj[u] >> v) & 1 == 1

    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def sorted_edges(self) -> List[Tuple[int, int]]:
        out = []
        for u, mask in enumerate(self.adj):
            rest = mask >> (u + 1)
            v = u + 1
            while rest:
                skip = (rest & -rest).bit_length() - 1
                v += skip
                out.append((u, v))
                rest >>= skip + 1
                v += 1
        return out

    def edge_list_text(self) -> str:
        """The canonical edge-list format: ``n m`` then sorted ``u v``, u < v."""
        lines = [f"{self.n} {self.num_edges()}"]
        lines.extend(f"{u} {v}" for u, v in self.sorted_edges())
        return "\n".join(lines) + "\n"


# -- generators ---------------------------------------------------------------

def hypercube(s: int) -> RefGraph:
    n = 1 << s
    return RefGraph(n, [(i, i ^ (1 << b)) for i in range(n) for b in range(s) if i < i ^ (1 << b)])


def ring(n: int) -> RefGraph:
    return RefGraph(n, [(i, (i + 1) % n) for i in range(n)])


def grid(rows: int, cols: int) -> RefGraph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return RefGraph(rows * cols, edges)


def binary_tree(n: int) -> RefGraph:
    """Complete binary tree in heap order: parent of i is (i - 1) // 2."""
    return RefGraph(n, [((i - 1) // 2, i) for i in range(1, n)])


def random_graph(n: int, p: float, rng, planted_cycle: int = 0) -> RefGraph:
    """G(n, p), plus a cycle through ``planted_cycle`` random vertices when > 0."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    if planted_cycle:
        cyc = rng.sample(range(n), planted_cycle)
        edges += [(cyc[i], cyc[(i + 1) % planted_cycle]) for i in range(planted_cycle)]
    return RefGraph(n, edges)


# -- the reachability transform ---------------------------------------------

def balls(g: RefGraph, reach: int) -> List[int]:
    """Per-vertex bitmask of every vertex within distance ``reach`` (itself included)."""
    ball = [1 << v for v in range(g.n)]
    nbrs = [_bits(m) for m in g.adj]
    for _ in range(reach):
        prev = ball
        ball = []
        for v in range(g.n):
            acc = prev[v]
            for u in nbrs[v]:
                acc |= prev[u]
            ball.append(acc)
    return ball


def power(g: RefGraph, reach: int) -> RefGraph:
    """Graph power: u ~ v iff 1 <= dist(u, v) <= reach."""
    return RefGraph.from_masks([b & ~(1 << v) for v, b in enumerate(balls(g, reach))])


def _bits(mask: int) -> List[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# -- closed forms -------------------------------------------------------------

def hamming_ball(s: int, reach: int) -> int:
    return sum(math.comb(s, i) for i in range(min(reach, s) + 1))


def hypercube_power_edges(s: int, reach: int) -> int:
    return (1 << (s - 1)) * (hamming_ball(s, reach) - 1)


def ring_power_edges(n: int, reach: int) -> int:
    return n * reach if 2 * reach < n else n * (n - 1) // 2


def rounded_index(p: int, n: int) -> str:
    """p/n rounded half-up to four decimals, as the CLI must print it."""
    value = Fraction(p, n)
    q, r = divmod(value.numerator * 10_000, value.denominator)
    if 2 * r >= value.denominator:
        q += 1
    return f"{q // 10_000}.{q % 10_000:04d}"


# -- structural facts used as independent proofs ------------------------------

def two_coloring(g: RefGraph) -> Optional[List[int]]:
    """A proper 2-colouring, or None when g has an odd cycle."""
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in _bits(g.adj[u]):
                if color[w] == -1:
                    color[w] = color[u] ^ 1
                    stack.append(w)
                elif color[w] == color[u]:
                    return None
    return color


def color_class_sizes(g: RefGraph) -> Optional[Tuple[int, int]]:
    """Sizes of the two colour classes of a connected bipartite graph."""
    color = two_coloring(g)
    if color is None:
        return None
    ones = sum(color)
    return g.n - ones, ones


def cycle_upper_bound(g: RefGraph) -> int:
    """Order of the largest connected component of the 2-core (0 if acyclic).

    Every simple cycle lies inside one component of the 2-core, so this bounds
    the longest cycle from above.
    """
    alive = (1 << g.n) - 1
    deg = [m.bit_count() for m in g.adj]
    stack = [v for v in range(g.n) if deg[v] < 2]
    while stack:
        v = stack.pop()
        if not (alive >> v) & 1:
            continue
        alive &= ~(1 << v)
        for w in _bits(g.adj[v] & alive):
            deg[w] -= 1
            if deg[w] < 2:
                stack.append(w)
    best = 0
    while alive:
        comp = alive & -alive
        frontier = comp
        while frontier:
            grow = 0
            for v in _bits(frontier):
                grow |= g.adj[v]
            frontier = grow & alive & ~comp
            comp |= frontier
        alive &= ~comp
        best = max(best, comp.bit_count())
    return best


# -- witness checks -------------------------------------------------------------

def is_cycle(host: RefGraph, cycle: Sequence[int]) -> bool:
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        return False
    return all(host.has_edge(cycle[i], cycle[(i + 1) % k]) for i in range(k))


def is_embedding(task: RefGraph, host: RefGraph, mapping: Sequence[int]) -> bool:
    if len(mapping) != task.n or len(set(mapping)) != task.n:
        return False
    return all(host.has_edge(mapping[u], mapping[v]) for u, v in task.sorted_edges())


def is_star(host: RefGraph, center: int, leaves: Sequence[int]) -> bool:
    if len(set(leaves)) != len(leaves):
        return False
    return all(host.has_edge(center, v) for v in leaves)
