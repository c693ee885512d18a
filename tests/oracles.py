"""Independent reference implementations used to cross-check search results.

Everything here is deliberately naive: exhaustive enumeration over injective
maps and vertex sequences, and plain BFS over the edge set.  These oracles
share no code with the package's search kernels or its graph transform, so
agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations
from typing import List, Optional, Sequence, Set, Tuple

from topocompat import Graph, complete, from_edge_list, hypercube, ring, star


def brute_force_embeds(task: Graph, host: Graph) -> bool:
    """Decide embeddability by trying every injective vertex map."""
    if task.order > host.order:
        return False
    tedges = sorted(task.edges)
    hedges = host.edges
    for perm in permutations(range(host.order), task.order):
        for u, v in tedges:
            a, b = perm[u], perm[v]
            if (a, b) not in hedges and (b, a) not in hedges:
                break
        else:
            return True
    return False


def brute_force_cycle_orders(g: Graph, up_to: int) -> Set[int]:
    """All k in [3, up_to] with a simple k-cycle, by trying every sequence
    of k distinct vertices that starts at its smallest one (every k-cycle is
    one of them up to rotation)."""
    found = set()
    hedges = g.edges
    for k in range(3, up_to + 1):
        for perm in (
            (first, *rest)
            for first, *others in combinations(range(g.order), k)
            for rest in permutations(others)
        ):
            ok = True
            for i in range(k):
                a, b = perm[i], perm[(i + 1) % k]
                if (a, b) not in hedges and (b, a) not in hedges:
                    ok = False
                    break
            if ok:
                found.add(k)
                break
    return found


def longest_cycle_reference(g: Graph) -> int:
    """The order of a longest simple cycle of g, 0 when it has none, by a
    depth-first search over every simple path from its smallest vertex,
    over g.edges; it stops at the first cycle through every vertex."""
    adj = _adjacency(g)
    n = g.order
    best = 0
    path, on_path = [], [False] * n

    def extend(last: int) -> None:
        nonlocal best
        for w in adj[last]:
            if best == n:
                return
            if w == path[0]:
                if len(path) >= 3:
                    best = max(best, len(path))
            elif w > path[0] and not on_path[w]:
                path.append(w)
                on_path[w] = True
                extend(w)
                on_path[w] = False
                path.pop()

    for first in range(n - 2):
        path.append(first)
        extend(first)
        path.pop()
    return best


def relabelled(g: Graph, seed: int) -> Graph:
    """g with its vertex ids permuted by a random permutation of the given seed."""
    perm = list(range(g.order))
    random.Random(seed).shuffle(perm)
    return from_edge_list(g.order, [(perm[u], perm[v]) for u, v in g.edges])


def _adjacency(g: Graph) -> List[Set[int]]:
    """Each vertex's neighbours, as a set made from g.edges."""
    adj: List[Set[int]] = [set() for _ in range(g.order)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def power_reference(g: Graph, reach: int) -> Set[Tuple[int, int]]:
    """Edges (u < v) of the reach-th power, by level-by-level BFS over g.edges."""
    adj = _adjacency(g)
    out = set()
    for s in range(g.order):
        seen = {s}
        frontier = [s]
        for _ in range(reach):
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        out.update((s, v) for v in seen if s < v)
    return out


class Distances:
    """All-pairs shortest-path lengths; ``None`` marks unreachable pairs."""

    def __init__(self, rows: List[List[Optional[int]]]):
        self._rows = rows

    def get(self, u: int, v: int) -> Optional[int]:
        return self._rows[u][v]

    def row(self, u: int) -> List[Optional[int]]:
        return self._rows[u]

    def max_finite(self) -> int:
        return max(d for row in self._rows for d in row if d is not None)


def all_pairs_distances(g: Graph) -> Distances:
    """Shortest-path lengths from every vertex, by level-by-level BFS over g.edges."""
    adj = _adjacency(g)
    rows = []
    for s in range(g.order):
        row: List[Optional[int]] = [None] * g.order
        row[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if row[w] is None:
                        row[w] = row[u] + 1
                        nxt.append(w)
            frontier = nxt
        rows.append(row)
    return Distances(rows)


def diameter(g: Graph) -> "int | float":
    """Largest distance, from all-pairs distances; ``math.inf`` when g is
    disconnected."""
    dist = all_pairs_distances(g)
    if any(None in dist.row(v) for v in range(g.order)):
        return math.inf
    return dist.max_finite()


def is_bipartite(g: Graph) -> bool:
    """True iff g has no odd cycle: a BFS 2-colouring over g.edges, one
    component at a time, leaves no edge inside one colour."""
    adj = _adjacency(g)
    color: List[Optional[int]] = [None] * g.order
    for root in range(g.order):
        if color[root] is not None:
            continue
        color[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if color[w] is None:
                        color[w] = 1 - color[u]
                        nxt.append(w)
            frontier = nxt
    return all(color[u] != color[v] for u, v in g.edges)


def largest_ball_reference(g: Graph, reach: int) -> Tuple[int, Tuple[int, ...]]:
    """The first center of a largest reach-ball and its other vertices in
    ascending order, from all-pairs distances."""
    dist = all_pairs_distances(g)
    balls = [[u for u, d in enumerate(dist.row(v)) if d is not None and d <= reach]
             for v in range(g.order)]
    center = max(range(g.order), key=lambda v: len(balls[v]))  # the first of the largest
    return center, tuple(u for u in balls[center] if u != center)


def path_cycle_union(parts: Sequence[Tuple[int, bool]], rng: random.Random) -> Graph:
    """Disjoint paths and cycles, one per (order, is a cycle) part, with the
    vertices relabelled by a random permutation from rng."""
    n = sum(k for k, _ in parts)
    perm = list(range(n))
    rng.shuffle(perm)
    edges, start = [], 0
    for k, cycle in parts:
        edges += [(perm[start + i], perm[start + i + 1]) for i in range(k - 1)]
        if cycle:
            edges.append((perm[start + k - 1], perm[start]))
        start += k
    return from_edge_list(n, edges)


def is_valid_cycle(g: Graph, seq: Sequence[int]) -> bool:
    """True iff seq is a simple cycle of g (distinct vertices, closed walk)."""
    k = len(seq)
    if k < 3 or len(set(seq)) != k or not all(0 <= v < g.order for v in seq):
        return False
    adj = _adjacency(g)
    return all(seq[(i + 1) % k] in adj[seq[i]] for i in range(k))


def is_embedding(task: Graph, host: Graph, mapping: Sequence[int]) -> bool:
    """True iff mapping sends task vertex i to host vertex mapping[i]
    injectively, into host's range, and every task edge to a host edge."""
    if len(mapping) != task.order or len(set(mapping)) != task.order:
        return False
    if not all(0 <= v < host.order for v in mapping):
        return False
    adj = _adjacency(host)
    return all(mapping[v] in adj[mapping[u]] for u, v in task.edges)


def chord_ring(n: int) -> Graph:
    """The n-ring plus the chord (0, n // 2), for n >= 8: maximum degree 3,
    so the Moore bound at reach 2 is 10, but the largest reach-2 ball (at 0)
    has 8 vertices, and no single BFS decides the star potential."""
    return from_edge_list(n, [(v, (v + 1) % n) for v in range(n)] + [(0, n // 2)])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(n, edges)


def generated_topologies(max_n: int = 256) -> List[Tuple[str, Graph]]:
    """A sweep of every generator across small-to-max orders."""
    out = []
    s = 1
    while 2**s <= max_n:
        out.append((f"hypercube:{s}", hypercube(s)))
        s += 1
    for p in (3, 4, 5, 6, 7, 8, 9, 16, 17, 32, 255, 256):
        if p <= max_n:
            out.append((f"ring:{p}", ring(p)))
    for p in (2, 3, 4, 5, 8, 16, 33, 256):
        if p <= max_n:
            out.append((f"star:{p}", star(p)))
    for n in (1, 2, 3, 4, 5, 8, 16, 64):
        if n <= max_n:
            out.append((f"complete:{n}", complete(n)))
    return out
