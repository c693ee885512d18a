"""The pure kernels against a frozen copy of their earlier implementation.

``reference_kernels`` recomputes reachability with a fresh BFS at every
cycle-search node and scans every earlier position to set up the subgraph
search.  The package's pure kernels derive reachability incrementally and
set up in O(n + m).  The subgraph search must still return the identical
full tuple: status, witness and node count.  The cycle search also peels
the vertices no closing path can use, so it expands a subset of the
reference's nodes in the same order: wherever the reference decides, it
must return the same status and witness in no more nodes, and it never runs
out where the reference does not.  The frozen ``longest_cycle`` returns
(status, length, witness, nodes) with EXHAUSTED beside a witness; the
kernels return (status, witness or None, nodes) with FOUND exactly when a
witness comes back, so the reference's result is read in that shape.  The
graphs reach order 96, past the 64 vertices the compiled parity tests stop
at, and the node caps start at 1, so budget cut-offs are compared too.
"""

import random

import pytest

from topocompat import from_edge_list
from topocompat._kernels import BUDGET_EXCEEDED, EXHAUSTED, FOUND, pykernels
import reference_kernels as reference
from oracles import random_graph

FAMILIES = ("random", "disconnected", "blocks", "chorded ring", "ladder")
GRAPHS_PER_FAMILY = 220
MAX_ORDER = 96


def _relabeled(rng, n, edges):
    """The graph on the edges, with its vertices shuffled so the anchor order varies."""
    perm = list(range(n))
    rng.shuffle(perm)
    return from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])


def _random_edges(rng, n, offset=0):
    p = rng.choice((0.1, 0.25, 0.5, 0.8)) if n <= 12 else rng.uniform(1.0, 3.5) / n
    return [(u + offset, v + offset) for u, v in sorted(random_graph(rng, n, p).edges)]


def _block_edges(rng, n):
    """Small random blocks in a chain, each sharing a cut vertex with the last
    or hanging from it by a bridge."""
    edges, start = [], 0
    while start < n - 1:
        size = min(rng.randint(2, 6), n - start)
        block = [(u + start, v + start) for u, v in sorted(random_graph(rng, size, 0.7).edges)]
        edges += block or [(start, start + 1)]
        nxt = start + size - 1
        if rng.random() < 0.5 and nxt + 1 < n:
            edges.append((nxt, nxt + 1))  # a bridge into the next block
            nxt += 1
        start = nxt
    return edges


def _graph(rng, family, n):
    if family == "disconnected" and n >= 2:
        cut = rng.randint(1, n - 1)
        return _relabeled(rng, n, _random_edges(rng, cut) + _random_edges(rng, n - cut, cut))
    if family == "blocks":
        return _relabeled(rng, n, _block_edges(rng, n))
    if family == "chorded ring" and n >= 3:
        edges = [(i, (i + 1) % n) for i in range(n)]
        for _ in range(rng.randint(0, 3)):
            u, v = rng.sample(range(n), 2)
            if (v - u) % n not in (1, n - 1):
                edges.append((u, v))
        return _relabeled(rng, n, edges)
    if family == "ladder" and n >= 4:
        rungs = n // 2
        edges = [(i, i + rungs) for i in range(rungs)]
        edges += [(i + side, i + 1 + side) for side in (0, rungs) for i in range(rungs - 1)]
        if rng.random() < 0.5:  # close it into a prism
            edges += [(rungs - 1, 0), (2 * rungs - 1, rungs)]
        if n % 2:  # the odd vertex hangs from a rail
            edges.append((n - 1, rng.randrange(n - 1)))
        return _relabeled(rng, n, edges)
    return _relabeled(rng, n, _random_edges(rng, n))


def _cap(rng, n):
    """A node cap from 1 upward; small graphs also get caps they never reach."""
    caps = (1, 2, 5, 40, 300, 3000)
    if n <= 14:
        caps += (10**6, 10**6)
    return rng.choice(caps)


def _cases(family, seed):
    rng = random.Random(seed)
    for _ in range(GRAPHS_PER_FAMILY):
        n = rng.randint(1, MAX_ORDER)
        yield rng, _graph(rng, family, n)


def _no_worse(result, ref) -> bool:
    """Whether a cycle-search result is the reference's answer wherever the
    reference decides, in no more nodes."""
    if result[-1] > ref[-1]:
        return False
    return ref[0] == BUDGET_EXCEEDED or result[:-1] == ref[:-1]


def _longest_cycle_reference(*args):
    """The frozen ``longest_cycle``'s result in the kernels' shape (it
    returns a witness only with EXHAUSTED)."""
    status, _, witness, nodes = reference.longest_cycle(*args)
    return (status if witness is None else FOUND), witness, nodes


@pytest.mark.parametrize("family", FAMILIES)
def test_longest_cycle_matches_reference(family):
    statuses, fewer = set(), 0
    for rng, g in _cases(family, 1000 + FAMILIES.index(family)):
        args = (g.order, g.adjacency_masks(), _cap(rng, g.order), 0.0)
        result = pykernels.longest_cycle(*args)
        ref = _longest_cycle_reference(*args)
        assert _no_worse(result, ref), (family, g.order, args[2], result, ref)
        statuses.add(result[0])
        fewer += result[-1] < ref[-1]
    assert statuses == {FOUND, EXHAUSTED, BUDGET_EXCEEDED}
    assert fewer


@pytest.mark.parametrize("family", FAMILIES)
def test_cycle_with_length_matches_reference(family):
    statuses, fewer = set(), 0
    for rng, g in _cases(family, 2000 + FAMILIES.index(family)):
        n, masks = g.order, g.adjacency_masks()
        for k in {3, 4, rng.randint(3, max(3, n)), n - 1, n}:
            args = (n, masks, k, _cap(rng, n), 0.0)
            result = pykernels.cycle_with_length(*args)
            ref = reference.cycle_with_length(*args)
            assert _no_worse(result, ref), (family, n, k, args[3], result, ref)
            statuses.add(result[0])
            fewer += result[-1] < ref[-1]
    assert statuses == {FOUND, EXHAUSTED, BUDGET_EXCEEDED}
    assert fewer


def _task(rng, host):
    """A small random task, or a long path or ring, so set-up and depth both vary."""
    if rng.random() < 0.5 or host.order < 3:
        return random_graph(rng, rng.randint(1, min(8, host.order)), rng.choice((0.3, 0.6)))
    k = rng.randint(3, host.order)
    edges = [(i, i + 1) for i in range(k - 1)]
    if rng.random() < 0.5:
        edges.append((k - 1, 0))
    return _relabeled(rng, k, edges)


@pytest.mark.parametrize("family", FAMILIES)
def test_subgraph_search_matches_reference(family):
    statuses = set()
    for rng, host in _cases(family, 3000 + FAMILIES.index(family)):
        task = _task(rng, host)
        order = list(range(task.order))
        if rng.random() < 0.5:
            rng.shuffle(order)  # any order, not only by degree
        else:
            order.sort(key=lambda u: (-task.degree(u), u))
        args = (task.order, task.adjacency_masks(), host.order, host.adjacency_masks(),
                order, _cap(rng, host.order), 0.0)
        result = pykernels.subgraph_search(*args)
        assert result == reference.subgraph_search(*args), (family, task.order, host.order)
        statuses.add(result[0])
    assert statuses == {FOUND, EXHAUSTED, BUDGET_EXCEEDED}
