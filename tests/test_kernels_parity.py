"""The compiled and pure kernels must return identical results.

Identical means the full tuple: status, witness (not just validity), and the
node-expansion count, since the two backends implement the same algorithm
with the same candidate order.

The ``ckernels`` fixture lives in the root ``conftest.py``: when the
extension is not importable but a C compiler is on PATH, it is built from
the checked-in C into a temporary directory and loaded from there (a
compiler warning for ``_ckernels.c`` fails the build); the source tree is
never written to.  The test header names the plan.
"""

import random

import pytest

from topocompat import complete, from_edge_list, graph_power, hypercube, ring
from topocompat._kernels import pykernels
from topocompat.embedding import _anchor_order
from oracles import random_graph


def _order(g):
    return sorted(range(g.order), key=lambda u: (-g.degree(u), u))


def _instances():
    rng = random.Random(20240817)
    graphs = [hypercube(3), hypercube(4), graph_power(hypercube(3), 2), ring(9)]
    graphs += [random_graph(rng, rng.randint(4, 14), p) for p in (0.2, 0.35, 0.5, 0.7)]
    graphs += [random_graph(rng, 64, 0.08), random_graph(rng, 64, 0.2)]
    return rng, graphs


def test_subgraph_search_parity(ckernels):
    rng, graphs = _instances()
    checked = 0
    for host in graphs:
        hmask = host.adjacency_masks()
        for _ in range(6):
            task = random_graph(rng, rng.randint(2, 6), rng.choice((0.3, 0.5, 0.8)))
            args = (task.order, task.adjacency_masks(), host.order, hmask,
                    _order(task), 10**7, 0.0)
            assert ckernels.subgraph_search(*args) == pykernels.subgraph_search(*args)
            checked += 1
    assert checked == 60


def _cycle_instances():
    """(order, masks) pairs: the shared instances, plus sparse graphs of order
    40-64 (p = 4/n), where the cycle search peels most, each also under the
    low-degree-first labels the library searches them with."""
    _, graphs = _instances()
    out = [(g.order, g.adjacency_masks()) for g in graphs]
    rng = random.Random(20261018)
    for n in (40, 48, 56, 64):
        g = random_graph(rng, n, 4 / n)
        out += [(n, g.adjacency_masks()), (n, _anchor_order(g)[1])]
    return out


def test_longest_cycle_parity(ckernels):
    statuses = set()
    for n, masks in _cycle_instances():
        # cap keeps the pure side quick on the larger instances while
        # still exercising the budget-exceeded path identically
        cap = 10**6 if n <= 16 else 20000
        args = (n, masks, cap, 0.0)
        result = ckernels.longest_cycle(*args)
        assert result == pykernels.longest_cycle(*args)
        statuses.add(result[0])
    assert statuses == {pykernels.EXHAUSTED, pykernels.BUDGET_EXCEEDED}


def test_cycle_with_length_parity(ckernels):
    statuses = set()
    for n, masks in _cycle_instances():
        cap = 10**6 if n <= 16 else 20000
        for k in (3, 4, 5, n // 2, n):
            args = (n, masks, k, cap, 0.0)
            result = ckernels.cycle_with_length(*args)
            assert result == pykernels.cycle_with_length(*args)
            statuses.add(result[0])
    assert statuses == {pykernels.FOUND, pykernels.EXHAUSTED, pykernels.BUDGET_EXCEEDED}


def test_budget_cutoff_parity(ckernels):
    h4 = hypercube(4)
    r7 = ring(7)
    for cap in (1, 5, 100, 3000):
        args = (7, r7.adjacency_masks(), 16, h4.adjacency_masks(), _order(r7), cap, 0.0)
        a = ckernels.subgraph_search(*args)
        b = pykernels.subgraph_search(*args)
        assert a == b
        assert a[0] == pykernels.BUDGET_EXCEEDED
        assert a[2] == cap + 1

    # caps at and past 2^62, where the compiled kernels clamp, never cut off
    for cap in (1, 10, 500, 2**62, 2**64, 10**30):
        args = (16, h4.adjacency_masks(), cap, 0.0)
        assert ckernels.longest_cycle(*args) == pykernels.longest_cycle(*args)

    # C15 is absent from the bipartite H4, so every cap below the 72,252
    # nodes of the full search cuts it off
    for cap in (1, 10, 500, 5000):
        args = (16, h4.adjacency_masks(), 15, cap, 0.0)
        a = ckernels.cycle_with_length(*args)
        assert a == pykernels.cycle_with_length(*args)
        assert a == (pykernels.BUDGET_EXCEEDED, None, cap + 1)


def _past_deadline_calls():
    """One call per entry point, each needing more than 4096 nodes to finish."""
    h4, h5 = hypercube(4), hypercube(5)
    h5_minus = from_edge_list(31, [(u - 1, v - 1) for u, v in h5.edges if 0 not in (u, v)])
    k7 = complete(7)
    h5_sq = graph_power(h5, 2)
    return [
        ("subgraph_search", (7, k7.adjacency_masks(), 32, h5_sq.adjacency_masks(),
                             list(range(7)), 10**8)),
        ("longest_cycle", (31, h5_minus.adjacency_masks(), 10**8)),
        ("cycle_with_length", (16, h4.adjacency_masks(), 15, 10**8)),
    ]


@pytest.mark.parametrize("backend", ("compiled", "pure"))
def test_past_deadline_stops_at_node_4096(backend, request):
    kern = request.getfixturevalue("ckernels") if backend == "compiled" else pykernels
    for name, args in _past_deadline_calls():
        result = getattr(kern, name)(*args, 1e-9)
        assert result[0] == pykernels.BUDGET_EXCEEDED, name
        assert result[-1] == 4096, name
        assert result == getattr(pykernels, name)(*args, 1e-9)


def test_compiled_rejects_order_65(ckernels):
    masks = ring(65).adjacency_masks()
    with pytest.raises(ValueError):
        ckernels.subgraph_search(3, ring(3).adjacency_masks(), 65, masks, [0, 1, 2], 10, 0.0)
    with pytest.raises(ValueError):
        ckernels.subgraph_search(65, masks, 65, masks, list(range(65)), 10, 0.0)
    with pytest.raises(ValueError):
        ckernels.longest_cycle(65, masks, 10, 0.0)
    with pytest.raises(ValueError):
        ckernels.cycle_with_length(65, masks, 5, 10, 0.0)


@pytest.mark.parametrize("adj", ([6, 5], [6, 5, "3"], [6, 5, 3.0], [6, 5, -1], None),
                         ids=("short", "str", "float", "negative", "none"))
def test_compiled_rejects_bad_adjacency(ckernels, adj):
    good = ring(3).adjacency_masks()
    calls = [
        lambda: ckernels.longest_cycle(3, adj, 10, 0.0),
        lambda: ckernels.cycle_with_length(3, adj, 3, 10, 0.0),
        lambda: ckernels.subgraph_search(3, adj, 3, good, [0, 1, 2], 10, 0.0),
        lambda: ckernels.subgraph_search(3, good, 3, adj, [0, 1, 2], 10, 0.0),
    ]
    for call in calls:
        with pytest.raises((TypeError, IndexError, ValueError, OverflowError)):
            call()


@pytest.mark.parametrize("order", ([0, 1], [0, 1, 3], [0, 1, -1], [0, 1, "2"]),
                         ids=("short", "too large", "negative", "str"))
def test_compiled_rejects_bad_order(ckernels, order):
    masks = ring(3).adjacency_masks()
    with pytest.raises((TypeError, IndexError, ValueError, OverflowError)):
        ckernels.subgraph_search(3, masks, 3, masks, order, 10, 0.0)


def test_status_constants_match(ckernels):
    assert ckernels.FOUND == pykernels.FOUND
    assert ckernels.EXHAUSTED == pykernels.EXHAUSTED
    assert ckernels.BUDGET_EXCEEDED == pykernels.BUDGET_EXCEEDED


def test_empty_task_embeds_everywhere(ckernels):
    for host_n, host_adj in ((0, []), (3, ring(3).adjacency_masks())):
        args = (0, [], host_n, host_adj, [], 10, 0.0)
        assert ckernels.subgraph_search(*args) == (pykernels.FOUND, [], 0)
        assert pykernels.subgraph_search(*args) == (pykernels.FOUND, [], 0)
