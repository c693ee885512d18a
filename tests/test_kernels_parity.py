"""The compiled and pure kernels must return identical results.

Identical means the full tuple: status, witness (not just validity), and the
node-expansion count, since the two backends implement the same algorithm
with the same candidate order.

The ``ckernels`` fixture lives in the root ``conftest.py``: when the
extension is not importable but a C compiler is on PATH, it is built from
the checked-in C into a temporary directory and loaded from there; the
source tree is never written to.  The test header names the plan.
"""

import random

from topocompat import graph_power, hypercube, ring
from topocompat._kernels import pykernels
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


def test_longest_cycle_parity(ckernels):
    rng, graphs = _instances()
    for g in graphs:
        # cap keeps the pure side quick on the 64-vertex instances while
        # still exercising the budget-exceeded path identically
        cap = 10**6 if g.order <= 16 else 20000
        args = (g.order, g.adjacency_masks(), cap, 0.0)
        assert ckernels.longest_cycle(*args) == pykernels.longest_cycle(*args)


def test_cycle_with_length_parity(ckernels):
    rng, graphs = _instances()
    for g in graphs:
        cap = 10**6 if g.order <= 16 else 20000
        for k in (3, 4, 5, g.order // 2, g.order):
            args = (g.order, g.adjacency_masks(), k, cap, 0.0)
            assert ckernels.cycle_with_length(*args) == pykernels.cycle_with_length(*args)


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

    for cap in (1, 10, 500):
        args = (16, h4.adjacency_masks(), cap, 0.0)
        assert ckernels.longest_cycle(*args) == pykernels.longest_cycle(*args)


def test_status_constants_match(ckernels):
    assert ckernels.FOUND == pykernels.FOUND
    assert ckernels.EXHAUSTED == pykernels.EXHAUSTED
    assert ckernels.BUDGET_EXCEEDED == pykernels.BUDGET_EXCEEDED
