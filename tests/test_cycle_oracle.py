"""Longest cycles and ring orders against brute force, on both kernel backends.

The ring certificate at reach 1 (``compat.ring_potential_certificate``)
relabels the host low degree first and runs the peeling cycle search (a
4-cycle, which is H_2 under some labels, takes the Gray cycle instead); the
kernel entry ``cycle_with_length`` is run on the same labels for every ring
order.  The brute-force oracle tries every vertex sequence; the depth-first
reference, which the exit-contract fuzz uses above order 8, is checked
against it too.  They are compared on every labelled graph of order <= 5
and on seeded random graphs of orders 6-10, disconnected ones included.
"""

import random
from functools import lru_cache
from itertools import combinations

import pytest

from topocompat import _kernels, from_edge_list
from topocompat._kernels import FOUND, pykernels
from topocompat.compat import ring_potential_certificate
from topocompat.embedding import _anchor_order
from oracles import (brute_force_cycle_orders, is_valid_cycle, longest_cycle_reference,
                     random_graph)

# (order, graphs of that order): few at 9-10, where the oracle takes ~0.5 s a graph
RANDOM_COUNTS = ((6, 40), (7, 40), (8, 30), (9, 6), (10, 3))


def _all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield from_edge_list(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


def _random_graphs():
    rng = random.Random(6)
    for n, count in RANDOM_COUNTS:
        for i in range(count):
            if i % 3 == 2:  # two random parts with no edge between them
                cut = rng.randint(1, n - 1)
                a = random_graph(rng, cut, rng.choice((0.5, 0.8)))
                b = random_graph(rng, n - cut, rng.choice((0.5, 0.8)))
                yield from_edge_list(n, list(a.edges) + [(u + cut, v + cut) for u, v in b.edges])
            else:
                yield random_graph(rng, n, rng.choice((0.25, 0.4, 0.6, 0.8)))


@lru_cache(maxsize=None)
def _cases():
    """(graph, its cycle orders by brute force), computed once for both backends."""
    graphs = [g for n in range(1, 6) for g in _all_graphs(n)] + list(_random_graphs())
    return [(g, brute_force_cycle_orders(g, g.order)) for g in graphs]


@pytest.fixture(params=("pure", "compiled"))
def backend(request, monkeypatch):
    """Route every search through one backend, and return it."""
    kern = request.getfixturevalue("ckernels") if request.param == "compiled" else pykernels
    monkeypatch.setattr(_kernels, "kernels_for", lambda order: kern)
    return kern


def test_case_mix():
    cases = _cases()
    assert len(cases) == 1 + 2 + 8 + 64 + 1024 + sum(count for _, count in RANDOM_COUNTS)
    lengths = {max(orders, default=0) for _, orders in cases}
    assert lengths == set(range(11)) - {1, 2}


def test_depth_first_reference_matches_brute_force():
    # the exit-contract fuzz checks files of order 9-16 against this reference
    for g, orders in _cases():
        assert longest_cycle_reference(g) == max(orders, default=0), g.sorted_edges()


def test_longest_cycle_matches_brute_force(backend):
    for g, orders in _cases():
        length, witness = ring_potential_certificate(g, 1)
        assert length == longest_cycle_reference(g) == max(orders, default=0), g.sorted_edges()
        if length:
            assert len(witness) == length and is_valid_cycle(g, witness), g.sorted_edges()
        else:
            assert witness is None


def test_ring_orders_match_brute_force(backend):
    for g, orders in _cases():
        masks = _anchor_order(g)[1]
        found = {p for p in range(3, g.order + 1)
                 if backend.cycle_with_length(g.order, masks, p, 10**8, 0.0)[0] == FOUND}
        assert found == orders, g.sorted_edges()
