"""Relations that hold by theorem, checked where the oracles cannot reach.

Relabelling: the star and ring potentials of a system do not depend on its
vertex ids.  Every generated spec of order at most 64
(``oracles.generated_topologies``) is relabelled with seeded permutations,
written and read back through ``edgelist``, and its potentials at reach 1-3
must equal the spec's own answer from ``compat.potential``, which answers
``hypercube:s`` by its closed forms.  Every witness must verify against the
power built by ``oracles.power_reference``, which shares no code with the
package's transform.

Power composition: (G^a)^b = G^{ab} for a, b in 1..3 on the same graphs, by
the ball-mask routes (arcs and mask rounds) and, with
``graph._BALL_MASK_MAX_ORDER`` at 0, by the BFS route.

Monotonicity: G^r is a subgraph of G^{r+1}, so no star or ring potential
falls as the reach grows from 1 to 4.  Likewise, at reach 1-3, on every
generated spec of order at most 16 and on seeded random graphs of order at
most 10: a subgraph's powers are subgraphs of the graph's, so adding an edge
never lowers a potential, and deleting an edge or a vertex never raises
one.

Disjoint unions: no ball and no cycle of G + H, nor of its powers, crosses
from one side to the other, so each potential of G + H is the larger of the
two sides'.  Each graph is joined to partners on either side, so a
certificate that reads only one side fails, and an odd ring beside an even
ring keeps the even ring's cycle.
"""

import random
from operator import ge, le

import pytest

from topocompat import Graph, graph
from topocompat.compat import potential, ring_potential_certificate, star_potential_certificate
from topocompat.edgelist import dumps, loads
from topocompat.graph import graph_power
from topocompat.topologies import parse_topology_spec, ring, star
from oracles import generated_topologies, power_reference, random_graph, relabelled

SEEDS = range(5)
REACHES = (1, 2, 3)
SPECS = [label for label, _ in generated_topologies(64)]
FACTORS = (1, 2, 3)
CERTIFICATES = (star_potential_certificate, ring_potential_certificate)
_RNG = random.Random(20261020)
# (label, graph): the graphs that the subgraph and union relations start from
RELATED = generated_topologies(16) + [
    (f"random-{i}", random_graph(_RNG, _RNG.randint(1, 10), _RNG.choice((0.2, 0.35, 0.6))))
    for i in range(12)]
RELATED_IDS = [label for label, _ in RELATED]
# the graphs joined to each of RELATED on either side
PARTNERS = [("ring:5", ring(5)), ("ring:6", ring(6)), ("star:7", star(7)),
            ("random", random_graph(_RNG, 9, 0.4))]


@pytest.mark.parametrize("label", SPECS)
def test_relabelled_file_gives_the_specs_potentials(label):
    spec = parse_topology_spec(label)
    answers = {(task, reach): potential(spec, task, reach)[0].potential_p
               for task in ("star", "ring") for reach in REACHES}
    for seed in SEEDS:
        g = loads(dumps(relabelled(spec.build(), seed)))
        for reach in REACHES:
            power = power_reference(g, reach)
            p, (center, leaves) = star_potential_certificate(g, reach)
            assert p == answers["star", reach] == 1 + len(leaves), (seed, reach)
            assert all(tuple(sorted((center, v))) in power for v in leaves), (seed, reach)
            p, cycle = ring_potential_certificate(g, reach)
            assert p == answers["ring", reach], (seed, reach)
            if p:
                assert len(set(cycle)) == len(cycle) == p >= 3, (seed, reach)
                assert all(tuple(sorted((cycle[i - 1], cycle[i]))) in power
                           for i in range(p)), (seed, reach)


@pytest.mark.parametrize("mask_order", [graph._BALL_MASK_MAX_ORDER, 0], ids=["masks", "bfs"])
def test_powers_compose(mask_order, monkeypatch):
    monkeypatch.setattr(graph, "_BALL_MASK_MAX_ORDER", mask_order)
    for label, g in generated_topologies(64):
        powers = {a * b: graph_power(g, a * b) for a in FACTORS for b in FACTORS}
        for a in FACTORS:
            for b in FACTORS:
                assert graph_power(powers[a], b) == powers[a * b], (label, a, b)


@pytest.mark.parametrize("label", SPECS)
def test_potentials_never_fall_as_the_reach_grows(label):
    g = parse_topology_spec(label).build()
    for potential_of in (star_potential_certificate, ring_potential_certificate):
        ps = [potential_of(g, reach)[0] for reach in range(1, 5)]
        assert ps == sorted(ps), (label, potential_of.__name__, ps)


def _potentials(g):
    """g's star potentials at reach 1-3, then its ring potentials."""
    return [certificate(g, reach)[0] for certificate in CERTIFICATES for reach in REACHES]


def _union(g, h):
    """G + H: h's vertices follow g's."""
    return Graph(g.order + h.order,
                 sorted(g.edges) + [(u + g.order, v + g.order) for u, v in sorted(h.edges)])


@pytest.mark.parametrize("label,g", RELATED, ids=RELATED_IDS)
def test_adding_an_edge_never_lowers_a_potential(label, g):
    present = g.edges
    missing = [(u, v) for u in range(g.order) for v in range(u + 1, g.order)
               if (u, v) not in present]
    before = _potentials(g)
    for edge in random.Random(label).sample(missing, min(3, len(missing))):
        after = _potentials(Graph(g.order, sorted(g.edges) + [edge]))
        assert all(map(le, before, after)), (edge, before, after)


@pytest.mark.parametrize("label,g", RELATED, ids=RELATED_IDS)
def test_deleting_an_edge_never_raises_a_potential(label, g):
    edges = sorted(g.edges)
    before = _potentials(g)
    for edge in random.Random(label).sample(edges, min(3, len(edges))):
        after = _potentials(Graph(g.order, [e for e in edges if e != edge]))
        assert all(map(ge, before, after)), (edge, before, after)


@pytest.mark.parametrize("label,g", RELATED, ids=RELATED_IDS)
def test_deleting_a_vertex_never_raises_a_potential(label, g):
    before = _potentials(g)
    # a graph keeps at least one vertex
    for x in random.Random(label).sample(range(g.order), min(3, g.order - 1)):
        # the vertices above x move down one
        h = Graph(g.order - 1, [(u - (u > x), v - (v > x)) for u, v in sorted(g.edges)
                                if x not in (u, v)])
        after = _potentials(h)
        assert all(map(ge, before, after)), (x, before, after)


@pytest.mark.parametrize("label,g", RELATED, ids=RELATED_IDS)
def test_a_disjoint_union_takes_the_larger_potential(label, g):
    mine = _potentials(g)
    for other, h in PARTNERS:
        expected = list(map(max, mine, _potentials(h)))
        assert _potentials(_union(g, h)) == expected, (label, "+", other)
        assert _potentials(_union(h, g)) == expected, (other, "+", label)


def test_an_odd_ring_beside_an_even_ring_keeps_the_even_cycle():
    # C5 + C6, either way round: at reach 1 the longest cycle is the C6; at reach 2
    # C5 squared is K5 and C6 squared is Hamiltonian; at reach 3 both are complete
    for first, second in ((ring(5), ring(6)), (ring(6), ring(5))):
        union = _union(first, second)
        assert _potentials(union) == [3, 5, 6, 6, 6, 6]
        six = set(range(5, 11)) if first.order == 5 else set(range(6))
        assert set(ring_potential_certificate(union, 1)[1]) == six
