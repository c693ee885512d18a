"""Graph construction, distances, and the reachability transform."""

import math
import re
import random

import pytest

from topocompat import (
    Graph,
    InvalidEdge,
    InvalidParameter,
    InvalidReachability,
    InvalidVertex,
    complete,
    from_edge_list,
    graph_power,
    hypercube,
    ring,
    star,
)
from topocompat import graph
from topocompat.compat import star_potential_certificate
from topocompat.edgelist import dumps
from topocompat.graph import hypercube_labels
from oracles import (
    all_pairs_distances,
    chord_ring,
    diameter,
    generated_topologies,
    largest_ball_reference,
    power_reference,
    random_graph,
    relabelled,
)


def star_witness(g, reach):
    """The star certificate's (first centre, leaves), once its potential is
    one plus the leaves."""
    p, ball = star_potential_certificate(g, reach)
    assert p == 1 + len(ball[1])
    return ball


def _power_samples():
    """Seeded random graphs, many disconnected or with isolated vertices."""
    rng = random.Random(20261017)
    graphs = [random_graph(rng, rng.randint(1, 14), rng.choice((0.1, 0.2, 0.35, 0.6)))
              for _ in range(40)]
    graphs += [from_edge_list(1, []), from_edge_list(5, []),
               from_edge_list(8, [(0, 1), (1, 2), (4, 5), (5, 6), (6, 4)])]
    # dense and degenerate rows: complete graphs, stars, K_{a,b}
    graphs += [complete(2), complete(9), star(2), star(11),
               from_edge_list(7, [(u, v) for u in range(3) for v in range(3, 7)]),
               from_edge_list(9, [(u, v) for u in range(1) for v in range(1, 9)] + [(2, 5)])]
    return graphs


POWER_SAMPLES = _power_samples()


class TestFromEdgeList:
    def test_path_graph(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.order == 3
        assert g.edges == {(0, 1), (1, 2)}

    def test_duplicates_and_reversals_collapse(self):
        g = from_edge_list(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 0)])
        assert g.num_edges == 4
        assert g == ring(4)

    def test_endpoint_out_of_range(self):
        with pytest.raises(InvalidVertex):
            from_edge_list(2, [(0, 2)])

    @pytest.mark.parametrize("u", [5, -1, 1.0, "1"])
    def test_first_endpoint_out_of_range(self, u):
        # -1 would index vertex 2's list, and 5 past the end, without the check;
        # 1.0 and "1" are no vertex ids at all
        message = (f"vertex {u} out of range 0..2" if type(u) is int
                   else f"vertex must be an integer, got {u!r}")
        with pytest.raises(InvalidVertex, match=re.escape(message)):
            from_edge_list(3, [(u, 0)])

    @pytest.mark.parametrize("v", [1.0, "1"])
    def test_second_endpoint_must_be_an_integer(self, v):
        with pytest.raises(InvalidVertex, match=re.escape(f"vertex must be an integer, got {v!r}")):
            from_edge_list(3, [(0, v)])

    @pytest.mark.parametrize("n", [2.0, "3", None])
    def test_order_must_be_an_integer(self, n):
        with pytest.raises(InvalidParameter,
                           match=re.escape(f"graph order must be an integer, got {n!r}")):
            from_edge_list(n, [])

    def test_order_is_held_as_an_int(self):
        assert repr(from_edge_list(True, [])) == "Graph(n=1, m=0)"

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidEdge):
            from_edge_list(3, [(1, 1)])

    def test_neighbors_sorted(self):
        g = from_edge_list(4, [(2, 0), (0, 3), (0, 1)])
        assert g.neighbors(0) == (1, 2, 3)
        assert g.degree(0) == 3

    @pytest.mark.parametrize("v", [-1, 5, 1.0, "1"])
    def test_lookups_refuse_a_vertex_out_of_range(self, v):
        # -1 would read the last row, and 5 past the end, without the check;
        # 1.0 and "1" are no vertex ids at all
        g = ring(5)
        message = (f"vertex {v} out of range 0..4" if type(v) is int
                   else f"vertex must be an integer, got {v!r}")
        for lookup in (g.neighbors, g.degree):
            with pytest.raises(InvalidVertex, match=re.escape(message)):
                lookup(v)

    def test_a_graph_equals_no_other_type(self):
        assert (ring(5) == "x") is False
        assert ring(5) != "x"


class TestDistances:
    def test_ring_four_max_distance(self):
        dm = all_pairs_distances(ring(4))
        assert dm.max_finite() == 2

    @pytest.mark.parametrize("s", range(1, 7))
    def test_hypercube_distance_is_hamming(self, s):
        g = hypercube(s)
        dm = all_pairs_distances(g)
        for u in range(g.order):
            for v in range(g.order):
                assert dm.get(u, v) == bin(u ^ v).count("1")

    def test_disconnected_pairs_unreachable(self):
        g = from_edge_list(2, [])
        dm = all_pairs_distances(g)
        assert dm.get(0, 1) is None
        assert dm.get(0, 0) == 0

    @pytest.mark.parametrize("label,g", generated_topologies(64))
    def test_symmetry_and_triangle_inequality(self, label, g):
        dm = all_pairs_distances(g)
        n = g.order
        rows = [dm.row(u) for u in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                assert rows[u][v] == rows[v][u]
        for u in range(n):
            ru = rows[u]
            for w in range(n):
                duw = ru[w]
                if duw is None:
                    continue
                for duv, dwv in zip(ru, rows[w]):
                    if duv is not None and dwv is not None:
                        assert duv <= duw + dwv


def _saturating_reach(g):
    """The least reach whose power is complete, None when no reach up to the
    order makes it so: the diameter of a connected g of order >= 2."""
    full = g.order * (g.order - 1) // 2
    return next((r for r in range(1, g.order + 1) if graph_power(g, r).num_edges == full), None)


class TestDiameter:
    """The transform saturates at the diameter, and not before."""

    @pytest.mark.parametrize("s", range(1, 9))
    def test_hypercube(self, s):
        assert _saturating_reach(hypercube(s)) == s

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_complete(self, n):
        assert _saturating_reach(complete(n)) == 1

    @pytest.mark.parametrize("p", [3, 5, 9])
    def test_star(self, p):
        assert _saturating_reach(star(p)) == 2

    def test_single_vertex(self):
        assert all(graph_power(complete(1), r) == complete(1) for r in (1, 2, 5))

    def test_disconnected_is_infinite(self):
        g = from_edge_list(3, [(0, 1)])
        assert _saturating_reach(g) is None
        assert graph_power(g, 5).edges == {(0, 1)}


class TestGraphPower:
    @pytest.mark.parametrize("label,g", generated_topologies(64))
    def test_identity_at_reach_one(self, label, g):
        assert graph_power(g, 1) == g

    def test_square_of_four_cycle_is_complete(self):
        assert graph_power(hypercube(2), 2) == complete(4)

    def test_square_of_path_is_triangle(self):
        assert graph_power(from_edge_list(3, [(0, 1), (1, 2)]), 2) == complete(3)

    @pytest.mark.parametrize("reach", [0, 2.0, 2.5, "2"])
    def test_reach_zero_rejected(self, reach):
        with pytest.raises(InvalidReachability):
            graph_power(ring(5), reach)

    @pytest.mark.parametrize("label,g", generated_topologies(32))
    def test_edge_monotonicity(self, label, g):
        prev = graph_power(g, 1)
        for reach in range(2, 6):
            cur = graph_power(g, reach)
            assert prev.edges <= cur.edges
            prev = cur

    @pytest.mark.parametrize("label,g", generated_topologies(32))
    def test_saturation_at_diameter(self, label, g):
        d = diameter(g)
        if d == math.inf:
            pytest.skip("disconnected")
        assert graph_power(g, max(d, 1)) == complete(g.order)

    def test_power_of_disconnected_stays_per_component(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        assert graph_power(g, 3).edges == {(0, 1), (2, 3)}


def _power_views(power):
    """What a graph answers, by name; each is read only when called."""
    n = power.order
    return {
        "num_edges": lambda: power.num_edges,
        "adjacency_masks": power.adjacency_masks,
        "dumps": lambda: dumps(power),
        "edges": lambda: sorted(power.edges),
        "hash": lambda: hash(power),
        "neighbors": lambda: [power.neighbors(v) for v in range(n)],
        "degree": lambda: [power.degree(v) for v in range(n)],
    }


class TestGraphPowerAgainstReference:
    def test_samples_cover_disconnected_and_isolated(self):
        assert sum(diameter(g) == math.inf for g in POWER_SAMPLES) >= 10
        assert sum(any(g.degree(v) == 0 for v in range(g.order)) for g in POWER_SAMPLES) >= 10

    @pytest.mark.parametrize("g", POWER_SAMPLES)
    def test_matches_reference_at_every_reach(self, g):
        n = g.order
        for reach in range(1, n + 1):
            power = graph_power(g, reach)
            expected = power_reference(g, reach)
            assert power.edges == expected
            assert power.num_edges == len(expected)
            for u in range(n):
                row = [v for v in range(n) if (min(u, v), max(u, v)) in expected]
                assert power.neighbors(u) == tuple(row)

    @pytest.mark.parametrize("g", POWER_SAMPLES)
    def test_same_content_either_constructor(self, g):
        # graph_power wraps its masks or tuples directly; Graph(n, edges) validates
        # and sorts.  Each view is asked of a fresh power, so that it is read first.
        for reach in range(1, g.order + 1):
            built = Graph(g.order, sorted(power_reference(g, reach), reverse=True))
            for name, view in _power_views(built).items():
                assert _power_views(graph_power(g, reach))[name]() == view(), name
            assert graph_power(g, reach) == built and built == graph_power(g, reach)
            assert graph_power(g, reach).edges == built.edges

    def test_power_holds_masks_up_to_the_cap(self):
        power = graph_power(ring(10), 2)
        held = graph._BALL_MASK_MAX_ORDER >= 10
        assert (power._rows is None) is held and (power._masks is not None) is held

    @pytest.mark.parametrize("g", POWER_SAMPLES)
    def test_largest_ball_is_one_plus_power_degree(self, g):
        for reach in range(1, g.order + 1):
            expected = 1 + graph_power(g, reach).max_degree()
            assert 1 + len(star_witness(g, reach)[1]) == expected

    @pytest.mark.parametrize("g", POWER_SAMPLES)
    def test_largest_ball_is_the_first_max_degree_row(self, g):
        for reach in range(1, g.order + 1):
            power = graph_power(g, reach)
            center = max(range(power.order), key=power.degree)
            assert star_witness(g, reach) == (center, power.neighbors(center))


class TestMaskHeldPowerIsNotDecoded:
    @pytest.fixture
    def no_rows(self, monkeypatch):
        def refuse(masks):
            raise AssertionError("rows made")

        monkeypatch.setattr(graph, "_rows_of", refuse)

    @pytest.mark.parametrize("g", POWER_SAMPLES)
    def test_power_is_written_from_its_masks(self, g, no_rows):
        for reach in range(2, 5):
            expected = Graph(g.order, power_reference(g, reach))
            power = graph_power(g, reach)
            assert dumps(power) == dumps(expected)
            assert power.num_edges == expected.num_edges
            assert sorted(power.edges) == sorted(expected.edges)
            assert power.adjacency_masks() == expected.adjacency_masks()

    @pytest.mark.parametrize("g,reach,edges", [
        (hypercube(12), 3, 4096 * (12 + 66 + 220) // 2), (ring(4096), 64, 4096 * 64),
        (chord_ring(4096), 2, 4096 * 2 + 5),
    ])
    def test_largest_mask_path_powers(self, g, reach, edges, no_rows):
        assert g.order == graph._BALL_MASK_MAX_ORDER
        power = graph_power(g, reach)
        lines = dumps(power).splitlines()
        assert lines[0] == f"{g.order} {edges}" and len(lines) == 1 + edges
        assert lines[1].startswith("0 1") and lines[-1] == f"{g.order - 2} {g.order - 1}"


class TestGraphPowerAgainstReferenceAboveCap(TestGraphPowerAgainstReference):
    """The same checks on the per-vertex BFS path that serves orders above the cap."""

    @pytest.fixture(autouse=True)
    def _bfs_path(self, monkeypatch):
        monkeypatch.setattr(graph, "_BALL_MASK_MAX_ORDER", 0)


class TestBallMasks:
    """Each mask ball is the BFS ball: from round 2 on a vertex's own previous
    ball is left out of the OR, so vertices with and without neighbours both count."""

    @pytest.mark.parametrize("g", POWER_SAMPLES + [
        from_edge_list(6, [(0, 1), (1, 2), (4, 5)]),  # 3 isolated, a path and an edge
        from_edge_list(4, []),
    ])
    def test_balls_match_bfs(self, g):
        for reach in range(1, 5):
            balls = list(graph._balls(g, reach, None, "test"))
            expected = [sum(1 << u for u in graph._bfs_levels(g, v, cutoff=reach))
                        for v in range(g.order)]
            assert balls == expected, reach


class TestPowerPathSelection:
    @pytest.mark.parametrize("order,masks", [(4096, True), (4097, False)])
    def test_cap_selects_the_path(self, order, masks, monkeypatch):
        calls = []
        bfs_balls = graph._bfs_balls

        def counting(g, reach, *deadline):
            calls.append(g.order)
            return bfs_balls(g, reach, *deadline)

        monkeypatch.setattr(graph, "_bfs_balls", counting)
        g = chord_ring(order)  # the bound does not decide it, so the pass runs
        power = graph_power(g, 2)
        half = order // 2
        assert power.neighbors(0) == (1, 2, half - 1, half, half + 1, order - 2, order - 1)
        assert star_potential_certificate(g, 2)[0] == 8
        assert calls == ([] if masks else [order, order])


def _bracket_samples():
    """Seeded random graphs of order 1-40, many disconnected or with isolated
    vertices, and paths, rings, stars, complete and complete bipartite graphs,
    trees, and unions with a high-degree vertex outside the largest component."""
    rng = random.Random(20261018)
    graphs = [random_graph(rng, rng.randint(1, 40), rng.choice((0.03, 0.06, 0.1, 0.2, 0.4)))
              for _ in range(40)]
    graphs += [from_edge_list(n, [(v, v + 1) for v in range(n - 1)]) for n in (1, 2, 3, 4, 7, 16)]
    graphs += [ring(n) for n in (3, 4, 5, 12)] + [chord_ring(n) for n in (8, 13)]
    graphs += [star(n) for n in (2, 3, 9)] + [complete(n) for n in (1, 2, 5, 8)]
    graphs += [from_edge_list(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])
               for a, b in ((1, 1), (2, 5), (4, 4), (6, 3))]
    graphs += [from_edge_list(n, [(v, rng.randrange(v)) for v in range(1, n)]) for n in (6, 15, 30)]
    # a path, a 6-ring, then a star K_{1,4}, then isolated vertices
    graphs.append(from_edge_list(18, [(0, 1), (1, 2), *((v, 3 + (v - 2) % 6) for v in range(3, 9)),
                                      *((9, v) for v in range(10, 14))]))
    # a star whose center is the last vertex
    graphs.append(from_edge_list(7, [(v, 6) for v in range(6)]))
    return graphs


BRACKET_SAMPLES = _bracket_samples()


class TestBallBound:
    """The bound either gives the pass's answer or defers to it."""

    @pytest.fixture(autouse=True, params=["masks", "bfs"])
    def _path(self, request, monkeypatch):
        if request.param == "bfs":
            monkeypatch.setattr(graph, "_BALL_MASK_MAX_ORDER", 0)

    def test_samples_cover_disconnected_and_isolated(self):
        assert sum(diameter(g) == math.inf for g in BRACKET_SAMPLES) >= 15
        assert sum(any(g.degree(v) == 0 for v in range(g.order)) for g in BRACKET_SAMPLES) >= 10

    @pytest.mark.parametrize("g", BRACKET_SAMPLES)
    def test_same_answer_as_the_pass_at_every_reach(self, g):
        for reach in range(1, g.order + 1):
            assert star_witness(g, reach) == graph._largest_ball_pass(g, reach)

    @pytest.mark.parametrize("degree,reach,cap,expected", [
        (0, 5, 9, 1), (1, 5, 9, 2), (2, 3, 100, 7), (3, 2, 100, 10), (3, 3, 100, 22),
        (12, 2, 4096, 145), (3, 3, 22, 22), (3, 3, 21, 21), (2, 10**12, 16384, 16384),
    ])
    def test_moore_bound(self, degree, reach, cap, expected):
        assert graph._moore_bound(degree, reach, cap) == expected


def _petersen_edges(base):
    """The Petersen graph on base..base + 9: an outer 5-cycle, its spokes and
    an inner pentagram.  It is 3-regular of diameter 2, so its reach-2 balls
    are the whole graph and meet the Moore bound 10."""
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return [(base + u, base + v) for u, v in edges]


class TestBallBoundRoutes:
    """Which queries the bound decides, with the pass forbidden, and in which
    order: the degree probe first, and the component sweep only when it misses."""

    @pytest.fixture
    def no_pass(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the all-balls pass ran")

        monkeypatch.setattr(graph, "_largest_ball_pass", refuse)

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """The order of the graph of each component sweep, as it starts."""
        calls = []
        colored_components = graph._colored_components

        def counting(g):
            calls.append(g.order)
            return colored_components(g)

        monkeypatch.setattr(graph, "_colored_components", counting)
        return calls

    def test_relabelled_ring_is_decided_by_degree(self, no_pass):
        n = 4096
        perm = list(range(n))
        random.Random(4096).shuffle(perm)
        g = from_edge_list(n, [(perm[v], perm[(v + 1) % n]) for v in range(n)])
        at = perm.index(0)
        expected = tuple(sorted(perm[(at + k) % n] for k in range(-32, 33) if k))
        assert star_witness(g, 32) == (0, expected)

    def test_long_ring_at_half_reach(self, no_pass):
        assert star_witness(ring(16384), 8192) == (0, tuple(range(1, 16384)))

    def test_disconnected_is_decided_by_component(self, no_pass):
        # an edge, a 5-ring on 2..6, a star K_{1,3} centered at 7: M = 10 > C = 5
        g = from_edge_list(11, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6), (6, 2),
                                (7, 8), (7, 9), (7, 10)])
        assert graph._moore_bound(3, 2, 11) == 10
        assert star_witness(g, 2) == (2, (3, 4, 5, 6))

    def test_chord_ring_is_not_decided(self):
        assert graph._ball_by_bound(chord_ring(64), 2) is None
        assert star_witness(chord_ring(64), 2) == (0, (1, 2, 31, 32, 33, 62, 63))

    def test_relabelled_ring_is_decided_before_any_sweep(self, monkeypatch, no_pass):
        def refuse(g):
            raise AssertionError("the components were swept")

        monkeypatch.setattr(graph, "_colored_components", refuse)
        n = 4096
        perm = list(range(n))
        random.Random(4096).shuffle(perm)
        g = Graph(n, [(perm[v], perm[(v + 1) % n]) for v in range(n)])
        probes = _counting_bfs(monkeypatch)
        center, leaves = star_witness(g, 32)
        assert center == 0 and len(leaves) == 64 and probes == [0]

    def test_component_decides_after_the_degree_probe_misses(self, monkeypatch, sweeps, no_pass):
        # a star K_{1,3} centred at 0, then a Petersen graph on 4..13:
        # M = C = 10 below n = 14, and the star's centre is the first of degree 3
        g = Graph(14, [(0, 1), (0, 2), (0, 3)] + _petersen_edges(4))
        assert graph._moore_bound(3, 2, g.order) == 10
        probes = _counting_bfs(monkeypatch)
        assert star_witness(g, 2) == (4, tuple(range(5, 14)))
        assert probes == [0, 4] and sweeps == [14]

    def test_recognized_hypercube_makes_no_sweep(self, sweeps):
        g = relabelled(hypercube(12), 12)
        center, leaves = star_witness(g, 2)
        assert sweeps == []
        assert (center, leaves) == graph._largest_ball_pass(g, 2)
        assert center == 0 and len(leaves) == 12 + 66

    def test_chord_ring_is_refused_after_one_sweep(self, monkeypatch, sweeps):
        probes = _counting_bfs(monkeypatch)
        assert graph._ball_by_bound(chord_ring(64), 2) is None
        assert probes == [0] and sweeps == [64]

    def test_capped_moore_bound_skips_the_degree_probe(self, monkeypatch, sweeps, no_pass):
        # the path 0-1-2 at reach 2: M = 3 is the order, so the degree-2
        # vertex 1 is not probed, and the first centre is 0
        probes = _counting_bfs(monkeypatch)
        assert star_witness(Graph(3, [(0, 1), (1, 2)]), 2) == (0, (1, 2))
        assert probes == [0] and sweeps == [3]


def _crossed_cube(s):
    """The crossed cube CQ_s (Efe 1991): s-regular on 2^s vertices, diameter
    ceil((s + 1) / 2).  CQ_s is two copies of CQ_{s-1}, with 0u joined to 1v
    when, for even s, u and v agree in their top bit, and every 2-bit pair
    (u_{2i+1} u_{2i}, v_{2i+1} v_{2i}), 2i + 1 < s - 1, is pair-related:
    00-00, 10-10, 01-11 or 11-01."""
    related = {(0, 0), (2, 2), (1, 3), (3, 1)}
    edges = [(0, 1)]
    for k in range(2, s + 1):
        half = 1 << (k - 1)
        edges += [(u + half, v + half) for u, v in edges]
        edges += [(u, v + half) for u in range(half) for v in range(half)
                  if (k % 2 or (u ^ v) >> (k - 2) & 1 == 0)
                  and all((u >> 2 * i & 3, v >> 2 * i & 3) in related for i in range((k - 1) // 2))]
    return from_edge_list(1 << s, edges)


def _twisted_cube(s):
    """The twisted cube TQ_s, s odd (Hilbers, Koopman & van de Snepscheut
    1987): four copies of TQ_{s-2} by the top two bits.  A vertex whose
    lower s - 2 bits have even parity is also joined across the top bit,
    and one with odd parity across the second bit; every vertex is joined
    across both top bits."""
    edges = [(0, 1)]
    for k in range(3, s + 1, 2):
        low, top, second = 1 << (k - 2), 1 << (k - 1), 1 << (k - 2)
        edges = [(u + c * low, v + c * low) for u, v in edges for c in range(4)]
        for u in range(1 << k):
            one = top if bin(u % low).count("1") % 2 == 0 else second
            edges += [(u, u ^ flip) for flip in (one, top | second) if u < u ^ flip]
    return from_edge_list(1 << s, edges)


def _switched(s):
    """H_s with its edges 9-13 and 10-14 switched to 9-10 and 13-14, for s >= 4:
    still s-regular, and every BFS label is distinct, but 9-10 flips two bits."""
    switched = {(9, 13), (10, 14)}
    return from_edge_list(1 << s, [e for e in hypercube(s).edges if e not in switched]
                          + [(9, 10), (13, 14)])


# A 4-regular graph on 16 vertices: 0, its neighbours 1-4, then two vertices
# each on 1 and 2 (5, 6) and on 3 and 4 (7, 8), one on 1 and 3 (9) and one on
# 2 and 4 (10), then 11-14 above them and 15 on top.  Its BFS labels are
# FOLDED_LABELS: every edge flips one bit, as in H4, but 12 and 34 in bits
# (labels 3 and 12) repeat, and 14 and 23 never occur.
FOLDED = from_edge_list(16, [(0, 1), (0, 2), (0, 3), (0, 4)]
                        + [(v, w) for v in (5, 6) for w in (1, 2, 11, 12)]
                        + [(v, w) for v in (7, 8) for w in (3, 4, 13, 14)]
                        + [(9, w) for w in (1, 3, 11, 13)] + [(10, w) for w in (2, 4, 12, 14)]
                        + [(15, w) for w in (11, 12, 13, 14)])
FOLDED_LABELS = [0, 1, 2, 4, 8, 3, 3, 12, 12, 5, 10, 7, 11, 13, 14, 15]


def _four_cycles(g):
    """The number of 4-cycles of g: pairs of common neighbours, per pair of vertices, halved."""
    rows = [set(g.neighbors(v)) for v in range(g.order)]
    return sum(math.comb(len(rows[u] & rows[v]), 2)
               for u in range(g.order) for v in range(u + 1, g.order)) // 2


def _is_hypercube_labelling(g, labels):
    """Whether labels map g onto H_s, edge for edge: the test's own isomorphism check."""
    s = g.order.bit_length() - 1
    mapped = {tuple(sorted((labels[u], labels[v]))) for u, v in g.edges}
    return sorted(labels) == list(range(g.order)) and mapped == hypercube(s).edges


class TestHypercubeLabels:
    """``hypercube_labels`` recognizes H_s under any labelling and nothing else."""

    @pytest.mark.parametrize("s", range(1, 9))
    def test_every_relabelling_is_recognized(self, s):
        for seed in range(20):
            g = relabelled(hypercube(s), seed)
            assert _is_hypercube_labelling(g, hypercube_labels(g)), seed

    def test_four_by_four_torus_is_h4(self):
        # C4 x C4, with C4 = H2: vertex 4i + j is joined to 4(i + 1) + j and 4i + j + 1, mod 4
        g = from_edge_list(16, [edge for i in range(4) for j in range(4)
                                for edge in ((4 * i + j, 4 * ((i + 1) % 4) + j),
                                             (4 * i + j, 4 * i + (j + 1) % 4))])
        for h in (g, relabelled(g, 16)):
            assert _is_hypercube_labelling(h, hypercube_labels(h))

    @pytest.mark.parametrize("s,g", [(4, _crossed_cube(4)), (5, _crossed_cube(5)),
                                     (5, _twisted_cube(5))], ids=["CQ4", "CQ5", "TQ5"])
    def test_crossed_and_twisted_cubes_are_refused(self, s, g):
        assert g.order == 1 << s and {g.degree(v) for v in range(g.order)} == {s}
        assert diameter(g) == (s + 2) // 2 != s  # so g is not H_s
        for seed in range(5):
            assert hypercube_labels(relabelled(g, seed)) is None
        assert hypercube_labels(g) is None

    @pytest.mark.parametrize("s", range(4, 9))
    def test_a_two_switch_is_refused(self, s):
        g = _switched(s)
        assert {g.degree(v) for v in range(g.order)} == {s}
        assert _four_cycles(g) != 2 ** (s - 2) * math.comb(s, 2) == _four_cycles(hypercube(s))
        assert hypercube_labels(g) is None
        assert hypercube_labels(relabelled(g, s)) is None

    def test_repeated_labels_are_refused(self):
        g = FOLDED
        assert {g.degree(v) for v in range(16)} == {4}
        assert all((FOLDED_LABELS[u] ^ FOLDED_LABELS[v]).bit_count() == 1 for u, v in g.edges)
        # 5 and 6 have four common neighbours; two vertices of H_s have at most two
        assert len(set(g.neighbors(5)) & set(g.neighbors(6))) == 4
        assert _four_cycles(g) != 24
        assert hypercube_labels(g) is None

    @pytest.mark.parametrize("g", [
        complete(3), Graph(8, []), from_edge_list(4, [(0, 1), (2, 3)]),
        # two disjoint K4: 3-regular on 8 vertices, and 4-7 never reached
        from_edge_list(8, [(u + k, v + k) for u, v in complete(4).edges for k in (0, 4)]),
    ])
    def test_wrong_order_degree_or_connectivity_is_refused(self, g):
        assert hypercube_labels(g) is None


class TestRecognizedStar:
    """The star of a recognized H_s is the ball of vertex 0, taken after both probes miss."""

    @pytest.fixture
    def recognitions(self, monkeypatch):
        """The order of the graph of each ``hypercube_labels`` call, as it starts."""
        calls = []
        labels = graph.hypercube_labels

        def counting(g):
            calls.append(g.order)
            return labels(g)

        monkeypatch.setattr(graph, "hypercube_labels", counting)
        return calls

    @pytest.mark.parametrize("s", range(2, 8))
    def test_reach_one_is_decided_by_the_degree_probe(self, s, recognitions):
        g = relabelled(hypercube(s), s)
        assert star_witness(g, 1) == graph._largest_ball_pass(g, 1)
        assert recognitions == []

    @pytest.mark.parametrize("s", range(3, 8))
    def test_every_reach_below_s_is_the_ball_of_zero(self, s, recognitions, monkeypatch):
        g = relabelled(hypercube(s), 100 + s)
        expected = {reach: graph._largest_ball_pass(g, reach) for reach in range(2, s)}

        def refuse(*args):
            raise AssertionError("the all-balls pass ran")

        monkeypatch.setattr(graph, "_largest_ball_pass", refuse)
        for reach in range(2, s):
            assert star_witness(g, reach) == expected[reach] == largest_ball_reference(g, reach)
        assert recognitions == [g.order] * (s - 2)

    def test_a_near_miss_goes_to_the_pass(self, recognitions):
        g = _switched(5)
        assert star_witness(g, 2) == graph._largest_ball_pass(g, 2) == largest_ball_reference(g, 2)
        assert recognitions == [32]


class TestPowerEdgeCap:
    def test_cap_is_the_edge_count_of_h20(self):
        assert graph._POWER_MAX_EDGES == 20 * 2**19 == 10_485_760

    def test_mask_path_counts_before_any_row(self, monkeypatch):
        monkeypatch.setattr(graph, "_POWER_MAX_EDGES", 20)
        assert graph_power(ring(10), 2).num_edges == 20

        def no_rows(balls):
            raise AssertionError("rows made")

        monkeypatch.setattr(graph, "_rows_of", no_rows)
        with pytest.raises(InvalidParameter, match="^the reach-3 transform has more than 20 edges"):
            graph_power(ring(10), 3)

    def test_bfs_path_counts_as_rows_are_made(self, monkeypatch):
        monkeypatch.setattr(graph, "_BALL_MASK_MAX_ORDER", 0)
        monkeypatch.setattr(graph, "_POWER_MAX_EDGES", 20)
        assert graph_power(ring(10), 2).num_edges == 20
        calls = _counting_bfs(monkeypatch)
        with pytest.raises(InvalidParameter, match="^the reach-3 transform has more than 20 edges"):
            graph_power(ring(10), 3)
        # rows of 6 entries pass 2 * 20 at the seventh row
        assert calls == list(range(7))


def _counting_bfs(monkeypatch):
    """Record the source of every ``_bfs_levels`` call from here on."""
    calls = []
    bfs_levels = graph._bfs_levels

    def counting(g, source, cutoff):
        calls.append(source)
        return bfs_levels(g, source, cutoff)

    monkeypatch.setattr(graph, "_bfs_levels", counting)
    return calls


class TestPowerEntriesFloor:
    """The BFS path refuses an oversized power before any BFS."""

    def test_refused_before_any_bfs(self, monkeypatch):
        monkeypatch.setattr(graph, "_BALL_MASK_MAX_ORDER", 0)
        monkeypatch.setattr(graph, "_POWER_MAX_EDGES", 20)
        calls = _counting_bfs(monkeypatch)
        # 10 rows of at least min(10, 6) - 1 = 5 entries: 50 > 2 * 20
        with pytest.raises(InvalidParameter, match="^the reach-5 transform has more than 20 edges"):
            graph_power(ring(10), 5)
        assert calls == []

    def test_at_the_cap_the_rows_are_counted(self, monkeypatch):
        monkeypatch.setattr(graph, "_BALL_MASK_MAX_ORDER", 0)
        monkeypatch.setattr(graph, "_POWER_MAX_EDGES", 20)
        calls = _counting_bfs(monkeypatch)
        assert graph._power_entries_floor(ring(10), 4) == 40
        with pytest.raises(InvalidParameter, match="^the reach-4 transform has more than 20 edges"):
            graph_power(ring(10), 4)
        # rows of 8 entries pass 2 * 20 at the sixth row
        assert calls == list(range(6))

    def test_long_ring_at_half_reach(self, monkeypatch):
        calls = _counting_bfs(monkeypatch)
        with pytest.raises(InvalidParameter, match="^the reach-32768 transform has more than "):
            graph_power(ring(65536), 32768)
        assert calls == []

    def test_neighbour_degrees_refuse_what_component_orders_do_not(self, monkeypatch):
        monkeypatch.setattr(graph, "_BALL_MASK_MAX_ORDER", 0)
        monkeypatch.setattr(graph, "_POWER_MAX_EDGES", 50)
        calls = _counting_bfs(monkeypatch)
        # H_4 at reach 2: component floor 16 * 2 = 32, neighbour floor
        # 16 * (4 + 4 - 1) = 112, true 16 * 10 = 160, against 2 * 50
        assert graph._power_entries_floor(hypercube(4), 2) == 112
        with pytest.raises(InvalidParameter, match="^the reach-2 transform has more than 50 edges"):
            graph_power(hypercube(4), 2)
        assert calls == []

    @pytest.mark.parametrize("g,reach,floor", [
        (hypercube(4), 1, 16),  # reach 1: the component floor only
        (hypercube(4), 3, 16 * 7),  # the neighbour floor beats 16 * 3
        (ring(12), 2, 12 * 3),  # even ring: 2 + 2 - 1 beats 2
        (ring(11), 2, 11 * 2),  # odd ring: the component floor only
        (ring(12), 5, 12 * 5),  # the component floor beats 3
        # a path 0-1-2-3 (rows 2, 3, 3, 2), a triangle (2 each), a vertex
        (from_edge_list(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 4)]), 2, 16),
    ])
    def test_the_larger_floor_per_vertex(self, g, reach, floor):
        assert graph._power_entries_floor(g, reach) == floor

    @pytest.mark.parametrize("g", POWER_SAMPLES)
    def test_never_above_the_entries(self, g):
        largest = max(c for c, _ in graph._colored_components(g)[1])
        for reach in range(1, 5):
            floor = graph._power_entries_floor(g, reach)
            entries = 2 * graph_power(g, reach).num_edges
            assert floor <= entries
            if largest <= reach + 1:  # every ball is its whole component
                assert floor == entries


def _bipartite(g):
    return all(classes is not None for _, classes in graph._colored_components(g)[1])


class TestBipartite:
    """``graph._colored_components`` finds the odd cycles."""

    @pytest.mark.parametrize("s", range(1, 7))
    def test_hypercubes(self, s):
        assert _bipartite(hypercube(s))

    def test_triangle(self):
        assert not _bipartite(complete(3))

    @pytest.mark.parametrize("p", [2, 5, 17])
    def test_stars(self, p):
        assert _bipartite(star(p))

    @pytest.mark.parametrize("p,expected", [(4, True), (5, False), (6, True), (7, False)])
    def test_rings(self, p, expected):
        assert _bipartite(ring(p)) is expected

    def test_disconnected_with_odd_component(self):
        g = from_edge_list(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
        assert not _bipartite(g)

    def test_component_color_classes(self):
        # a star with 3 leaves, a triangle, a 6-path and an isolated vertex
        edges = [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (4, 6)]
        edges += [(7 + i, 8 + i) for i in range(5)]
        g = from_edge_list(14, edges)
        assert graph._colored_components(g)[1] == [(4, (3, 1)), (3, None), (6, (3, 3)), (1, (1, 0))]


def _ball_order(g, center, reach):
    return len(graph._bfs_levels(g, center, cutoff=reach))


class TestBallSize:
    def test_hypercube_five_radius_two(self):
        g = hypercube(5)
        assert all(_ball_order(g, v, 2) == 16 for v in range(g.order))
        assert star_potential_certificate(g, 2)[0] == 16

    def test_radius_zero(self):
        assert _ball_order(ring(6), 3, 0) == 1
        with pytest.raises(InvalidReachability, match="^reachability must be >= 1, got 0$"):
            star_witness(ring(6), 0)

    def test_long_ring(self):
        assert _ball_order(ring(8), 5, 2) == 5
        assert star_potential_certificate(ring(8), 2)[0] == 5

    @pytest.mark.parametrize("label,g", generated_topologies(32))
    def test_ball_is_one_plus_power_degree(self, label, g):
        if diameter(g) == math.inf:
            pytest.skip("disconnected")
        for reach in (1, 2, 3):
            power = graph_power(g, reach)
            for v in range(g.order):
                assert _ball_order(g, v, reach) == 1 + power.degree(v)
