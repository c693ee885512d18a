"""Graph construction, distances, and the reachability transform."""

import math
import random

import pytest

from topocompat import (
    Graph,
    InvalidEdge,
    InvalidParameter,
    InvalidReachability,
    InvalidVertex,
    complete,
    diameter,
    from_edge_list,
    graph_power,
    hypercube,
    is_bipartite,
    ring,
    star,
    star_potential,
)
from topocompat import graph
from topocompat.graph import component_color_classes, largest_ball
from oracles import (
    all_pairs_distances,
    chord_ring,
    generated_topologies,
    power_reference,
    random_graph,
)


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

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidEdge):
            from_edge_list(3, [(1, 1)])

    def test_neighbors_sorted(self):
        g = from_edge_list(4, [(2, 0), (0, 3), (0, 1)])
        assert g.neighbors(0) == (1, 2, 3)
        assert g.degree(0) == 3


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


class TestDiameter:
    @pytest.mark.parametrize("s", range(1, 9))
    def test_hypercube(self, s):
        assert diameter(hypercube(s)) == s

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_complete(self, n):
        assert diameter(complete(n)) == 1

    @pytest.mark.parametrize("p", [3, 5, 9])
    def test_star(self, p):
        assert diameter(star(p)) == 2

    def test_single_vertex(self):
        assert diameter(complete(1)) == 0

    def test_disconnected_is_infinite(self):
        assert diameter(from_edge_list(3, [(0, 1)])) == math.inf


class TestGraphPower:
    @pytest.mark.parametrize("label,g", generated_topologies(64))
    def test_identity_at_reach_one(self, label, g):
        assert graph_power(g, 1) == g

    def test_square_of_four_cycle_is_complete(self):
        assert graph_power(hypercube(2), 2) == complete(4)

    def test_square_of_path_is_triangle(self):
        assert graph_power(from_edge_list(3, [(0, 1), (1, 2)]), 2) == complete(3)

    def test_reach_zero_rejected(self):
        with pytest.raises(InvalidReachability):
            graph_power(ring(5), 0)

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
                for v in range(n):
                    assert power.has_edge(u, v) == ((min(u, v), max(u, v)) in expected)

    @pytest.mark.parametrize("g", POWER_SAMPLES)
    def test_same_content_either_constructor(self, g):
        # graph_power wraps its tuples directly; Graph(n, edges) validates and sorts
        for reach in range(1, g.order + 1):
            power = graph_power(g, reach)
            built = Graph(g.order, sorted(power_reference(g, reach), reverse=True))
            assert power == built
            assert hash(power) == hash(built)
            assert power.edges == built.edges
            assert power.sorted_edges() == built.sorted_edges()
            assert all(power.neighbors(v) == built.neighbors(v) for v in range(g.order))
            assert power.adjacency_masks() == built.adjacency_masks()

    @pytest.mark.parametrize("g", POWER_SAMPLES)
    def test_largest_ball_is_one_plus_power_degree(self, g):
        for reach in range(1, g.order + 1):
            expected = 1 + graph_power(g, reach).max_degree()
            assert 1 + len(largest_ball(g, reach)[1]) == expected
            assert star_potential(g, reach) == expected

    @pytest.mark.parametrize("g", POWER_SAMPLES)
    def test_largest_ball_is_the_first_max_degree_row(self, g):
        for reach in range(1, g.order + 1):
            power = graph_power(g, reach)
            center = max(range(power.order), key=power.degree)
            assert largest_ball(g, reach) == (center, power.neighbors(center))


class TestGraphPowerAgainstReferenceAboveCap(TestGraphPowerAgainstReference):
    """The same checks on the per-vertex BFS path that serves orders above the cap."""

    @pytest.fixture(autouse=True)
    def _bfs_path(self, monkeypatch):
        monkeypatch.setattr(graph, "_BALL_MASK_MAX_ORDER", 0)


class TestPowerPathSelection:
    @pytest.mark.parametrize("order,masks", [(4096, True), (4097, False)])
    def test_cap_selects_the_path(self, order, masks, monkeypatch):
        calls = []
        ball_masks = graph._ball_masks

        def counting(g, reach, *deadline):
            calls.append(g.order)
            return ball_masks(g, reach, *deadline)

        monkeypatch.setattr(graph, "_ball_masks", counting)
        g = chord_ring(order)  # the bound does not decide it, so the pass runs
        power = graph_power(g, 2)
        half = order // 2
        assert power.neighbors(0) == (1, 2, half - 1, half, half + 1, order - 2, order - 1)
        assert star_potential(g, 2) == 8
        assert calls == ([order, order] if masks else [])


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
        for reach in range(g.order + 1):
            assert largest_ball(g, reach) == graph._largest_ball_pass(g, reach)

    @pytest.mark.parametrize("degree,reach,cap,expected", [
        (0, 5, 9, 1), (1, 5, 9, 2), (2, 3, 100, 7), (3, 2, 100, 10), (3, 3, 100, 22),
        (12, 2, 4096, 145), (3, 3, 22, 22), (3, 3, 21, 21), (2, 10**12, 16384, 16384),
    ])
    def test_moore_bound(self, degree, reach, cap, expected):
        assert graph._moore_bound(degree, reach, cap) == expected


class TestBallBoundRoutes:
    """Which queries the bound decides, with the pass forbidden."""

    @pytest.fixture
    def no_pass(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the all-balls pass ran")

        monkeypatch.setattr(graph, "_largest_ball_pass", refuse)

    def test_relabelled_ring_is_decided_by_degree(self, no_pass):
        n = 4096
        perm = list(range(n))
        random.Random(4096).shuffle(perm)
        g = from_edge_list(n, [(perm[v], perm[(v + 1) % n]) for v in range(n)])
        at = perm.index(0)
        expected = tuple(sorted(perm[(at + k) % n] for k in range(-32, 33) if k))
        assert largest_ball(g, 32) == (0, expected)

    def test_long_ring_at_half_reach(self, no_pass):
        assert largest_ball(ring(16384), 8192) == (0, tuple(range(1, 16384)))

    def test_disconnected_is_decided_by_component(self, no_pass):
        # an edge, a 5-ring on 2..6, a star K_{1,3} centered at 7: M = 10 > C = 5
        g = from_edge_list(11, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6), (6, 2),
                                (7, 8), (7, 9), (7, 10)])
        assert graph._moore_bound(3, 2, 11) == 10
        assert largest_ball(g, 2) == (2, (3, 4, 5, 6))

    def test_chord_ring_is_not_decided(self):
        assert graph._ball_by_bound(chord_ring(64), 2) is None
        assert largest_ball(chord_ring(64), 2) == (0, (1, 2, 31, 32, 33, 62, 63))


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
        calls = []
        bfs_levels = graph._bfs_levels

        def counting(g, source, cutoff=None):
            calls.append(source)
            return bfs_levels(g, source, cutoff)

        monkeypatch.setattr(graph, "_bfs_levels", counting)
        with pytest.raises(InvalidParameter, match="^the reach-3 transform has more than 20 edges"):
            graph_power(ring(10), 3)
        # rows of 6 entries pass 2 * 20 at the seventh row
        assert calls == list(range(7))


class TestBipartite:
    @pytest.mark.parametrize("s", range(1, 7))
    def test_hypercubes(self, s):
        assert is_bipartite(hypercube(s))

    def test_triangle(self):
        assert not is_bipartite(complete(3))

    @pytest.mark.parametrize("p", [2, 5, 17])
    def test_stars(self, p):
        assert is_bipartite(star(p))

    @pytest.mark.parametrize("p,expected", [(4, True), (5, False), (6, True), (7, False)])
    def test_rings(self, p, expected):
        assert is_bipartite(ring(p)) is expected

    def test_disconnected_with_odd_component(self):
        g = from_edge_list(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
        assert not is_bipartite(g)

    def test_component_color_classes(self):
        # a star with 3 leaves, a triangle, a 6-path and an isolated vertex
        edges = [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (4, 6)]
        edges += [(7 + i, 8 + i) for i in range(5)]
        g = from_edge_list(14, edges)
        assert component_color_classes(g) == [(4, (3, 1)), (3, None), (6, (3, 3)), (1, (1, 0))]


def _ball_order(g, center, reach):
    return len(graph._bfs_levels(g, center, cutoff=reach))


class TestBallSize:
    def test_hypercube_five_radius_two(self):
        g = hypercube(5)
        assert all(_ball_order(g, v, 2) == 16 for v in range(g.order))
        assert star_potential(g, 2) == 16

    def test_radius_zero(self):
        assert _ball_order(ring(6), 3, 0) == 1
        assert largest_ball(ring(6), 0) == (0, ())

    def test_long_ring(self):
        assert _ball_order(ring(8), 5, 2) == 5
        assert star_potential(ring(8), 2) == 5

    @pytest.mark.parametrize("label,g", generated_topologies(32))
    def test_ball_is_one_plus_power_degree(self, label, g):
        if diameter(g) == math.inf:
            pytest.skip("disconnected")
        for reach in (1, 2, 3):
            power = graph_power(g, reach)
            for v in range(g.order):
                assert _ball_order(g, v, reach) == 1 + power.degree(v)
