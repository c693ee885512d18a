"""The arc route of the ball masks: graphs of maximum degree 2, whose
components are paths and cycles, get every reach-ball from a window that
slides along one walk instead of one mask round per unit of reach."""

import random
import time

import pytest

from topocompat import BudgetExceeded, from_edge_list, graph_power, parse_topology_spec
from topocompat.compat import star_potential_certificate
from topocompat import graph
from topocompat.edgelist import dumps
from oracles import chord_ring, largest_ball_reference, path_cycle_union, power_reference


def unions(n, top=None):
    """Every multiset of paths (order >= 1) and cycles (order >= 3) with n
    vertices in all, as lists of (order, is a cycle), largest part first."""
    if n == 0:
        yield []
        return
    top = top or (n, True)
    for k in range(min(n, top[0]), 0, -1):
        for part in ((k, True), (k, False)):
            if part <= top and (k >= 3 or not part[1]):
                for rest in unions(n - k, part):
                    yield [part, *rest]


def critical_reaches(parts):
    """Reaches around where some component's balls wrap, clip or fill it."""
    n = sum(k for k, _ in parts)
    out = {1, 2, n + 2}
    for k, _ in parts:
        out.update(r for r in (k // 2 - 1, k // 2, (k + 1) // 2, k - 2, k - 1, k) if r >= 1)
    return sorted(out)


def random_unions():
    """Seeded random unions of order up to 300, with their critical reaches."""
    rng = random.Random(20261019)
    out = []
    for _ in range(16):
        n, parts = rng.randint(1, 300), []
        while n:
            k = rng.randint(1, n)
            parts.append((k, k >= 3 and rng.random() < 0.6))
            n -= k
        out.append((path_cycle_union(parts, rng), critical_reaches(parts)))
    return out


SMALL = [(n, parts, path_cycle_union(parts, random.Random(len(parts) * 100 + n)))
         for n in range(1, 10) for parts in unions(n)]
RANDOM = random_unions()


def rounds(g, reach):
    return list(graph._round_balls(g._neighbors, reach, None, "test"))


def arcs(g, reach):
    return list(graph._arc_balls(g._neighbors, reach))


class TestArcsEqualRounds:
    def test_small_unions_are_all_there(self):
        # coefficients of x^n in 1 / ((1 - x)(1 - x^2)) * prod_{k >= 3} (1 - x^k)^-2:
        # one path type per order, and a cycle type too from order 3
        assert [sum(n == m for m, _, _ in SMALL) for n in range(1, 10)] == \
            [1, 2, 4, 7, 11, 19, 29, 46, 70]
        assert len({tuple(parts) for _, parts, _ in SMALL}) == len(SMALL)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_small_union_at_every_reach(self, n):
        for m, parts, g in SMALL:
            if m == n:
                for reach in range(1, n + 3):
                    assert arcs(g, reach) == rounds(g, reach), (parts, reach)

    @pytest.mark.parametrize("g,reaches", RANDOM)
    def test_random_unions_up_to_order_300(self, g, reaches):
        for reach in reaches:
            assert arcs(g, reach) == rounds(g, reach), reach

    def test_relabelled_4096_ring(self):
        n = 4096
        g = path_cycle_union([(n, True)], random.Random(4096))
        for reach in (64, 2047):
            balls = list(graph._balls(g, reach, None, "test"))
            assert [b.bit_count() for b in balls] == [2 * reach + 1] * n
            for v in (0, 1, 2047, 4095):
                assert balls[v] == sum(1 << u for u in graph._bfs_levels(g, v, cutoff=reach))
        assert list(graph._balls(g, 2048, None, "test")) == [(1 << n) - 1] * n


class TestPowerOnTheArcRoute:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_small_unions_equal_the_bfs_route(self, n, monkeypatch):
        for m, parts, g in SMALL:
            if m == n:
                for reach in range(1, n + 3):
                    power = graph_power(g, reach)
                    with monkeypatch.context() as bfs:
                        bfs.setattr(graph, "_BALL_MASK_MAX_ORDER", 0)
                        expected = graph_power(g, reach)
                    assert power == expected and dumps(power) == dumps(expected), (parts, reach)

    @pytest.mark.parametrize("g,reaches", RANDOM[:6])
    def test_random_unions_equal_the_bfs_route(self, g, reaches, monkeypatch):
        for reach in reaches:
            power = graph_power(g, reach)
            with monkeypatch.context() as bfs:
                bfs.setattr(graph, "_BALL_MASK_MAX_ORDER", 0)
                expected = graph_power(g, reach)
            assert power == expected and dumps(power) == dumps(expected), reach


class TestRouteSelection:
    @pytest.fixture
    def no_rounds(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("mask rounds ran")

        monkeypatch.setattr(graph, "_round_balls", refuse)

    @pytest.mark.parametrize("parts", [[(64, True)], [(100, False)], [(1, False)] * 5,
                                       [(9, True), (5, False), (3, True), (2, False), (1, False)]])
    def test_degree_two_takes_the_arcs(self, parts, no_rounds):
        g = path_cycle_union(parts, random.Random(7))
        for reach in (1, 2, 3, 4, 5, 33):
            assert graph_power(g, reach).edges == power_reference(g, reach), reach

    def test_one_degree_three_vertex_takes_the_rounds(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("arcs ran")

        monkeypatch.setattr(graph, "_arc_balls", refuse)
        g = chord_ring(64)
        for reach in (2, 5, 32):
            assert graph_power(g, reach).edges == power_reference(g, reach)
        assert star_potential_certificate(g, 2)[1] == (0, (1, 2, 31, 32, 33, 62, 63))


class TestArcDeadline:
    PATH = path_cycle_union([(100, False)], random.Random(100))

    def test_checked_once(self, monkeypatch):
        calls = []
        check = graph._check_deadline

        def counting(deadline, what):
            calls.append(what)
            check(deadline, what)

        monkeypatch.setattr(graph, "_check_deadline", counting)
        graph_power(self.PATH, 40, time.monotonic() + 60)
        assert calls == ["reachability transform"]

    def test_transform_past_the_deadline(self):
        with pytest.raises(BudgetExceeded, match="^reachability transform ran out of time budget$"):
            graph_power(self.PATH, 3, time.monotonic() - 1)

    def test_star_pass_past_the_deadline(self):
        with pytest.raises(BudgetExceeded, match="^largest-ball pass ran out of time budget$"):
            graph._largest_ball_pass(self.PATH, 3, time.monotonic() - 1)


def star_samples():
    """Relabelled paths, cycles and unions of them, with isolated vertices,
    K2s and triangles, plus the built specs ``hypercube:2`` and ``ring:p``."""
    rng = random.Random(20261020)
    parts = [[(k, False)] for k in (1, 2, 3, 4, 7, 30)] + [[(k, True)] for k in (3, 4, 5, 9, 16)]
    parts += [[(1, False)] * 4, [(2, False)] * 3, [(3, True)] * 3,
              [(5, True), (1, False), (1, False)], [(3, True), (2, False), (1, False)],
              [(6, False), (6, True)], [(9, False), (4, True), (2, False)],
              [(12, True), (11, False)], [(4, False), (8, True), (3, True), (1, False)]]
    graphs = [path_cycle_union(p, rng) for p in parts]
    graphs += [parse_topology_spec(spec).build()
               for spec in ("hypercube:2", "ring:3", "ring:8", "ring:11")]
    # a path of order 100 whose vertex 0 is an end: at reach 60 the probe
    # (vertex 0) misses min(M, C) = 100, so the pass decides
    perm = [0] + random.Random(60).sample(range(1, 100), 99)
    graphs.append(from_edge_list(100, [(perm[i], perm[i + 1]) for i in range(99)]))
    return graphs


STAR_SAMPLES = star_samples()


class TestStarOnPathsAndCycles:
    def test_samples_reach_the_pass(self):
        undecided = [(g.order, r) for g in STAR_SAMPLES for r in range(1, g.order + 2)
                     if graph._ball_by_bound(g, r) is None]
        assert len(undecided) >= 100
        assert (100, 60) in undecided

    @pytest.mark.parametrize("g", STAR_SAMPLES)
    def test_largest_ball_is_the_brute_force(self, g):
        for reach in range(1, g.order + 2):
            expected = largest_ball_reference(g, reach)
            p, ball = star_potential_certificate(g, reach)
            assert ball == expected and p == 1 + len(expected[1]), reach
            assert graph._largest_ball_pass(g, reach) == expected, reach
