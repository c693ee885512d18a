"""Embedding search, cycle search, and their agreement with brute force."""

import random

import pytest

from topocompat import (
    BudgetExceeded,
    HostTooLarge,
    InvalidParameter,
    SearchBudget,
    complete,
    find_embedding,
    from_edge_list,
    graph_power,
    hypercube,
    ring,
    star,
)
from topocompat import graph
from topocompat._kernels import BUDGET_EXCEEDED, EXHAUSTED, FOUND, pykernels
from topocompat.compat import ring_potential_certificate, star_potential_certificate
from topocompat.embedding import ABSENCE_CHECKS, _anchor_order
from oracles import (brute_force_cycle_orders, brute_force_embeds, is_bipartite, is_embedding,
                     is_valid_cycle, random_graph)


def _disjoint_union(a, b):
    shift = a.order
    return from_edge_list(shift + b.order, list(a.edges) + [(u + shift, v + shift) for u, v in b.edges])


def _random_bipartite(rng, left, right, p):
    return from_edge_list(left + right, [
        (u, left + v) for u in range(left) for v in range(right) if rng.random() < p
    ])


def _random_task(rng):
    kind = rng.choice(("random", "disconnected", "odd ring", "bipartite"))
    if kind == "disconnected":
        return _disjoint_union(random_graph(rng, rng.randint(1, 3), 0.7),
                               random_graph(rng, rng.randint(1, 3), 0.7))
    if kind == "odd ring":
        return ring(rng.choice((3, 5)))
    if kind == "bipartite":
        return _random_bipartite(rng, rng.randint(1, 3), rng.randint(1, 3), 0.7)
    return random_graph(rng, rng.randint(1, 6), rng.choice((0.3, 0.5, 0.8)))


def _random_host(rng):
    kind = rng.choice(("random", "disconnected", "bipartite", "isolated"))
    if kind == "disconnected":
        return _disjoint_union(random_graph(rng, rng.randint(1, 4), 0.6),
                               random_graph(rng, rng.randint(1, 4), 0.6))
    if kind == "bipartite":
        return _random_bipartite(rng, rng.randint(1, 4), rng.randint(1, 3), 0.6)
    if kind == "isolated":
        return _disjoint_union(random_graph(rng, rng.randint(2, 5), 0.6),
                               from_edge_list(rng.randint(1, 2), []))
    return random_graph(rng, rng.randint(1, 7), rng.choice((0.3, 0.5, 0.7)))


class TestFindEmbedding:
    def test_four_cycle_into_hypercube_two(self):
        task, host = ring(4), hypercube(2)
        emb = find_embedding(task, host)
        assert emb is not None
        assert is_embedding(task, host, emb.mapping)

    def test_odd_ring_into_hypercube_absent(self):
        assert find_embedding(ring(3), hypercube(3)) is None

    def test_star_into_squared_hypercube(self):
        host = graph_power(hypercube(3), 2)
        assert find_embedding(star(7), host) is not None
        assert find_embedding(star(8), host) is None

    def test_task_larger_than_host_is_definitive_absent(self):
        assert find_embedding(ring(5), complete(4)) is None

    def test_single_vertex_task(self):
        emb = find_embedding(from_edge_list(1, []), ring(3))
        assert emb is not None and len(emb) == 1

    def test_host_order_cap(self):
        with pytest.raises(HostTooLarge):
            find_embedding(ring(3), ring(65))

    def test_host_order_cap_can_be_raised(self):
        budget = SearchBudget(max_host_order=128)
        emb = find_embedding(ring(3), graph_power(ring(65), 2), budget)
        assert emb is not None

    def test_a_raised_host_cap_stops_where_the_masks_outgrow_the_edge_cap(self):
        # the n-bit masks take about n^2/8 bytes, a power at the cap 16 per edge
        budget = SearchBudget(max_host_order=10**12)
        budget.check_host_order(36635)
        with pytest.raises(HostTooLarge, match="host order 36636 exceeds budget cap 36635"):
            budget.check_host_order(36636)

    def test_deep_search_has_no_recursion_limit(self):
        # the search path is 1200 vertices deep, beyond Python's default
        # recursion limit of 1000
        task = host = ring(1200)
        emb = find_embedding(task, host, SearchBudget(max_host_order=1200))
        assert emb is not None and is_embedding(task, host, emb.mapping)

    def test_node_budget_exhaustion(self):
        # the squared H4 has odd cycles, so only a search can place the ring
        budget = SearchBudget(max_nodes=3)
        with pytest.raises(BudgetExceeded):
            find_embedding(ring(7), graph_power(hypercube(4), 2), budget)

    def test_time_budget_exhaustion(self):
        # K7 is absent from the squared H5, which no pre-check decides: the
        # search must exhaust 65,792 nodes, far more than the deadline-check
        # interval of 4096 nodes
        budget = SearchBudget(time_limit=1e-9)
        with pytest.raises(BudgetExceeded):
            find_embedding(complete(7), graph_power(hypercube(5), 2), budget)

    def test_absence_proof_spends_no_time_budget(self):
        # the bipartite-host pre-check is a proof, so the deadline never matters
        assert find_embedding(ring(11), hypercube(5), SearchBudget(time_limit=1e-9)) is None

    def test_a_host_component_sweep_reads_the_deadline(self):
        # the same proof on H10 sweeps 11,264 units of work, and the sweep reads the
        # deadline once 4096 have built up
        assert find_embedding(ring(11), hypercube(10), SearchBudget(max_host_order=1024)) is None
        with pytest.raises(BudgetExceeded, match="^embedding search ran out of time budget$"):
            find_embedding(ring(11), hypercube(10),
                           SearchBudget(time_limit=1e-9, max_host_order=1024))

    @pytest.mark.parametrize("limit", [float("nan"), float("inf"), 0.0, -1.0])
    def test_time_limit_must_be_finite_and_positive(self, limit):
        # a nan or infinite deadline never fires, so the budget would be ignored
        with pytest.raises(InvalidParameter):
            SearchBudget(time_limit=limit)


class TestAbsenceChecks:
    # absent embeddings, each first proved by the named check
    @pytest.mark.parametrize("name,task,host", [
        ("_degrees_exclude", ring(5), complete(4)),  # more vertices
        ("_degrees_exclude", complete(4), star(5)),  # more edges
        ("_degrees_exclude", star(5), ring(8)),
        # a 4-path has more vertices than either triangle
        ("_components_exclude", from_edge_list(4, [(0, 1), (1, 2), (2, 3)]),
         from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
        # odd cycles, bipartite hosts
        ("_components_exclude", ring(5), hypercube(3)),
        ("_components_exclude", ring(7), hypercube(4)),
        ("_components_exclude", ring(11), hypercube(5)),
        # 15-vertex complete binary tree: classes (10, 5) against H4's (8, 8)
        ("_components_exclude", from_edge_list(15, [(v, (v - 1) // 2) for v in range(1, 15)]),
         hypercube(4)),
        # 6-path: classes (3, 3) against K_{4,2}'s (4, 2)
        ("_components_exclude", from_edge_list(6, [(i, i + 1) for i in range(5)]),
         from_edge_list(6, [(u, v) for u in range(4) for v in (4, 5)])),
    ])
    def test_first_check_to_fire(self, name, task, host):
        fired = [check.__name__ for check in ABSENCE_CHECKS if check(task, host)]
        assert fired[:1] == [name]
        assert find_embedding(task, host, SearchBudget(max_nodes=1)) is None


class TestIsEmbedding:
    """The oracle that checks every witness refuses each way a map can fail."""

    def test_identity_map(self):
        g = hypercube(3)
        assert is_embedding(g, g, tuple(range(8)))

    def test_repeated_host_vertex(self):
        assert not is_embedding(ring(3), complete(4), (0, 1, 1))

    def test_wrong_length(self):
        assert not is_embedding(ring(3), complete(4), (0, 1))

    def test_out_of_range_image(self):
        assert not is_embedding(ring(3), complete(4), (0, 1, 7))
        assert not is_embedding(ring(3), complete(4), (0, 1, -1))

    def test_edge_not_preserved(self):
        assert not is_embedding(ring(4), star(4), (0, 1, 2, 3))


class TestLongestCycle:
    """The ring certificate at reach 1, where the power is the system itself."""

    def test_tree_has_no_cycle(self):
        assert ring_potential_certificate(star(5), 1) == (0, None)

    def test_a_forest_answers_zero_before_any_mask(self, monkeypatch):
        from topocompat import embedding

        def no_masks(*args):
            raise AssertionError("a forest needs no relabelled masks")

        monkeypatch.setattr(embedding, "_anchor_order", no_masks)
        matching = from_edge_list(40_000, [(v, v + 1) for v in range(0, 40_000, 2)])
        assert ring_potential_certificate(matching, 1) == (0, None)
        with pytest.raises(AssertionError, match="no relabelled masks"):
            # a triangle and a vertex
            ring_potential_certificate(from_edge_list(4, [(0, 1), (1, 2), (0, 2)]), 1)

    def test_hypercube_three_is_hamiltonian(self):
        g = hypercube(3)
        length, witness = ring_potential_certificate(g, 1)
        assert length == 8
        assert is_valid_cycle(g, witness)

    def test_complete_four(self):
        g = graph_power(hypercube(2), 2)
        length, witness = ring_potential_certificate(g, 1)
        assert length == 4
        assert is_valid_cycle(g, witness)

    def test_two_triangles_disconnected(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        length, witness = ring_potential_certificate(g, 1)
        assert length == 3
        assert is_valid_cycle(g, witness)

    def test_pure_search_reads_its_deadline_every_4096_anchors(self):
        # a perfect matching: no anchor has two higher neighbours, so no node is expanded
        n = 8192
        masks = [1 << (v ^ 1) for v in range(n)]
        assert pykernels.longest_cycle(n, masks, 10**8, 0.0) == (EXHAUSTED, 0, None, 0)
        assert pykernels.longest_cycle(n, masks, 10**8, 1e-9) == (BUDGET_EXCEEDED, 0, None, 0)
        assert pykernels.longest_cycle(64, masks[:64], 10**8, 1e-9) == (EXHAUSTED, 0, None, 0)

    def test_search_deadline_is_the_budgets_from_the_call(self, monkeypatch):
        import time
        from types import SimpleNamespace

        from topocompat import SearchBudget, _kernels

        seen = []
        kernels_for = _kernels.kernels_for

        def spy_kernels(order):
            def longest_cycle(n, masks, max_nodes, deadline):
                seen.append(deadline)
                return kernels_for(order).longest_cycle(n, masks, max_nodes, deadline)

            return SimpleNamespace(longest_cycle=longest_cycle)

        monkeypatch.setattr(_kernels, "kernels_for", spy_kernels)
        before = time.monotonic()
        # the squared H3 is 6-regular, not H3 under any labels, so it is searched
        host = graph_power(hypercube(3), 2)
        assert ring_potential_certificate(host, 1, SearchBudget(time_limit=100.0))[0] == 8
        assert len(seen) == 1 and before + 100 <= seen[0] <= time.monotonic() + 100

    def test_bipartite_hosts_have_even_longest_cycle(self):
        from oracles import generated_topologies

        checked = 0
        for label, g in generated_topologies(16):
            if not is_bipartite(g):
                continue
            length, _ = ring_potential_certificate(g, 1)
            assert length % 2 == 0, label
            checked += 1
        assert checked >= 10  # hypercubes, even rings, stars, K_1, K_2

    def test_deep_search_has_no_recursion_limit(self):
        # the search path is 1500 vertices deep
        g = ring(1500)
        length, witness = ring_potential_certificate(g, 1)
        assert length == 1500
        assert is_valid_cycle(g, witness)
        status, cycle, _ = pykernels.cycle_with_length(1500, g.adjacency_masks(), 1500, 10**6, 0.0)
        assert status == FOUND and is_valid_cycle(g, cycle)

    def test_trivial_orders(self):
        assert ring_potential_certificate(complete(1), 1) == (0, None)
        assert ring_potential_certificate(complete(2), 1) == (0, None)

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExceeded):
            ring_potential_certificate(graph_power(hypercube(4), 2), 1, SearchBudget(max_nodes=10))

    def test_anchor_order_is_low_degree_first(self):
        # a triangle 0-1-2 with the path 1-3-4 hanging from it: degrees 2, 3, 2, 2, 1
        g = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (1, 3), (3, 4)])
        order, masks = _anchor_order(g)
        assert order == [4, 0, 2, 3, 1]
        label = {u: i for i, u in enumerate(order)}
        assert masks == from_edge_list(5, [(label[u], label[v]) for u, v in g.edges]).adjacency_masks()

    def test_regular_hosts_keep_their_labels(self):
        for g in (ring(9), hypercube(4), graph_power(hypercube(3), 2), complete(5)):
            order, masks = _anchor_order(g)
            assert order == list(range(g.order)) and masks == g.adjacency_masks()


class TestStarPotentialAtReachOne:
    def test_complete_four(self):
        assert star_potential_certificate(complete(4), 1)[0] == 4

    def test_squared_hypercube_five(self):
        assert star_potential_certificate(graph_power(hypercube(5), 2), 1)[0] == 16

    def test_ring(self):
        assert star_potential_certificate(ring(8), 1)[0] == 3

    def test_edgeless(self):
        assert star_potential_certificate(from_edge_list(3, []), 1)[0] == 1


def _ring_orders(host, up_to):
    """Orders p in 3..up_to for which the ring C_p embeds in host."""
    return {p for p in range(3, up_to + 1) if find_embedding(ring(p), host) is not None}


class TestRingOrders:
    def test_hypercube_three_even_orders_only(self):
        assert _ring_orders(hypercube(3), 8) == {4, 6, 8}

    def test_complete_four(self):
        assert _ring_orders(graph_power(hypercube(2), 2), 4) == {3, 4}

    def test_squared_hypercube_three(self):
        # frozen golden value, confirmed by exhaustive sequence enumeration
        host = graph_power(hypercube(3), 2)
        assert _ring_orders(host, 8) == {3, 4, 5, 6, 7, 8}


class TestAgainstBruteForce:
    def test_randomized_decision_agreement(self):
        rng = random.Random(0xC0FFEE)
        positives = negatives = 0
        for _ in range(60):
            task_n = rng.randint(2, 5)
            host_n = rng.randint(3, 10)
            task = random_graph(rng, task_n, rng.choice((0.35, 0.55, 0.75)))
            host = random_graph(rng, host_n, rng.choice((0.25, 0.45, 0.65)))
            emb = find_embedding(task, host)
            if emb is not None:
                positives += 1
                assert is_embedding(task, host, emb.mapping)
            else:
                negatives += 1
            assert (emb is not None) == brute_force_embeds(task, host)
        assert positives and negatives

    def test_absence_checks_agree_with_brute_force(self):
        # every check that fires must be a proof: brute force finds no embedding
        rng = random.Random(0xAB5E)
        decisive = {check.__name__: 0 for check in ABSENCE_CHECKS}
        for _ in range(320):
            task, host = _random_task(rng), _random_host(rng)
            verdicts = [check(task, host) for check in ABSENCE_CHECKS]
            embeds = brute_force_embeds(task, host)
            assert (find_embedding(task, host) is not None) == embeds
            if any(verdicts):
                assert not embeds, (verdicts, task.sorted_edges(), host.sorted_edges())
                decisive[ABSENCE_CHECKS[verdicts.index(True)].__name__] += 1
        # each check is the first to fire on some pair, so none is vacuous
        assert all(decisive.values()), decisive

    def test_monotone_hosts(self):
        rng = random.Random(7)
        for _ in range(20):
            task = random_graph(rng, rng.randint(2, 5), 0.5)
            system = random_graph(rng, 8, 0.3)
            for reach in (1, 2):
                lo = find_embedding(task, graph_power(system, reach))
                hi = find_embedding(task, graph_power(system, reach + 1))
                if lo is not None:
                    assert hi is not None


class TestOnPowers:
    """Searches on a fresh power, held as masks up to the transform cap and as
    tuples above it, agree with brute force on the same power."""

    @pytest.fixture(autouse=True, params=["masks", "bfs"])
    def _path(self, request, monkeypatch):
        if request.param == "bfs":
            monkeypatch.setattr(graph, "_BALL_MASK_MAX_ORDER", 0)

    @staticmethod
    def _systems():
        rng = random.Random(0x90E5)
        systems = [random_graph(rng, rng.randint(2, 7), rng.choice((0.2, 0.35, 0.5)))
                   for _ in range(16)]
        return systems + [_disjoint_union(ring(3), from_edge_list(4, [(0, 1), (1, 2), (2, 3)]))]

    def test_find_embedding_matches_brute_force(self):
        for system in self._systems():
            n = system.order
            tasks = [ring(p) for p in range(3, n + 1)] + [star(p) for p in range(2, n + 1)]
            for reach in range(1, 5):
                found = [find_embedding(task, graph_power(system, reach)) for task in tasks]
                host = graph_power(system, reach)
                for task, emb in zip(tasks, found):
                    assert (emb is not None) == brute_force_embeds(task, host)
                    assert emb is None or is_embedding(task, host, emb.mapping)

    def test_longest_cycle_matches_brute_force(self):
        for system in self._systems():
            for reach in range(1, 5):
                length, witness = ring_potential_certificate(system, reach)
                host = graph_power(system, reach)
                assert length == max(brute_force_cycle_orders(host, host.order), default=0)
                if length:
                    assert len(witness) == length and is_valid_cycle(host, witness)
                else:
                    assert witness is None


class TestLongChains:
    """Long rings, where a search that redoes reachability per node is quadratic.

    These fix the answers and the node counts, not the time taken.
    """

    def test_longest_cycle_of_ring_3000(self):
        g = ring(3000)
        status, length, witness, nodes = pykernels.longest_cycle(3000, g.adjacency_masks(),
                                                                 10**8, 0.0)
        assert (status, length, nodes) == (EXHAUSTED, 3000, 3000)
        assert is_valid_cycle(g, witness)

    def test_cycle_with_length_on_ring_3000(self):
        g = ring(3000)
        status, cycle, _ = pykernels.cycle_with_length(3000, g.adjacency_masks(), 3000,
                                                       10**8, 0.0)
        assert status == FOUND and is_valid_cycle(g, cycle)
        status, cycle, _ = pykernels.cycle_with_length(3000, g.adjacency_masks(), 2999,
                                                       10**8, 0.0)
        assert (status, cycle) == (EXHAUSTED, None)

    def test_ring_2000_into_ring_2000(self):
        task = host = ring(2000)
        emb = find_embedding(task, host, SearchBudget(max_host_order=2000))
        assert emb is not None and is_embedding(task, host, emb.mapping)


def test_concurrent_searches_on_shared_graphs():
    # graphs are immutable and searches stateless: concurrent calls over the
    # same instances must agree with the sequential answers
    from concurrent.futures import ThreadPoolExecutor

    host = graph_power(hypercube(3), 2)
    tasks = [ring(p) for p in range(3, 9)] + [star(p) for p in range(2, 9)]
    expected = [find_embedding(t, host) is not None for t in tasks]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda t: find_embedding(t, host) is not None, tasks * 4))
    assert results == expected * 4


def test_concurrent_searches_on_a_fresh_power():
    # the pool's threads are the first to read the power's rows, which a
    # mask-held power decodes on demand
    from concurrent.futures import ThreadPoolExecutor

    tasks = [ring(p) for p in range(3, 9)] + [star(p) for p in range(2, 9)]
    expected = [find_embedding(t, graph_power(hypercube(3), 2)) is not None for t in tasks]
    host = graph_power(hypercube(3), 2)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda t: find_embedding(t, host) is not None, tasks * 4))
    assert results == expected * 4
