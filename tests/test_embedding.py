"""Embedding search, cycle search, and their agreement with brute force."""

import random

import pytest

from topocompat import (
    BudgetExceeded,
    Embedding,
    HostTooLarge,
    InvalidParameter,
    SearchBudget,
    complete,
    embeddable_ring_orders,
    find_embedding,
    from_edge_list,
    graph_power,
    hypercube,
    is_bipartite,
    longest_cycle,
    max_star_order,
    ring,
    star,
    verify_embedding,
)
from oracles import brute_force_embeds, is_valid_cycle, random_graph


class TestFindEmbedding:
    def test_four_cycle_into_hypercube_two(self):
        task, host = ring(4), hypercube(2)
        emb = find_embedding(task, host)
        assert emb is not None
        assert verify_embedding(task, host, emb)

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

    def test_node_budget_exhaustion(self):
        budget = SearchBudget(max_nodes=3)
        with pytest.raises(BudgetExceeded):
            find_embedding(ring(7), hypercube(4), budget)

    def test_time_budget_exhaustion(self):
        # odd ring into a bipartite host: the search must exhaust, which takes
        # far more than the deadline-check interval of 4096 nodes
        budget = SearchBudget(time_limit=1e-9)
        with pytest.raises(BudgetExceeded):
            find_embedding(ring(11), hypercube(5), budget)

    @pytest.mark.parametrize("limit", [float("nan"), float("inf"), 0.0, -1.0])
    def test_time_limit_must_be_finite_and_positive(self, limit):
        # a nan or infinite deadline never fires, so the budget would be ignored
        with pytest.raises(InvalidParameter):
            SearchBudget(time_limit=limit)


class TestVerifyEmbedding:
    def test_identity_map(self):
        g = hypercube(3)
        assert verify_embedding(g, g, Embedding(tuple(range(8))))

    def test_repeated_host_vertex(self):
        assert not verify_embedding(ring(3), complete(4), Embedding((0, 1, 1)))

    def test_wrong_length(self):
        assert not verify_embedding(ring(3), complete(4), Embedding((0, 1)))

    def test_out_of_range_image(self):
        assert not verify_embedding(ring(3), complete(4), Embedding((0, 1, 7)))

    def test_edge_not_preserved(self):
        assert not verify_embedding(ring(4), star(4), Embedding((0, 1, 2, 3)))


class TestLongestCycle:
    def test_tree_has_no_cycle(self):
        assert longest_cycle(star(5)) == (0, None)

    def test_hypercube_three_is_hamiltonian(self):
        g = hypercube(3)
        length, witness = longest_cycle(g)
        assert length == 8
        assert is_valid_cycle(g, witness)

    def test_complete_four(self):
        g = graph_power(hypercube(2), 2)
        length, witness = longest_cycle(g)
        assert length == 4
        assert is_valid_cycle(g, witness)

    def test_two_triangles_disconnected(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        length, witness = longest_cycle(g)
        assert length == 3
        assert is_valid_cycle(g, witness)

    def test_bipartite_hosts_have_even_longest_cycle(self):
        from oracles import generated_topologies

        checked = 0
        for label, g in generated_topologies(16):
            if not is_bipartite(g):
                continue
            length, _ = longest_cycle(g)
            assert length % 2 == 0, label
            checked += 1
        assert checked >= 10  # hypercubes, even rings, stars, K_1, K_2

    def test_trivial_orders(self):
        assert longest_cycle(complete(1)) == (0, None)
        assert longest_cycle(complete(2)) == (0, None)

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExceeded):
            longest_cycle(graph_power(hypercube(4), 2), SearchBudget(max_nodes=10))


class TestMaxStarOrder:
    def test_complete_four(self):
        assert max_star_order(complete(4)) == 4

    def test_squared_hypercube_five(self):
        assert max_star_order(graph_power(hypercube(5), 2)) == 16

    def test_ring(self):
        assert max_star_order(ring(8)) == 3

    def test_edgeless(self):
        assert max_star_order(from_edge_list(3, [])) == 1


class TestEmbeddableRingOrders:
    def test_hypercube_three_even_orders_only(self):
        assert embeddable_ring_orders(hypercube(3), 8) == {4, 6, 8}

    def test_complete_four(self):
        assert embeddable_ring_orders(graph_power(hypercube(2), 2), 4) == {3, 4}

    def test_squared_hypercube_three(self):
        # frozen golden value, confirmed by exhaustive sequence enumeration
        host = graph_power(hypercube(3), 2)
        assert embeddable_ring_orders(host, 8) == {3, 4, 5, 6, 7, 8}

    def test_up_to_beyond_order_rejected(self):
        from topocompat import InvalidParameter

        with pytest.raises(InvalidParameter):
            embeddable_ring_orders(ring(5), 6)

    def test_budget_shared_across_sweep(self):
        with pytest.raises(BudgetExceeded):
            embeddable_ring_orders(hypercube(4), 16, SearchBudget(max_nodes=20))


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
                assert verify_embedding(task, host, emb)
            else:
                negatives += 1
            assert (emb is not None) == brute_force_embeds(task, host)
        assert positives and negatives

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
