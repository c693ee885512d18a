"""The subgraph search's vertex order: greatest constraint first.

``embedding._search_order`` places the vertex of largest degree first and
then, each time, the unplaced vertex with the most placed neighbours (ties to
larger degree, then smaller id).  These tests pin the rule against a naive
rescan of it, check its structure on trees, grids, rings, disconnected and
relabelled graphs, and check that the searches stay exact and find the heap
numbered 31-vertex tree in H6 quickly on both backends.
"""

import random

import pytest

from topocompat import (
    SearchBudget,
    find_embedding,
    from_edge_list,
    hypercube,
    ring,
    star,
)
from topocompat._kernels import FOUND, pykernels
from topocompat.cli import run
from topocompat.edgelist import write_edge_list_path
from topocompat.embedding import ABSENCE_CHECKS, _search_order
from oracles import brute_force_embeds, is_embedding, random_graph


def heap_tree(n):
    """The binary tree with vertex i's parent at (i - 1) // 2."""
    return from_edge_list(n, [(i, (i - 1) // 2) for i in range(1, n)])


def grid(a, b):
    return from_edge_list(a * b, [(r * b + c, r * b + c + 1) for r in range(a) for c in range(b - 1)]
                          + [(r * b + c, (r + 1) * b + c) for r in range(a - 1) for c in range(b)])


def union(*graphs):
    edges, shift = [], 0
    for g in graphs:
        edges += [(u + shift, v + shift) for u, v in g.edges]
        shift += g.order
    return from_edge_list(shift, edges)


def relabel(g, seed):
    perm = list(range(g.order))
    random.Random(seed).shuffle(perm)
    return from_edge_list(g.order, [(perm[u], perm[v]) for u, v in g.edges])


def random_tree(rng, n):
    return from_edge_list(n, [(i, rng.randrange(i)) for i in range(1, n)])


def rescan_order(g):
    """The rule itself, by a rescan of every unplaced vertex per step."""
    order, placed = [], set()
    while len(order) < g.order:
        u = min((v for v in range(g.order) if v not in placed),
                key=lambda v: (-sum(w in placed for w in g.neighbors(v)), -g.degree(v), v))
        order.append(u)
        placed.add(u)
    return order


def components(g):
    comp = [-1] * g.order
    for s in range(g.order):
        if comp[s] < 0:
            comp[s], stack = s, [s]
            while stack:
                for w in g.neighbors(stack.pop()):
                    if comp[w] < 0:
                        comp[w] = s
                        stack.append(w)
    return comp


def _graphs():
    rng = random.Random(0x5EA)
    graphs = {
        "heap tree 15": heap_tree(15),
        "heap tree 31": heap_tree(31),
        "grid 4x4": grid(4, 4),
        "grid 3x7": grid(3, 7),
        "ring 9": ring(9),
        "star 6": star(6),
        "single vertex": from_edge_list(1, []),
        "edgeless 4": from_edge_list(4, []),
        "tree + ring + isolated": union(heap_tree(7), ring(5), from_edge_list(2, [])),
        "two grids": union(grid(2, 3), grid(3, 3)),
    }
    for i in range(4):
        graphs[f"random tree {i}"] = random_tree(rng, rng.randint(5, 40))
        graphs[f"random graph {i}"] = random_graph(rng, rng.randint(5, 30), 0.15)
    for name in list(graphs):
        graphs[f"{name}, relabelled"] = relabel(graphs[name], 7)
    return graphs


GRAPHS = _graphs()


@pytest.mark.parametrize("name", GRAPHS)
def test_order_is_a_permutation(name):
    g = GRAPHS[name]
    assert sorted(_search_order(g)) == list(range(g.order))


@pytest.mark.parametrize("name", GRAPHS)
def test_order_follows_the_rule(name):
    g = GRAPHS[name]
    assert _search_order(g) == rescan_order(g)


@pytest.mark.parametrize("name", GRAPHS)
def test_each_vertex_but_a_component_start_has_an_earlier_neighbour(name):
    g = GRAPHS[name]
    comp = components(g)
    order = _search_order(g)
    started = set()
    for i, u in enumerate(order):
        if comp[u] in started:
            assert set(g.neighbors(u)) & set(order[:i]), (name, i, u)
        started.add(comp[u])
    # and each component is placed whole before the next one starts
    seq = [comp[u] for u in order]
    blocks = [c for i, c in enumerate(seq) if i == 0 or seq[i - 1] != c]
    assert len(blocks) == len(set(blocks))


def test_ring_order_is_the_identity():
    assert _search_order(ring(1200)) == list(range(1200))


# The heap-numbered tree: the first three seeds of its relabellings.  Node
# counts depend on the labels, since ties fall to the smaller id: the heap
# labels need 38 nodes, and over seeds 0..199 of relabel() 160 copies need at
# most 1000, the median 45, while the worst needs 65,338 (every one is found).
TREE31_CASES = [("heap", heap_tree(31))] + [(f"seed {s}", relabel(heap_tree(31), s))
                                              for s in (0, 1, 2)]


@pytest.mark.parametrize("label,task", TREE31_CASES, ids=[c[0] for c in TREE31_CASES])
def test_tree31_embeds_in_h6_within_1000_nodes(label, task, ckernels):
    host = hypercube(6)
    args = (task.order, task.adjacency_masks(), host.order, host.adjacency_masks(),
            _search_order(task), 1000, 0.0)
    pure = pykernels.subgraph_search(*args)
    assert pure == ckernels.subgraph_search(*args)
    status, mapping, _ = pure
    assert status == FOUND and is_embedding(task, host, mapping)
    emb = find_embedding(task, host, SearchBudget(max_nodes=1000))
    assert emb is not None and is_embedding(task, host, emb.mapping)


def test_tree31_embed_command_with_a_small_node_cap(tmp_path, capsys):
    path = tmp_path / "tree31.edges"
    write_edge_list_path(heap_tree(31), str(path))
    code = run(["embed", "--task", f"file:{path}", "--system", "hypercube:6", "--reach", "1",
                "--max-nodes", "1000", "--witness"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "embedding found"
    mapping = tuple(int(line.split(" -> ")[1]) for line in lines[1:])
    assert is_embedding(heap_tree(31), hypercube(6), mapping)


def test_searches_agree_with_brute_force_on_disconnected_tasks():
    rng = random.Random(0xD15C)
    searched = {True: 0, False: 0}
    disconnected_found = 0
    for _ in range(150):
        if rng.random() < 0.6:
            task = union(random_graph(rng, rng.randint(1, 3), 0.7),
                         random_graph(rng, rng.randint(1, 3), 0.7))
        else:
            task = random_graph(rng, rng.randint(2, 5), rng.choice((0.3, 0.6)))
        host = random_graph(rng, rng.randint(4, 8), rng.choice((0.3, 0.5, 0.7)))
        embeds = brute_force_embeds(task, host)
        emb = find_embedding(task, host)
        assert (emb is not None) == embeds, (task.sorted_edges(), host.sorted_edges())
        if emb is not None:
            assert is_embedding(task, host, emb.mapping)
            disconnected_found += len(set(components(task))) > 1
        if not any(check(task, host) for check in ABSENCE_CHECKS):
            searched[embeds] += 1
    # the search itself decided both ways, and found disconnected tasks
    assert searched[True] and searched[False] and disconnected_found
