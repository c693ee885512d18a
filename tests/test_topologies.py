"""Topology generators, the Gray-cycle witness, and spec parsing."""

import re

import pytest

from topocompat import (
    Graph,
    InvalidParameter,
    complete,
    find_embedding,
    gray_code_cycle,
    graph_power,
    hypercube,
    parse_topology_spec,
    ring,
    star,
)
from topocompat.graph import hypercube_labels
from topocompat.topologies import _GENERATORS, TopologySpec
from oracles import diameter, is_bipartite, is_embedding

# every generated kind, and parameters among which each kind accepts some and refuses some
GENERATED = sorted(_GENERATORS)
PROBES = (-5, 0, 1, 2, 3, 5, 10, 21, 4580, 1048577)


def built_or_refused(kind):
    """(spec, its graph) for each probe the kind builds, and (spec, the
    InvalidParameter) for each it refuses."""
    built, refused = [], []
    for k in PROBES:
        spec = TopologySpec(kind, k)
        try:
            built.append((spec, spec.build()))
        except InvalidParameter as exc:
            refused.append((spec, exc))
    return built, refused


class TestHypercube:
    def test_dimension_two_is_four_cycle(self):
        g = hypercube(2)
        assert g.order == 4 and g.num_edges == 4
        assert all(g.degree(v) == 2 for v in range(4))

    def test_dimension_three(self):
        g = hypercube(3)
        assert g.order == 8 and g.num_edges == 12
        assert all(g.degree(v) == 3 for v in range(8))

    def test_dimension_eight_order(self):
        assert hypercube(8).order == 256

    @pytest.mark.parametrize("s", range(1, 7))
    def test_regularity_order_bipartite_diameter(self, s):
        g = hypercube(s)
        assert g.order == 2**s
        assert g.num_edges == s * 2 ** (s - 1)
        assert all(g.degree(v) == s for v in range(g.order))
        assert is_bipartite(g)
        assert diameter(g) == s

    @pytest.mark.parametrize("s", [0, -1, 21])
    def test_dimension_out_of_range(self, s):
        with pytest.raises(InvalidParameter):
            hypercube(s)


class TestRing:
    def test_triangle(self):
        assert ring(3) == complete(3)

    def test_four_cycle_matches_hypercube_two(self):
        r4, h2 = ring(4), hypercube(2)
        fwd = find_embedding(r4, h2)
        back = find_embedding(h2, r4)
        assert fwd is not None and is_embedding(r4, h2, fwd.mapping)
        assert back is not None and is_embedding(h2, r4, back.mapping)

    def test_order_eight(self):
        g = ring(8)
        assert g.order == 8 and g.num_edges == 8
        assert diameter(g) == 4

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_too_small(self, p):
        with pytest.raises(InvalidParameter):
            ring(p)


class TestStar:
    def test_order_two_is_single_edge(self):
        g = star(2)
        assert g.order == 2 and g.edges == {(0, 1)}

    def test_center_degree(self):
        g = star(4)
        assert g.degree(0) == 3
        assert all(g.degree(v) == 1 for v in range(1, 4))

    @pytest.mark.parametrize("p", [2, 3, 9, 16])
    def test_is_a_tree(self, p):
        g = star(p)
        assert g.num_edges == p - 1
        assert diameter(g) <= 2
        assert is_bipartite(g)

    def test_too_small(self):
        with pytest.raises(InvalidParameter):
            star(1)


class TestComplete:
    def test_single_vertex(self):
        g = complete(1)
        assert g.order == 1 and g.num_edges == 0

    def test_four_vertices_six_edges(self):
        assert complete(4).num_edges == 6

    def test_saturated_hypercube_power(self):
        assert graph_power(hypercube(3), 3) == complete(8)


class TestRowsMatchTheEdgeList:
    """The generators write their sorted rows directly; each is the graph the
    constructor makes from the same edges, at orders up to 256."""

    def test_hypercube(self):
        for s in range(1, 9):
            n = 1 << s
            assert hypercube(s) == Graph(n, [(i, i ^ (1 << b)) for i in range(n) for b in range(s)])

    def test_ring(self):
        for p in range(3, 257):
            assert ring(p) == Graph(p, [(i, (i + 1) % p) for i in range(p)])

    def test_star(self):
        for p in range(2, 257):
            assert star(p) == Graph(p, [(0, i) for i in range(1, p)])

    def test_complete(self):
        for n in [*range(1, 65), 127, 128, 255, 256]:
            assert complete(n) == Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestGrayCodeCycle:
    def test_two_bits(self):
        assert gray_code_cycle(2) == (0, 1, 3, 2)

    @pytest.mark.parametrize("s", range(2, 11))
    def test_hamiltonian_cycle_of_hypercube(self, s):
        seq = gray_code_cycle(s)
        assert sorted(seq) == list(range(2**s))
        for i, v in enumerate(seq):
            w = seq[(i + 1) % len(seq)]
            assert bin(v ^ w).count("1") == 1

    @pytest.mark.parametrize("s", [1, 0, -1])
    def test_no_cycle_below_dimension_two(self, s):
        message = f"hypercube has a Hamiltonian cycle only for s >= 2, got {s}"
        with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
            gray_code_cycle(s)

    @pytest.mark.parametrize("s", [21, 10**14, "2", None, 2.0])
    def test_dimension_is_refused_as_hypercube_refuses_it(self, s):
        with pytest.raises(InvalidParameter) as built:
            hypercube(s)
        with pytest.raises(InvalidParameter, match=f"^{re.escape(str(built.value))}$"):
            gray_code_cycle(s)


class TestOrderCaps:
    """ring and star orders stop at 2^20, complete graphs at H_20's edge count."""

    @pytest.mark.parametrize("build", [ring, star, complete])
    def test_huge_orders_refused_at_once(self, build):
        with pytest.raises(InvalidParameter, match="exceeds the cap|above the cap"):
            build(99999999999999999999)

    def test_real_caps(self):
        with pytest.raises(InvalidParameter, match="^ring order 1048577 exceeds the cap 2\\^20$"):
            ring(2**20 + 1)
        with pytest.raises(InvalidParameter, match="^star order 1048577 exceeds the cap 2\\^20$"):
            star(2**20 + 1)
        with pytest.raises(InvalidParameter,
                           match="^complete graph K_4580 has 10485910 edges, above the cap 10485760"):
            complete(4580)

    def test_boundary(self, monkeypatch):
        from topocompat import graph, topologies

        monkeypatch.setattr(topologies, "MAX_HYPERCUBE_DIM", 3)
        assert ring(8).order == 8 and star(8).order == 8
        with pytest.raises(InvalidParameter, match="ring order 9 exceeds the cap 2\\^3"):
            ring(9)
        with pytest.raises(InvalidParameter, match="star order 9 exceeds the cap 2\\^3"):
            star(9)
        # complete:n reads the power edge cap, and moves with it alone
        assert complete(6).num_edges == 15
        monkeypatch.setattr(graph, "_POWER_MAX_EDGES", 12)  # the edges of H_3
        assert complete(5).num_edges == 10
        for refuse in (lambda: complete(6), TopologySpec("complete", 6).order):
            with pytest.raises(InvalidParameter, match="K_6 has 15 edges, above the cap 12"):
                refuse()
        # H_1 has one edge, exactly as many as K_2
        monkeypatch.setattr(graph, "_POWER_MAX_EDGES", 1)
        assert complete(2).num_edges == 1
        with pytest.raises(InvalidParameter, match="K_3 has 3 edges, above the cap 1"):
            complete(3)

    def test_small_orders_keep_their_messages(self):
        with pytest.raises(InvalidParameter, match="^ring order must be >= 3, got 2$"):
            ring(2)
        with pytest.raises(InvalidParameter, match="^star order must be >= 2, got 1$"):
            star(1)
        with pytest.raises(InvalidParameter, match="^complete-graph order must be >= 1, got 0$"):
            complete(0)


class TestHypercubeRecognition:
    """The generators against ``graph.hypercube_labels``; relabellings and near
    misses are in ``test_graph.py``."""

    @pytest.mark.parametrize("s", range(1, 7))
    def test_generated_hypercubes_get_the_identity(self, s):
        assert hypercube_labels(hypercube(s)) == list(range(1 << s))

    def test_four_ring_is_h2(self):
        # 0-1-2-3-0 is H2 labelled 0, 1, 3, 2
        assert hypercube_labels(ring(4)) == [0, 1, 3, 2]

    def test_refuses_other_graphs(self):
        assert hypercube_labels(ring(8)) is None
        assert hypercube_labels(complete(4)) is None
        assert hypercube_labels(star(8)) is None


class TestTopologySpec:
    @pytest.mark.parametrize(
        "text,kind,param",
        [
            ("hypercube:3", "hypercube", 3),
            ("ring:5", "ring", 5),
            ("star:9", "star", 9),
            ("complete:4", "complete", 4),
        ],
    )
    def test_parse_generators(self, text, kind, param):
        spec = parse_topology_spec(text)
        assert spec.kind == kind and spec.parameter == param
        assert str(spec) == text

    def test_parse_file(self, tmp_path):
        from topocompat.edgelist import write_edge_list_path

        path = tmp_path / "g.edges"
        write_edge_list_path(ring(5), path)
        spec = parse_topology_spec(f"file:{path}")
        assert spec == TopologySpec("file", str(path)) and str(spec) == f"file:{path}"
        assert spec.build() == ring(5)

    @pytest.mark.parametrize("path", [None, "", 7, b"g.edges"])
    def test_build_refuses_a_file_parameter_that_is_no_path(self, path, monkeypatch):
        from topocompat import edgelist

        opened = []
        monkeypatch.setattr(edgelist, "open", lambda *args, **kw: opened.append(args),
                            raising=False)
        with pytest.raises(InvalidParameter, match="^file path must be a non-empty string, got "):
            TopologySpec("file", path).build()
        assert opened == []  # for 7, no file descriptor is opened (or closed)

    def test_build_refuses_an_unknown_kind(self, tmp_path):
        path = tmp_path / "a.edges"
        path.write_text("3 0\n")
        with pytest.raises(InvalidParameter, match="^unknown topology kind 'custom'$"):
            TopologySpec("custom", str(path)).build()

    @pytest.mark.parametrize("text", ["hypercube", "ring:", "ring:x", "mesh:3", ":4"])
    def test_parse_errors(self, text):
        with pytest.raises(InvalidParameter):
            parse_topology_spec(text)

    def test_build_generators(self):
        assert TopologySpec("hypercube", 2).build() == hypercube(2)
        assert TopologySpec("complete", 3).build() == complete(3)

    @pytest.mark.parametrize("kind", GENERATED)
    def test_every_generated_kind_parses_and_round_trips(self, kind):
        spec = parse_topology_spec(f"{kind}:3")
        assert spec == TopologySpec(kind, 3) and str(spec) == f"{kind}:3"
        assert parse_topology_spec(str(spec)) == spec

    @pytest.mark.parametrize("kind", GENERATED)
    def test_order_is_the_built_order(self, kind):
        built, _ = built_or_refused(kind)
        assert built
        for spec, g in built:
            assert spec.order() == g.order, spec

    @pytest.mark.parametrize("kind", GENERATED)
    def test_order_refuses_what_build_refuses_in_its_words(self, kind):
        _, refused = built_or_refused(kind)
        assert refused
        for spec, exc in refused:
            with pytest.raises(InvalidParameter, match=f"^{re.escape(str(exc))}$"):
                spec.order()

    @pytest.mark.parametrize("kind", GENERATED)
    @pytest.mark.parametrize("parameter", [None, 2.5, "8"])
    def test_a_parameter_that_is_not_an_integer_is_refused(self, kind, parameter):
        spec = TopologySpec(kind, parameter)
        message = f"^{kind} parameter must be an integer, got {re.escape(repr(parameter))}$"
        for call in (spec.order, spec.build, lambda: _GENERATORS[kind](parameter)):
            with pytest.raises(InvalidParameter, match=message):
                call()

    def test_a_file_or_an_unknown_kind_has_no_order_before_it_is_built(self):
        assert parse_topology_spec("file:/nonexistent/g.edges").order() is None
        assert TopologySpec("mesh", 3).order() is None
