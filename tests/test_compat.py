"""Potentials, indexes, and the compatibility table."""

from decimal import Decimal
from fractions import Fraction

import pytest

from topocompat import (
    BudgetExceeded,
    InvalidParameter,
    SearchBudget,
    InvalidPotential,
    InvalidReachability,
    compatibility_index,
    compatibility_table,
    complete,
    gray_code_cycle,
    graph_power,
    hypercube,
    hypercube_star_potential,
    ring,
    ring_potential,
    star,
    star_potential,
)
from topocompat.compat import (
    hypercube_ring_potential,
    hypercube_star_witness,
    make_report,
    potential,
    render_csv,
    render_markdown,
    ring_potential_certificate,
    round_half_up,
    star_potential_certificate,
)
from topocompat import graph
from topocompat.topologies import TopologySpec
from oracles import chord_ring

# (s, reach) -> potential, from the reference table
TABLE_POTENTIALS = {
    (2, 1): 3, (3, 1): 4, (4, 1): 5, (5, 1): 6, (6, 1): 7, (7, 1): 8, (8, 1): 9,
    (2, 2): 4, (3, 2): 7, (4, 2): 11, (5, 2): 16, (6, 2): 22, (7, 2): 29, (8, 2): 37,
    (2, 3): 4, (3, 3): 8, (4, 3): 15, (5, 3): 26, (6, 3): 42, (7, 3): 64, (8, 3): 93,
}

TABLE_ROUNDED = {
    (2, 1): "0.7500", (3, 1): "0.5000", (4, 1): "0.3125", (5, 1): "0.1875",
    (6, 1): "0.1094", (7, 1): "0.0625", (8, 1): "0.0352",
    (2, 2): "1.0000", (3, 2): "0.8750", (4, 2): "0.6875", (5, 2): "0.5000",
    (6, 2): "0.3438", (7, 2): "0.2266", (8, 2): "0.1445",
    (2, 3): "1.0000", (3, 3): "1.0000", (4, 3): "0.9375", (5, 3): "0.8125",
    (6, 3): "0.6563", (7, 3): "0.5000", (8, 3): "0.3633",
}


class TestHypercubeStarPotential:
    @pytest.mark.parametrize("key,expected", sorted(TABLE_POTENTIALS.items()))
    def test_matches_reference_table(self, key, expected):
        s, reach = key
        assert hypercube_star_potential(s, reach) == expected

    def test_saturates_at_full_order(self):
        assert hypercube_star_potential(3, 3) == 8
        assert hypercube_star_potential(3, 5) == 8
        assert hypercube_star_potential(2, 3) == 4

    @pytest.mark.parametrize("s", range(1, 7))
    def test_reach_at_dimension_gives_whole_hypercube(self, s):
        assert hypercube_star_potential(s, s) == 2**s

    @pytest.mark.parametrize("s", (1, 5, 20))
    def test_reach_past_dimension_saturates(self, s):
        # the sum stops at i = s, so a huge reach costs no more than reach s
        for reach in (s + 1, 2 * s, 10**12):
            assert hypercube_star_potential(s, reach) == 2**s


class TestHypercubeClosedForms:
    @pytest.mark.parametrize("s", range(1, 9))
    def test_star_witness_matches_power_graph(self, s):
        # the generic path: first maximum-degree vertex of the built power graph
        for reach in range(1, s + 2):
            power = graph_power(hypercube(s), reach)
            center = max(range(power.order), key=power.degree)
            assert hypercube_star_witness(s, reach) == (center, power.neighbors(center))

    def test_ring_potential(self):
        assert hypercube_ring_potential(1) == 0
        for s in range(2, 9):
            assert hypercube_ring_potential(s) == len(gray_code_cycle(s)) == 2**s

    @pytest.mark.parametrize("closed_form", [hypercube_star_potential, hypercube_star_witness])
    @pytest.mark.parametrize("reach", [0, -1])
    def test_star_forms_reject_reach_below_one(self, closed_form, reach):
        with pytest.raises(InvalidReachability, match=f"^reachability must be >= 1, got {reach}$"):
            closed_form(3, reach)

    @pytest.mark.parametrize("s", [0, 21])
    @pytest.mark.parametrize("closed_form", [
        lambda s: hypercube_star_potential(s, 1),
        lambda s: hypercube_star_witness(s, 1),
        hypercube_ring_potential,
    ])
    def test_forms_reject_dimension_outside_the_cap(self, closed_form, s):
        # the same bound hypercube(s), potential and table apply
        with pytest.raises(InvalidParameter, match=f"^hypercube dimension must be in 1..20, got {s}$"):
            closed_form(s)


class TestPotentialCell:
    @pytest.mark.parametrize("spec", [TopologySpec("hypercube", 3), TopologySpec("ring", 5)])
    @pytest.mark.parametrize("task_kind", ["star", "ring"])
    def test_reach_zero_rejected_on_every_path(self, spec, task_kind):
        with pytest.raises(InvalidReachability):
            potential(spec, task_kind, 0)

    def test_bad_task_kind_rejected(self):
        with pytest.raises(InvalidParameter, match="^task kind must be 'star' or 'ring', got 'mesh'$"):
            potential(TopologySpec("ring", 5), "mesh", 1)

    @pytest.mark.parametrize("spec", [TopologySpec("hypercube", 3), TopologySpec("ring", 6)])
    def test_certificate_only_with_witness(self, spec):
        for task_kind in ("star", "ring"):
            report, cert = potential(spec, task_kind, 1)
            assert cert is None
            assert potential(spec, task_kind, 1, witness=True)[0] == report

    def test_hypercube_spec_matches_built_graph(self):
        for s in range(1, 6):
            g = hypercube(s)
            for reach in range(1, s + 2):
                star_report, (center, leaves) = potential(
                    TopologySpec("hypercube", s), "star", reach, witness=True)
                assert star_report.potential_p == star_potential(g, reach) == 1 + len(leaves)
                assert (center, leaves) == star_potential_certificate(g, reach)[1]
                ring_report, cycle = potential(TopologySpec("hypercube", s), "ring", reach,
                                               witness=True)
                assert ring_report.potential_p == ring_potential(g, reach)
                assert ring_report.order_n == star_report.order_n == 2**s
                assert cycle == (gray_code_cycle(s) if s >= 2 else None)


class TestStarPotential:
    def test_hypercube_four_reach_one(self):
        assert star_potential(hypercube(4), 1) == 5

    def test_hypercube_six_reach_three(self):
        assert star_potential(hypercube(6), 3) == 42

    def test_ring_nine_reach_two(self):
        assert star_potential(ring(9), 2) == 5

    @pytest.mark.parametrize("s", range(1, 6))
    @pytest.mark.parametrize("reach", (1, 2, 3))
    def test_generic_equals_closed_form_on_hypercubes(self, s, reach):
        assert star_potential(hypercube(s), reach) == hypercube_star_potential(s, reach)

    def test_reach_zero_rejected(self):
        with pytest.raises(InvalidReachability):
            star_potential(ring(5), 0)

    def test_disconnected_takes_best_component(self):
        from topocompat import from_edge_list

        g = from_edge_list(6, [(0, 1), (2, 3), (3, 4), (4, 5), (2, 4)])
        assert star_potential(g, 1) == 4

    @pytest.mark.parametrize("system", [hypercube(4), ring(9), star(6), complete(5), ring(3)])
    @pytest.mark.parametrize("reach", (1, 2, 3))
    def test_certificate_is_a_maximum_star(self, system, reach):
        p, (center, leaves) = star_potential_certificate(system, reach)
        power = graph_power(system, reach)
        assert p == star_potential(system, reach) == 1 + len(leaves)
        assert leaves == power.neighbors(center)
        assert center == min(v for v in range(power.order) if power.degree(v) == p - 1)


class TestStarPotentialBudget:
    TINY = SearchBudget(time_limit=1e-9)

    @pytest.mark.parametrize("mask_order", [4096, 0])
    def test_pass_raises_past_the_deadline_on_both_paths(self, mask_order, monkeypatch):
        monkeypatch.setattr(graph, "_BALL_MASK_MAX_ORDER", mask_order)
        g = chord_ring(64)
        assert star_potential(g, 2) == 8
        with pytest.raises(BudgetExceeded, match="^largest-ball pass ran out of time budget$"):
            star_potential(g, 2, self.TINY)
        with pytest.raises(BudgetExceeded):
            star_potential_certificate(g, 2, self.TINY)

    def test_potential_cell_passes_its_budget(self, tmp_path):
        from topocompat.edgelist import write_edge_list_path

        path = tmp_path / "chord.edges"
        write_edge_list_path(chord_ring(64), path)
        with pytest.raises(BudgetExceeded):
            potential(TopologySpec(kind="custom", path=str(path)), "star", 2, self.TINY)

    def test_bound_decided_needs_no_time(self):
        assert star_potential(ring(64), 2, self.TINY) == 5
        assert star_potential_certificate(ring(64), 2, self.TINY) == (5, (0, (1, 2, 62, 63)))


class TestRingPotentialBudget:
    TINY = SearchBudget(time_limit=1e-9)

    @pytest.mark.parametrize("mask_order", [4096, 0])
    def test_transform_raises_past_the_deadline_on_both_paths(self, mask_order, monkeypatch):
        monkeypatch.setattr(graph, "_BALL_MASK_MAX_ORDER", mask_order)
        g = chord_ring(64)
        assert ring_potential(g, 2) == 64
        with pytest.raises(BudgetExceeded, match="^reachability transform ran out of time budget$"):
            ring_potential_certificate(g, 2, self.TINY)

    def test_reach_one_transform_takes_no_deadline(self):
        import time

        g = chord_ring(64)
        assert graph_power(g, 1, time.monotonic() - 1) is g
        # the search decides in 64 nodes, before its first deadline check
        assert ring_potential_certificate(g, 1, self.TINY)[0] == 64


class TestRingPotential:
    def test_hypercube_three_reach_one(self):
        assert ring_potential(hypercube(3), 1) == 8

    def test_hypercube_eight_is_fully_usable(self):
        assert ring_potential(hypercube(8), 1) == 256
        assert compatibility_index(256, 256) == 1

    def test_acyclic_host_reports_zero(self):
        assert ring_potential(star(6), 1) == 0

    @pytest.mark.parametrize("system", [star(2), complete(2), complete(1), hypercube(1)])
    def test_small_system_has_ring_potential_zero(self, system):
        # below order 3 there is no cycle, at any reach, as for any acyclic host
        from topocompat.compat import ring_potential_certificate

        for reach in (1, 2):
            assert ring_potential_certificate(system, reach) == (0, None)

    def test_reach_zero_rejected(self):
        with pytest.raises(InvalidReachability, match="^reachability must be >= 1, got 0$"):
            ring_potential(ring(5), 0)

    def test_ring_system_with_reach_two(self):
        # C_9 squared is 4-regular and Hamiltonian
        assert ring_potential(ring(9), 2) == 9

    def test_generic_path_matches_hypercube_shortcut(self):
        # same hypercube, relabeled so the canonical detector cannot fire
        h = hypercube(3)
        relabel = [7, 0, 1, 2, 3, 4, 5, 6]
        from topocompat import from_edge_list

        g = from_edge_list(8, [(relabel[u], relabel[v]) for u, v in h.edges])
        assert ring_potential(g, 1) == 8

    def test_certificate_witnesses_are_valid_cycles(self):
        from topocompat.compat import ring_potential_certificate
        from oracles import is_valid_cycle

        for system, reach in [(hypercube(4), 1), (ring(9), 2), (complete(6), 1)]:
            p, cycle = ring_potential_certificate(system, reach)
            assert len(cycle) == p
            assert is_valid_cycle(graph_power(system, reach), cycle)
        assert ring_potential_certificate(star(6), 1) == (0, None)

    def test_sparse_g60_decided_within_500k_nodes(self, monkeypatch):
        # the cycle search without the peel and the low-degree anchors ran
        # out of 500k nodes on this G(60, 0.07); it now takes 222
        import random

        from topocompat import SearchBudget, _kernels
        from topocompat._kernels import pykernels
        from topocompat.compat import ring_potential_certificate
        from oracles import is_valid_cycle, random_graph

        monkeypatch.setattr(_kernels, "kernels_for", lambda order: pykernels)
        g = random_graph(random.Random(2), 60, 0.07)
        p, cycle = ring_potential_certificate(g, 1, SearchBudget(max_nodes=500_000))
        assert p == 54 and len(cycle) == p and is_valid_cycle(g, cycle)


class TestCompatibilityIndex:
    def test_three_quarters(self):
        assert compatibility_index(3, 4) == Fraction(3, 4)

    def test_rounding_of_exact_half_digit(self):
        assert round_half_up(compatibility_index(22, 64)) == Decimal("0.3438")

    def test_full_compatibility(self):
        assert compatibility_index(7, 7) == 1

    def test_zero_potential(self):
        assert compatibility_index(0, 6) == 0

    def test_potential_above_order_rejected(self):
        with pytest.raises(InvalidPotential):
            compatibility_index(5, 4)

    def test_negative_potential_rejected(self):
        with pytest.raises(InvalidPotential):
            compatibility_index(-1, 4)

    @pytest.mark.parametrize(
        "fraction,expected",
        [
            (Fraction(1, 2), "0.5000"),
            (Fraction(1), "1.0000"),
            (Fraction(9, 256), "0.0352"),
            (Fraction(21, 32), "0.6563"),
            (Fraction(1, 3), "0.3333"),
            (Fraction(2, 3), "0.6667"),
            (Fraction(1, 80000), "0.0000"),
            (Fraction(1, 16000), "0.0001"),
        ],
    )
    def test_half_up_rendering(self, fraction, expected):
        assert str(round_half_up(fraction)) == expected


class TestCompatibilityTable:
    def test_reference_star_table(self):
        reports = compatibility_table(range(2, 9), range(1, 4), "star")
        assert len(reports) == 21
        for r in reports:
            key = (r.system.parameter, r.reach)
            assert r.potential_p == TABLE_POTENTIALS[key]
            assert str(r.index_rounded) == TABLE_ROUNDED[key]
            assert r.order_n == 2**r.system.parameter
            assert r.index_exact == Fraction(r.potential_p, r.order_n)

    def test_ordering_is_reach_major_then_s_ascending(self):
        reports = compatibility_table([3, 2], [2, 1], "star")
        assert [(r.reach, r.system.parameter) for r in reports] == [
            (1, 2), (1, 3), (2, 2), (2, 3),
        ]

    def test_single_cell(self):
        (report,) = compatibility_table([3], [1], "star")
        assert report.potential_p == 4
        assert report.index_exact == Fraction(1, 2)

    def test_ring_cells_are_fully_compatible_at_reach_one(self):
        for r in compatibility_table(range(2, 5), [1], "ring"):
            assert r.potential_p == r.order_n
            assert r.index_exact == 1

    def test_full_compatibility_iff_potential_equals_order(self):
        for r in compatibility_table(range(1, 9), range(1, 5), "star"):
            assert (r.index_exact == 1) == (r.potential_p == r.order_n)

    def test_empty_range_rejected(self):
        with pytest.raises(InvalidParameter):
            compatibility_table([], [1], "star")

    def test_bad_task_kind_rejected(self):
        with pytest.raises(InvalidParameter):
            compatibility_table([2], [1], "mesh")

    def test_full_grid_up_to_the_cap(self):
        reports = compatibility_table(range(1, 21), range(1, 21), "star")
        assert len(reports) == 400
        assert reports[-1].potential_p == reports[-1].order_n == 1 << 20

    @pytest.mark.parametrize("s_values,reaches,message", [
        ([21], [1], "^hypercube dimension must be in 1..20, got 21$"),
        ([0, 3], [1], "^hypercube dimension must be in 1..20, got 0$"),
        ([3], [21], "^reachability must be in 1..20, got 21$"),
        ([3], [0], "^reachability must be in 1..20, got 0$"),
        # each value is checked as it is read, so a huge range stops at 21
        (range(1, 10**30), [1], "^hypercube dimension must be in 1..20, got 21$"),
        ([3], range(1, 10**30), "^reachability must be in 1..20, got 21$"),
    ])
    def test_values_outside_one_to_twenty_rejected(self, s_values, reaches, message):
        with pytest.raises(InvalidParameter, match=message):
            compatibility_table(s_values, reaches, "ring")


class TestMonotonicityAndDecay:
    def test_star_potential_nondecreasing_in_reach(self):
        systems = [hypercube(3), hypercube(4), ring(7), ring(12), star(6), complete(5)]
        for g in systems:
            values = [star_potential(g, reach) for reach in range(1, 5)]
            assert values == sorted(values)

    def test_ring_potential_nondecreasing_in_reach(self):
        for g in [ring(7), ring(10), complete(5), star(5)]:
            values = [ring_potential(g, reach) for reach in range(1, 4)]
            assert values == sorted(values)

    def test_index_strictly_decreasing_in_dimension(self):
        for reach in (1, 2, 3):
            reports = compatibility_table(range(2, 9), [reach], "star")
            for prev, cur in zip(reports, reports[1:]):
                if prev.index_exact < 1:
                    assert cur.index_exact < prev.index_exact


class TestRendering:
    def test_csv_shape(self):
        reports = compatibility_table([2, 3], [1], "star")
        text = render_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == "task,system,s_or_n,reach,n,p,c_exact_num,c_exact_den,c_rounded"
        assert lines[1] == "star,hypercube,2,1,4,3,3,4,0.7500"
        assert lines[2] == "star,hypercube,3,1,8,4,1,2,0.5000"

    def test_markdown_mirrors_grid(self):
        text = render_markdown(compatibility_table(range(2, 4), range(1, 3), "star"))
        lines = text.strip().split("\n")
        assert lines[0] == "| task=star | s=2 | s=3 |"
        assert lines[2] == "| n | 4 | 8 |"
        assert lines[3] == "| reach=1 | 3; 0.7500 | 4; 0.5000 |"
        assert lines[4] == "| reach=2 | 4; 1.0000 | 7; 0.8750 |"

    def test_report_for_custom_system_uses_order(self):
        report = make_report(TopologySpec("ring", 9), "star", 2, 9, 5)
        assert report.size_label == 9
        assert "star,ring,9,2,9,5,5,9,0.5556" in render_csv([report])
