"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines.  Expected values quoted from the reference table keep their
original comma-decimal spelling and are normalized in the comparison.
"""

import functools
import math
import random
import time
from fractions import Fraction

from topocompat import (
    compatibility_index,
    compatibility_table,
    complete,
    diameter,
    find_embedding,
    graph_power,
    gray_code_cycle,
    hypercube,
    hypercube_star_potential,
    ring,
    ring_potential,
    star,
    star_potential,
    verify_embedding,
)
from topocompat.cli import run
from topocompat.edgelist import read_edge_list_path
from topocompat.topologies import parse_topology_spec
from oracles import brute_force_embeds, generated_topologies, random_graph

# reference table: potentials and printed indexes (comma decimals as published)
REFERENCE_CELLS = {
    1: [(2, 3, "0,75"), (3, 4, "0,5"), (4, 5, "0,3125"), (5, 6, "0,1875"),
        (6, 7, "0,1094"), (7, 8, "0,0625"), (8, 9, "0,0352")],
    2: [(2, 4, "1"), (3, 7, "0,875"), (4, 11, "0,6875"), (5, 16, "0,5"),
        (6, 22, "0,3438"), (7, 29, "0,2266"), (8, 37, "0,1445")],
    3: [(2, 4, "1"), (3, 8, "1"), (4, 15, "0,9375"), (5, 26, "0,8125"),
        (6, 42, "0,6563"), (7, 64, "0,5"), (8, 93, "0,3633")],
}

INDEX_TOLERANCE = 5e-5


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def runner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number} PASS - {description}")

        return runner

    return wrap


@criterion(1, "golden star table: 21 cells, exact potentials, indexes to 5e-5, under 1 s")
def test_criterion_1_golden_table():
    start = time.perf_counter()
    reports = compatibility_table(range(2, 9), range(1, 4), "star")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(reports) == 21
    by_key = {(r.reach, r.system.parameter): r for r in reports}
    for reach, row in REFERENCE_CELLS.items():
        for s, p, printed in row:
            r = by_key[(reach, s)]
            assert r.potential_p == p
            published = float(printed.replace(",", "."))
            assert abs(float(r.index_rounded) - published) <= INDEX_TOLERANCE
            # the index definition inferred from the table: C = p / 2^s
            assert r.index_exact == Fraction(p, 2**s)


@criterion(2, "closed-form star potential matches generic search for s=2..4, reach=1..3")
def test_criterion_2_closed_form_vs_search():
    start = time.perf_counter()
    for s in (2, 3, 4):
        for reach in (1, 2, 3):
            host = graph_power(hypercube(s), reach)
            p = hypercube_star_potential(s, reach)
            emb = find_embedding(star(p), host)
            assert emb is not None and verify_embedding(star(p), host, emb)
            if p < 2**s:
                assert find_embedding(star(p + 1), host) is None
    assert time.perf_counter() - start < 300.0


@criterion(3, "Gray cycle is Hamiltonian in H_s for s=2..10, so ring index is exactly 1")
def test_criterion_3_ring_compatibility():
    for s in range(2, 11):
        seq = gray_code_cycle(s)
        n = 2**s
        assert sorted(seq) == list(range(n))
        for i, v in enumerate(seq):
            assert bin(v ^ seq[(i + 1) % n]).count("1") == 1
        assert ring_potential(hypercube(s), 1) == n
        assert compatibility_index(n, n) == 1


@criterion(4, "odd rings provably absent from hypercubes at reach 1; H_3 holds {4,6,8}")
def test_criterion_4_bipartite_exclusion():
    for s in (2, 3, 4):
        host = graph_power(hypercube(s), 1)
        for p in (3, 5, 7):
            assert find_embedding(ring(p), host) is None
    h3 = hypercube(3)
    assert {p for p in range(3, 9) if find_embedding(ring(p), h3) is not None} == {4, 6, 8}


@criterion(5, "power-transform identities on every generated topology up to n=256")
def test_criterion_5_power_transform_properties():
    for label, g in generated_topologies(256):
        d = diameter(g)
        assert d != math.inf, label
        top = max(d, 1)
        reaches = sorted({1, 2, 3, 4, top - 1, top, top + 1} & set(range(1, top + 2)))
        prev = None
        for reach in reaches:
            power = graph_power(g, reach)
            if reach == 1:
                assert power == g, label
            if prev is not None:
                assert prev.edges <= power.edges, label
            prev = power
            if reach >= top:
                assert power == complete(g.order), label
            if reach in (1, 2, 3, top):
                assert star_potential(g, reach) == 1 + power.max_degree(), label


@criterion(6, "potentials nondecreasing in reach; star index strictly decreasing in s")
def test_criterion_6_monotonicity_and_decay():
    star_systems = [hypercube(s) for s in (1, 2, 3, 4)]
    star_systems += [ring(p) for p in (3, 5, 8, 9)]
    star_systems += [star(p) for p in (2, 5, 8)]
    star_systems += [complete(n) for n in (1, 4, 6)]
    for g in star_systems:
        values = [star_potential(g, reach) for reach in (1, 2, 3, 4)]
        assert values == sorted(values)
    ring_systems = [hypercube(s) for s in (2, 3, 4)]
    ring_systems += [ring(p) for p in (5, 8, 9)] + [star(5), complete(5)]
    for g in ring_systems:
        values = [ring_potential(g, reach) for reach in (1, 2, 3)]
        assert values == sorted(values)
    for reach in (1, 2, 3):
        reports = compatibility_table(range(2, 9), [reach], "star")
        for prev, cur in zip(reports, reports[1:]):
            if prev.index_exact < 1:
                assert cur.index_exact < prev.index_exact


@criterion(7, "search agrees with exhaustive enumeration on 200 random instances")
def test_criterion_7_soundness_and_completeness():
    rng = random.Random(424242)
    decided_present = decided_absent = 0
    for _ in range(200):
        task_n = rng.randint(2, 6)
        host_n = rng.randint(4, 12)
        task = random_graph(rng, task_n, rng.choice((0.3, 0.5, 0.7, 0.9)))
        host = random_graph(rng, host_n, rng.choice((0.2, 0.35, 0.5, 0.65)))
        emb = find_embedding(task, host)
        if emb is not None:
            decided_present += 1
            assert verify_embedding(task, host, emb)
        else:
            decided_absent += 1
        assert (emb is not None) == brute_force_embeds(task, host)
    assert decided_present >= 20 and decided_absent >= 20


@criterion(8, "CLI contract: documented outputs, exit codes, and gen round-trips")
def test_criterion_8_cli_contract(tmp_path, capsys):
    code = run(["potential", "--task", "star", "--system", "hypercube:5", "--reach", "2"])
    assert code == 0
    assert capsys.readouterr().out == "p=16 c=0.5000\n"

    code = run(["table", "--task", "star", "--s", "2..8", "--reach", "1..3",
                "--format", "markdown"])
    assert code == 0
    table_out = capsys.readouterr().out
    rows = table_out.strip().split("\n")
    cells = [c.strip() for row in rows[3:] for c in row.split("|")[2:-1]]
    assert len(cells) == 21
    for reach, row in REFERENCE_CELLS.items():
        for s, p, printed in row:
            cell = cells[(reach - 1) * 7 + (s - 2)]
            assert cell.startswith(f"{p}; ")

    code = run(["embed", "--task", "ring:3", "--system", "hypercube:3", "--reach", "1"])
    assert code == 0
    assert capsys.readouterr().out == "no embedding\n"

    for spec in ("hypercube:3", "ring:5", "star:4", "complete:4"):
        out = tmp_path / f"{spec.replace(':', '_')}.edges"
        assert run(["gen", spec, "-o", str(out)]) == 0
        assert read_edge_list_path(out) == parse_topology_spec(spec).build()
    src = tmp_path / "hypercube_3.edges"
    copy = tmp_path / "copy.edges"
    assert run(["gen", f"file:{src}", "-o", str(copy)]) == 0
    assert copy.read_bytes() == src.read_bytes()
