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
falls as the reach grows from 1 to 4.
"""

import pytest

from topocompat import graph
from topocompat.compat import potential, ring_potential_certificate, star_potential_certificate
from topocompat.edgelist import dumps, loads
from topocompat.graph import graph_power
from topocompat.topologies import parse_topology_spec
from oracles import generated_topologies, power_reference, relabelled

SEEDS = range(5)
REACHES = (1, 2, 3)
SPECS = [label for label, _ in generated_topologies(64)]
FACTORS = (1, 2, 3)


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
