"""Relations that hold by theorem, checked where the oracles cannot reach.

Relabelling: the star and ring potentials of a system do not depend on its
vertex ids.  Every generated spec of order at most 64
(``oracles.generated_topologies``) is relabelled with seeded permutations,
written and read back through ``edgelist``, and its potentials at reach 1-3
must equal the spec's own answer from ``compat.potential``, which answers
``hypercube:s`` by its closed forms.  Every witness must verify against the
power built by ``oracles.power_reference``, which shares no code with the
package's transform.
"""

import pytest

from topocompat.compat import potential, ring_potential_certificate, star_potential_certificate
from topocompat.edgelist import dumps, loads
from topocompat.topologies import parse_topology_spec
from oracles import generated_topologies, power_reference, relabelled

SEEDS = range(5)
REACHES = (1, 2, 3)
SPECS = [label for label, _ in generated_topologies(64)]


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
