"""Every integer the library takes is used as the int ``operator.index``
gives: reaches, dimensions, generator parameters, budget caps, graph orders
and vertex ids.  A type that has only ``__index__`` (no ordering, no
arithmetic, no equality with ints) must give what its int gives, answer or
typed error alike."""

import pytest

from topocompat import (
    Graph,
    SearchBudget,
    TopoCompatError,
    TopologySpec,
    compatibility_table,
    complete,
    gray_code_cycle,
    graph_power,
    hypercube,
    ring,
    star,
)
from topocompat.compat import potential, ring_potential_certificate, star_potential_certificate
from topocompat.topologies import check_hypercube_dim


class Index:
    """An integer by ``__index__`` alone."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def outcome(call, *args):
    """What ``call(*args)`` gives: ("ok", its value), or the typed error's
    class and message."""
    try:
        return "ok", call(*args)
    except TopoCompatError as exc:
        return type(exc), str(exc)


def cell(system, task_kind, reach):
    """potential's p, n and certificate, and the report's reach."""
    report, cert = potential(system, task_kind, reach, witness=True)
    return report.potential_p, report.order_n, cert, report.reach


def table(task_kind):
    """compatibility_table with all but the last two values as dimensions,
    and those two as reaches."""
    return lambda *values: compatibility_table(values[:-2], values[-2:], task_kind)


# (name, entry, its integer arguments), which the test also hands over as Index values
ENTRIES = [
    *[(f.__name__, f, (k,)) for f in (hypercube, ring, star, complete, gray_code_cycle)
      for k in (-1, 0, 1, 2, 3, 5, 21)],
    *[("check_hypercube_dim", check_hypercube_dim, (s,)) for s in (0, 1, 20, 21)],
    *[(f"TopologySpec-{kind}.order", lambda k, kind=kind: TopologySpec(kind, k).order(), (k,))
      for kind in ("hypercube", "ring", "star", "complete") for k in (0, 2, 4)],
    *[(f"TopologySpec-{kind}.build", lambda k, kind=kind: TopologySpec(kind, k).build(), (k,))
      for kind in ("hypercube", "ring", "star", "complete") for k in (0, 2, 4)],
    *[("graph_power", lambda r: graph_power(ring(9), r), (r,)) for r in (0, 1, 2, 4)],
    *[("star_potential_certificate", lambda r: star_potential_certificate(ring(9), r), (r,))
      for r in (0, 1, 3)],
    *[("ring_potential_certificate", lambda r: ring_potential_certificate(star(5), r), (r,))
      for r in (0, 1, 2)],
    *[(f"potential-ring-{kind}", lambda r, kind=kind: cell(TopologySpec("ring", 7), kind, r),
       (r,)) for kind in ("star", "ring") for r in (0, 1, 2)],
    *[(f"potential-hypercube-{kind}",
       lambda s, kind=kind: cell(TopologySpec("hypercube", s), kind, 2), (s,))
      for kind in ("star", "ring") for s in (0, 1, 3, 21)],
    *[(f"compatibility_table-{kind}", table(kind), values) for kind in ("star", "ring")
      for values in ((2, 3, 4, 5, 1, 3), (3, 1, 20), (21, 1, 2), (2, 0, 1))],
    *[("SearchBudget", SearchBudget, caps) for caps in ((1, 1), (64, 10**8), (0, 5), (5, 0))],
    *[("SearchBudget-repr", lambda *caps: repr(SearchBudget(*caps)), caps)
      for caps in ((1, 1), (64, 10**8))],
    *[("Graph-order", lambda n: Graph(n, [(0, 1)]), (n,)) for n in (0, 1, 3)],
    ("Graph-repr", lambda n: repr(Graph(n, [(0, 1)])), (3,)),
    *[("Graph-edge", lambda u, v: Graph(3, [(u, v)]), (u, v))
      for u, v in ((-1, 0), (0, 2), (2, 1), (2, 3), (1, 1))],
    *[("Graph.neighbors", lambda v: ring(5).neighbors(v), (v,)) for v in (-1, 0, 4, 5)],
    *[("Graph.degree", lambda v: ring(5).degree(v), (v,)) for v in (-1, 0, 4, 5)],
]


@pytest.mark.parametrize("call,args", [
    pytest.param(call, args, id=f"{name}:{','.join(map(str, args))}")
    for name, call, args in ENTRIES])
def test_every_entry_takes_an_index_type_as_its_int(call, args):
    assert outcome(call, *map(Index, args)) == outcome(call, *args)
