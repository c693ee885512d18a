"""Parallelism potentials and compatibility indexes.

The potential of a task family against a system graph at reachability d is
the largest task order embeddable in the d-th power of the system graph; the
compatibility index divides that by the system order, so 1 means the whole
machine is usable by the task.  Star potentials on hypercubes have a closed
form (the Hamming ball size sum(C(s, i), i=0..d)) and ring potentials on
hypercubes are certified by the reflected Gray cycle, so building the full
star/ring-versus-hypercube table never touches the exponential search engine.
Star potentials on other systems are one largest reach-ball, often decided
by a single BFS against a degree or component bound, or by recognizing the
system as a hypercube (see :func:`star_potential_certificate`); the full
pass otherwise honours the time budget, as does building the power graph
for a ring potential.

:func:`potential` makes every cell, for the CLI and the table alike, and
builds each report.  It is the one place that answers a ``hypercube:s``
spec, with those closed forms and no graph built; the CLI's ``power``
reads its star cell to refuse an oversized power of H_s before building
it.  Every other spec is built and goes to one certificate function per
task family, which answers a system that is H_s under some labelling (a
file, say) as the closed forms do: :func:`ring_potential_certificate` with
the Gray cycle through that labelling, and the star with the ball of
vertex 0.  Each family thus has one dispatch on a graph: a recognized H_s,
else the pass or the search.  The two certificate functions are also the
only entries for a graph already built: p is the first item of each answer,
and no entry throws the certificate away.

A report stores p and n, not its index, which is read off them: exactly,
as a Fraction made when read, or as printed, rounded half-up to four
decimal places with a dot separator on integers (:func:`_half_up`), so
printing a cell does not import ``fractions``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from . import _kernels, embedding, graph
from .embedding import DEFAULT_BUDGET, SearchBudget
from .errors import BudgetExceeded, InvalidParameter, InvalidPotential, _FrozenRecord
from .graph import Graph, _check_reach, graph_power, hypercube_labels
from .topologies import TopologySpec, check_hypercube_dim, gray_code_cycle

if TYPE_CHECKING:  # imported only where a Fraction is made
    from fractions import Fraction

__all__ = [
    "CompatibilityReport",
    "star_potential_certificate",
    "ring_potential_certificate",
    "potential",
    "compatibility_table",
    "render_csv",
    "render_markdown",
    "render_text",
]

CSV_HEADER = "task,system,s_or_n,reach,n,p,c_exact_num,c_exact_den,c_rounded"
INDEX_PLACES = 4


def star_potential_certificate(
    system: Graph, reach: int, budget: SearchBudget = DEFAULT_BUDGET
) -> Tuple[int, Tuple[int, Tuple[int, ...]]]:
    """Star potential plus a witness: the first vertex of maximum degree in
    the power graph, and its neighbours there, ascending, as the leaves.

    A star K_{1,k} embeds iff some vertex of the power graph has degree >= k,
    so no search is needed, and that degree plus one is the size of the
    vertex's reach-ball: the center is the first center of a largest ball
    and the leaves are the rest of it, found without building the power
    graph.  Disconnected systems get the best component for free: a ball
    never crosses into another component.  :func:`graph._ball_by_bound`
    decides it when a probe BFS meets a bound on every ball, or the system
    is a hypercube under some labelling.  Otherwise
    :func:`graph._largest_ball_pass` sizes every ball, from the stream the
    transform reads, against the deadline of the budget's time limit from
    the call, and running out raises BudgetExceeded; only the time limit
    applies.  A reach below 1 raises InvalidReachability.
    """
    _check_reach(reach)
    deadline = budget.deadline()
    center, leaves = (graph._ball_by_bound(system, reach)
                      or graph._largest_ball_pass(system, reach, deadline))
    return 1 + len(leaves), (center, leaves)


def ring_potential_certificate(
    system: Graph, reach: int, budget: SearchBudget = DEFAULT_BUDGET
) -> Tuple[int, Optional[Tuple[int, ...]]]:
    """Ring potential plus a witness cycle (None when the potential is 0).

    The potential is the longest simple cycle of the power graph, 0 when the
    host is acyclic (no ring task of any order fits), as every system of
    order below 3 is.  A system that is H_s, s >= 2, under some labelling
    (:func:`topocompat.graph.hypercube_labels`) skips the search: the Gray
    cycle is Hamiltonian in H_s and stays one in every power, so the
    potential is the full order 2^s, and the witness is the Gray cycle
    mapped back through the labelling (itself, on the canonical labels).
    Otherwise building the power and the search share one deadline, the
    budget's time limit from the call.  A forest power (n - m components;
    m >= n needs a cycle, so only m < n is swept) answers 0 before any mask
    is made.  Else the kernels search the power under the low-degree-first
    labels of :func:`embedding._anchor_order`, within ``budget.max_nodes``,
    and the witness is mapped back to the system's labels.
    """
    _check_reach(reach)
    n, labels = system.order, hypercube_labels(system)
    if labels is not None and n >= 4:
        vertex = [0] * n  # the inverse labelling
        for v, label in enumerate(labels):
            vertex[label] = v
        return n, tuple(map(vertex.__getitem__, gray_code_cycle(n.bit_length() - 1)))
    deadline = budget.deadline()
    power = graph_power(system, reach, deadline)
    m = power.num_edges
    if m < n and m + len(graph._colored_components(power)[1]) == n:
        return 0, None
    order, masks = embedding._anchor_order(power, deadline)
    status, witness, _ = _kernels.kernels_for(n).longest_cycle(n, masks, budget.max_nodes, deadline)
    if status == _kernels.BUDGET_EXCEEDED:
        raise BudgetExceeded("longest-cycle search ran out of node or time budget")
    return (len(witness), tuple(order[v] for v in witness)) if witness else (0, None)


def potential(
    system: TopologySpec, task_kind: str, reach: int,
    budget: SearchBudget = DEFAULT_BUDGET, witness: bool = False,
) -> Tuple[CompatibilityReport, Optional[tuple]]:
    """One cell: the report of ``task_kind`` against ``system`` at ``reach``,
    and with ``witness`` its certificate (None without, or when p = 0).

    A ``hypercube:s`` spec takes the closed forms and builds no graph, and
    this is the one place that answers it: the star is the Hamming ball
    around 0, sum(C(s, i), i <= min(reach, s)), saturating at 2^s (H_s is
    vertex-transitive, so 0 is its first vertex of maximum degree), and the
    ring is the Gray cycle, for s >= 2.  ``power hypercube:s`` reads the
    star cell to size the power before H_s is built.  Every other spec is
    built and makes one call, with ``budget``, to the star or ring
    certificate function above; the certificate is kept only with
    ``witness``.  It is a cycle for rings and (center, leaves) for stars.
    """
    if task_kind not in ("star", "ring"):
        raise InvalidParameter(f"task kind must be 'star' or 'ring', got {task_kind!r}")
    _check_reach(reach)
    cert = None
    if system.kind == "hypercube":
        s, n = system.parameter, system.order()
        if task_kind == "star":
            p = sum(math.comb(s, i) for i in range(min(reach, s) + 1))
            if witness:
                cert = 0, tuple(v for v in range(1, n) if v.bit_count() <= reach)
        else:
            p = n if s >= 2 else 0
            if witness and p:
                cert = gray_code_cycle(s)
    else:
        g = system.build()
        n = g.order
        route = ring_potential_certificate if task_kind == "ring" else star_potential_certificate
        p, cert = route(g, reach, budget)
    return CompatibilityReport(system, task_kind, reach, n, p), cert if witness else None


def _check_potential(p: int, n: int) -> None:
    if n < 1:
        raise InvalidPotential(f"system order must be positive, got {n}")
    if p < 0 or p > n:
        raise InvalidPotential(f"potential {p} outside 0..{n}")


def _half_up(num: int, den: int) -> int:
    """num/den (both >= 0, den > 0) times 10^INDEX_PLACES, rounded half up to an integer."""
    q, r = divmod(num * 10**INDEX_PLACES, den)
    return q + (2 * r >= den)


class CompatibilityReport(_FrozenRecord):
    """One (system, task, reachability) cell: potential and index.

    Construction refuses a potential outside 0..n with InvalidPotential.
    The index is always p/n, read off the fields: ``index_exact`` makes a
    Fraction each time it is read, so a report that is only printed never
    imports ``fractions``: the renderers and the CLI use ``index_text`` and
    p and n instead.
    """

    _fields = ("system", "task_kind", "reach", "order_n", "potential_p")

    def __init__(self, system: TopologySpec, task_kind: str, reach: int, order_n: int,
                 potential_p: int):
        _check_potential(potential_p, order_n)
        super().__init__(system, task_kind, reach, order_n, potential_p)

    @property
    def index_exact(self) -> Fraction:
        """The exact index p/n; p = 0 (no task of the family fits) gives 0."""
        from fractions import Fraction

        return Fraction(self.potential_p, self.order_n)

    @property
    def index_text(self) -> str:
        """p/n rounded half up to four places, as printed, made with integers alone."""
        whole, frac = divmod(_half_up(self.potential_p, self.order_n), 10**INDEX_PLACES)
        return f"{whole}.{frac:0{INDEX_PLACES}d}"

    @property
    def size_label(self) -> int:
        """s for hypercubes, the order n otherwise (the table's column key)."""
        if self.system.kind == "hypercube":
            return self.system.parameter
        return self.order_n


def compatibility_table(
    s_values: Iterable[int], reach_values: Iterable[int], task_kind: str
) -> List[CompatibilityReport]:
    """Star/ring-versus-hypercube compatibility cells, reach-major, s ascending.

    Every cell is a :func:`potential` of a ``hypercube:s`` spec, so each
    comes from a closed form and no graph is built.  Dimensions and reaches
    must be integers in 1..MAX_HYPERCUBE_DIM: no two vertices of H_s lie
    more than s <= 20 apart, so a larger reach only repeats the reach-20
    row.  Each value is checked as it is read, so a huge range is refused at
    its first value out of bounds, before any cell is made.
    """
    dims = {check_hypercube_dim(s) for s in s_values}
    reaches = {check_hypercube_dim(reach, "reachability") for reach in reach_values}
    if not dims or not reaches:
        raise InvalidParameter("empty dimension or reachability range")
    ss = sorted(dims)
    return [potential(TopologySpec(kind="hypercube", parameter=s), task_kind, reach)[0]
            for reach in sorted(reaches) for s in ss]


def render_csv(reports: Sequence[CompatibilityReport]) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        # the exact index p/n in lowest terms, as Fraction would give it (0 is 0/1)
        common = math.gcd(r.potential_p, r.order_n)
        lines.append(
            f"{r.task_kind},{r.system.kind},{r.size_label},{r.reach},{r.order_n},"
            f"{r.potential_p},{r.potential_p // common},{r.order_n // common},{r.index_text}"
        )
    return "\n".join(lines) + "\n"


def render_text(reports: Sequence[CompatibilityReport]) -> str:
    lines = []
    for r in reports:
        lines.append(
            f"task={r.task_kind} system={r.system} reach={r.reach} "
            f"n={r.order_n} p={r.potential_p} c={r.index_text}"
        )
    return "\n".join(lines) + "\n"


def render_markdown(reports: Sequence[CompatibilityReport]) -> str:
    """Grid mirroring the reference layout: one row per reach, one column per s."""
    ss = sorted({r.size_label for r in reports})
    reaches = sorted({r.reach for r in reports})
    cells = {(r.reach, r.size_label): r for r in reports}
    task = reports[0].task_kind if reports else ""
    lines = [
        "| task=" + task + " | " + " | ".join(f"s={s}" for s in ss) + " |",
        "| --- |" + " --- |" * len(ss),
        "| n | " + " | ".join(str(cells[(reaches[0], s)].order_n) for s in ss) + " |",
    ]
    for reach in reaches:
        row = [f"{cells[(reach, s)].potential_p}; {cells[(reach, s)].index_text}" for s in ss]
        lines.append(f"| reach={reach} | " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"
