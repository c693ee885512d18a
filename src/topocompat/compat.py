"""Parallelism potentials and compatibility indexes.

The potential of a task family against a system graph at reachability d is
the largest task order embeddable in the d-th power of the system graph; the
compatibility index divides that by the system order, so 1 means the whole
machine is usable by the task.  Star potentials on hypercubes have a closed
form (the Hamming ball size sum(C(s, i), i=0..d)) and ring potentials on
hypercubes are certified by the reflected Gray cycle, so building the full
star/ring-versus-hypercube table never touches the exponential search engine.
Star potentials on other systems are one largest reach-ball, often decided
by a single BFS against a degree or component bound (see
:func:`topocompat.graph.largest_ball`); the full pass otherwise honours the
time budget, as does building the power graph for a ring potential.

:func:`potential` makes every cell, for the CLI and the table alike, and is
the one place that chooses between those closed forms (a ``hypercube:s``
spec, no graph built) and the graph functions (every other spec).

Indexes are kept as exact rationals; display rounding is half-up to four
decimal places with a dot separator.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from .embedding import DEFAULT_BUDGET, SearchBudget, longest_cycle
from .errors import InvalidParameter, InvalidPotential, InvalidReachability, _FrozenRecord
from .graph import Graph, graph_power, largest_ball
from .topologies import (
    MAX_HYPERCUBE_DIM,
    TopologySpec,
    canonical_hypercube_dim,
    check_hypercube_dim,
    gray_code_cycle,
)

if TYPE_CHECKING:  # imported where an index is made, so other commands never load them
    from decimal import Decimal
    from fractions import Fraction

__all__ = [
    "CompatibilityReport",
    "hypercube_star_potential",
    "hypercube_star_witness",
    "hypercube_ring_potential",
    "star_potential",
    "star_potential_certificate",
    "ring_potential",
    "ring_potential_certificate",
    "potential",
    "compatibility_index",
    "round_half_up",
    "compatibility_table",
    "make_report",
    "render_csv",
    "render_markdown",
    "render_text",
]

CSV_HEADER = "task,system,s_or_n,reach,n,p,c_exact_num,c_exact_den,c_rounded"


def hypercube_star_potential(s: int, reach: int) -> int:
    """Largest star order embeddable in the reach-th power of H_s.

    Exact integer sum(C(s, i), i=0..reach); terms with i > s vanish, so the
    value saturates at 2^s once reach >= s, and the sum stops at s.
    """
    check_hypercube_dim(s)
    _check_reach(reach)
    return sum(math.comb(s, i) for i in range(min(reach, s) + 1))


def hypercube_star_witness(s: int, reach: int) -> Tuple[int, Tuple[int, ...]]:
    """Center 0 and its leaves (weight 1..reach, ascending) in the reach-th power of H_s.

    H_s is vertex-transitive, so 0 is the first vertex of maximum degree there.
    """
    check_hypercube_dim(s)
    _check_reach(reach)
    return 0, tuple(v for v in range(1, 1 << s) if v.bit_count() <= reach)


def hypercube_ring_potential(s: int) -> int:
    """Ring potential of H_s at any reach: 2^s (the Gray cycle), 0 for the edge H_1."""
    check_hypercube_dim(s)
    return (1 << s) if s >= 2 else 0


def star_potential(system: Graph, reach: int, budget: SearchBudget = DEFAULT_BUDGET) -> int:
    """Largest star order embeddable in the transformed system graph."""
    return star_potential_certificate(system, reach, budget)[0]


def star_potential_certificate(
    system: Graph, reach: int, budget: SearchBudget = DEFAULT_BUDGET
) -> Tuple[int, Tuple[int, Tuple[int, ...]]]:
    """Star potential plus a witness: the first vertex of maximum degree in
    the power graph, and its neighbours there as the leaves.

    A star K_{1,k} embeds iff some vertex of the power graph has degree >= k,
    so no search is needed, and that degree plus one is the size of the
    vertex's reach-ball: the center is the first largest ball and the leaves
    are the rest of it, found without building the power graph.  Disconnected
    systems get the best component for free: a ball never crosses into
    another component.  Only the budget's time limit applies, and only when
    no single ball meets the degree or component bound: then every ball is
    sized, and running out raises BudgetExceeded.
    """
    _check_reach(reach)
    center, leaves = largest_ball(system, reach, budget.deadline())
    return 1 + len(leaves), (center, leaves)


def _check_reach(reach: int) -> None:
    if reach < 1:
        raise InvalidReachability(f"reachability must be >= 1, got {reach}")


def ring_potential_certificate(
    system: Graph, reach: int, budget: SearchBudget = DEFAULT_BUDGET
) -> Tuple[int, Optional[Tuple[int, ...]]]:
    """Ring potential plus a witness cycle (None when the potential is 0).

    The potential is the longest simple cycle of the power graph, 0 when the
    host is acyclic (no ring task of any order fits), as every system of
    order below 3 is.  Canonically labeled hypercubes skip the search: the
    Gray cycle is Hamiltonian in H_s and stays one in every power, so the
    potential is the full order 2^s.  Building the power honours the
    budget's time limit, and the search then takes a time limit of its own,
    so the whole can run for up to about twice the limit.
    """
    _check_reach(reach)
    s = canonical_hypercube_dim(system)
    if s is not None and s >= 2:
        return system.order, gray_code_cycle(s)
    return longest_cycle(graph_power(system, reach, budget.deadline()), budget)


def ring_potential(system: Graph, reach: int, budget: SearchBudget = DEFAULT_BUDGET) -> int:
    """Largest ring order embeddable in the transformed system graph."""
    return ring_potential_certificate(system, reach, budget)[0]


def potential(
    system: TopologySpec, task_kind: str, reach: int,
    budget: SearchBudget = DEFAULT_BUDGET, witness: bool = False,
) -> Tuple[CompatibilityReport, Optional[tuple]]:
    """One cell: the report of ``task_kind`` against ``system`` at ``reach``,
    and with ``witness`` its certificate (None without, or when p = 0).

    This is the only place that picks closed form or search.  A
    ``hypercube:s`` spec takes the closed forms and builds no graph; every
    other spec is built and goes to the star or ring functions above, with
    ``budget``.  The certificate is a cycle for rings and (center, leaves)
    for stars.
    """
    if task_kind not in ("star", "ring"):
        raise InvalidParameter(f"task kind must be 'star' or 'ring', got {task_kind!r}")
    _check_reach(reach)
    cert = None
    if system.kind == "hypercube":
        s = system.parameter
        if task_kind == "star":
            p = hypercube_star_potential(s, reach)
            cert = hypercube_star_witness(s, reach) if witness else None
        else:
            p = hypercube_ring_potential(s)
            cert = gray_code_cycle(s) if witness and p else None
        n = 1 << s
    else:
        g = system.build()
        n = g.order
        if task_kind == "ring":
            p, cert = ring_potential_certificate(g, reach, budget)
        elif witness:
            p, cert = star_potential_certificate(g, reach, budget)
        else:
            p = star_potential(g, reach, budget)
    return make_report(system, task_kind, reach, n, p), cert if witness else None


def compatibility_index(p: int, n: int) -> Fraction:
    """Exact index p/n; p = 0 (no task of the family fits) gives index 0."""
    if n < 1:
        raise InvalidPotential(f"system order must be positive, got {n}")
    if p < 0 or p > n:
        raise InvalidPotential(f"potential {p} outside 0..{n}")
    from fractions import Fraction

    return Fraction(p, n)


def round_half_up(value: Fraction, places: int = 4) -> Decimal:
    """Round a nonnegative rational half-up to the given decimal places."""
    from decimal import Decimal

    scale = 10**places
    q, r = divmod(value.numerator * scale, value.denominator)
    if 2 * r >= value.denominator:
        q += 1
    return Decimal(q).scaleb(-places)


class CompatibilityReport(_FrozenRecord):
    """One (system, task, reachability) cell: potential and index."""

    _fields = ("system", "task_kind", "reach", "order_n", "potential_p",
               "index_exact", "index_rounded")

    def __init__(self, system: TopologySpec, task_kind: str, reach: int, order_n: int,
                 potential_p: int, index_exact: Fraction, index_rounded: Decimal):
        super().__init__(system, task_kind, reach, order_n, potential_p, index_exact, index_rounded)

    @property
    def size_label(self) -> int:
        """s for hypercubes, the order n otherwise (the table's column key)."""
        if self.system.kind == "hypercube":
            return self.system.parameter
        return self.order_n


def make_report(
    system: TopologySpec, task_kind: str, reach: int, order_n: int, potential_p: int
) -> CompatibilityReport:
    index = compatibility_index(potential_p, order_n)
    return CompatibilityReport(
        system=system,
        task_kind=task_kind,
        reach=reach,
        order_n=order_n,
        potential_p=potential_p,
        index_exact=index,
        index_rounded=round_half_up(index),
    )


def compatibility_table(
    s_values: Iterable[int], reach_values: Iterable[int], task_kind: str
) -> List[CompatibilityReport]:
    """Star/ring-versus-hypercube compatibility cells, reach-major, s ascending.

    Every cell is a :func:`potential` of a ``hypercube:s`` spec, so each
    comes from a closed form and no graph is built.  Dimensions
    and reaches must lie in 1..MAX_HYPERCUBE_DIM: H_s has diameter s <= 20,
    so a larger reach only repeats the reach-20 row.  Each value is checked
    as it is read, so a huge range is refused at its first value out of
    bounds, before any cell is made.
    """
    dims, reaches = set(), set()
    for s in s_values:
        check_hypercube_dim(s)
        dims.add(s)
    for reach in reach_values:
        if not (1 <= reach <= MAX_HYPERCUBE_DIM):
            raise InvalidParameter(f"reachability must be in 1..{MAX_HYPERCUBE_DIM}, got {reach}")
        reaches.add(reach)
    if not dims or not reaches:
        raise InvalidParameter("empty dimension or reachability range")
    ss = sorted(dims)
    return [potential(TopologySpec(kind="hypercube", parameter=s), task_kind, reach)[0]
            for reach in sorted(reaches) for s in ss]


def render_csv(reports: Sequence[CompatibilityReport]) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.task_kind},{r.system.kind},{r.size_label},{r.reach},{r.order_n},"
            f"{r.potential_p},{r.index_exact.numerator},{r.index_exact.denominator},"
            f"{r.index_rounded}"
        )
    return "\n".join(lines) + "\n"


def render_text(reports: Sequence[CompatibilityReport]) -> str:
    lines = []
    for r in reports:
        lines.append(
            f"task={r.task_kind} system={r.system} reach={r.reach} "
            f"n={r.order_n} p={r.potential_p} c={r.index_rounded}"
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
        row = [f"{cells[(reach, s)].potential_p}; {cells[(reach, s)].index_rounded}" for s in ss]
        lines.append(f"| reach={reach} | " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"
