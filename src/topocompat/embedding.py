"""Exact embedding machinery: subgraph isomorphism and cycles.

An embedding is an injective, edge-preserving map of a task graph into a
host graph (usually a reachability-transformed system graph).  Searches are
exact: a ``None``/empty answer is a proof of absence, while running out of
budget raises :class:`~topocompat.errors.BudgetExceeded` so that "unknown"
can never be mistaken for "impossible".

The backtracking searches themselves live in ``topocompat._kernels`` with a
compiled fast path; this module owns the contracts, budget handling, and the
necessary conditions that prove absence without a search.

Before any subgraph search, :func:`find_embedding` runs the O(n + m)
necessary conditions in :data:`ABSENCE_CHECKS`; the first one that fails is a
proof of absence and the search is skipped:

- degree dominance: the task has more vertices than the host, or the i-th
  largest task degree exceeds the i-th largest host degree for some i (this
  also covers a task with more edges than the host);
- component fit: some task component fits in no host component, either
  because every host component is smaller, or because the only large enough
  ones are bipartite and the task component is not, or its 2-coloring
  classes are larger than theirs.

The search places task vertices greatest constraint first, the order of the
exact matchers VF2++ and RI: the vertex of largest degree, then each time the
unplaced vertex with the most placed neighbours (ties to larger degree, then
smaller id).  A vertex with a placed neighbour can only go next to that
neighbour's image, a handful of host vertices, while one without can go to
any unused host vertex.  An order by degree alone places a heap-numbered
binary tree's siblings before their parent and so branches over the whole
host at several depths: the 31-vertex tree into H6 ran past 20M nodes that
way, and is found in 38 nodes now.  The order changes only which branch is
tried first, never what is explored, so answers stay exact.

The ring certificate (:func:`topocompat.compat.ring_potential_certificate`)
searches for a longest cycle under the labels of :func:`_anchor_order`, low
degree first, ties to the smaller id, and maps the witness back.  The
kernels search each cycle from its smallest vertex, its anchor, so the
low-degree vertices become anchors first.  A vertex of degree two fixes both
of its cycle neighbours at once, and once its cycles have been searched it
leaves the free set, which starves its neighbours and lets the kernels peel
more of the reachable set.  Relabelling is exact: under any total order every
cycle has exactly one smallest vertex, so every cycle is still searched once.
On a regular host the order is the identity.  On the benchmark's G(60, 0.07)
of seed 1, the longest cycle takes 181 nodes this way and runs past 500,000
without it.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence, Tuple

from . import _kernels
from .errors import BudgetExceeded, HostTooLarge, InvalidParameter, _FrozenRecord
from .graph import _POWER_MAX_EDGES, Graph, _check_deadline, _check_integer, _colored_components

__all__ = [
    "Embedding",
    "SearchBudget",
    "find_embedding",
]


class Embedding(_FrozenRecord):
    """Map from task vertex i to host vertex mapping[i]."""

    _fields = ("mapping",)

    def __init__(self, mapping: Tuple[int, ...]):
        super().__init__(mapping)

    def __len__(self) -> int:
        return len(self.mapping)


# Largest host order whose adjacency masks, n bits each (about n^2/8 bytes),
# fit in the bytes of a power at the edge cap (16 per edge): 36,635
_MASK_MAX_HOST_ORDER = math.isqrt(128 * _POWER_MAX_EDGES)


class SearchBudget(_FrozenRecord):
    """Caps for the exponential searches.

    max_host_order bounds the host size accepted by the generic subgraph
    search, which never takes a host above ``_MASK_MAX_HOST_ORDER`` whatever
    the cap, since the host's n-bit adjacency masks would then take more
    bytes than a power at the edge cap; max_nodes bounds backtracking node
    expansions; time_limit is finite wall-clock seconds.  Exceeding nodes or
    time raises BudgetExceeded.  Each field must be finite: a nan cap
    compares False against every order and count, so it would switch its
    check off.  The two caps must be integers, as both kernels count in
    them: ``operator.index`` must take each.  The time limit must be a
    number that adds to a float, as the deadline is ``time.monotonic()``
    plus it.
    """

    _fields = ("max_host_order", "max_nodes", "time_limit")

    def __init__(self, max_host_order: int = 64, max_nodes: int = 10**8, time_limit: float = 60.0):
        inf = float("inf")
        for name, cap in zip(self._fields, (max_host_order, max_nodes)):
            # a float cap that is nan, infinite or below 1 is left to the range test's message
            if not isinstance(cap, float) or 1 <= cap < inf:
                _check_integer(cap, InvalidParameter, f"search budget {name}")
        try:  # deadline() adds the limit to a float
            limit_ok = 0 < 0.0 + time_limit < inf
        except TypeError:
            raise InvalidParameter(
                f"search budget time_limit must be a number, got {time_limit!r}") from None
        if not (1 <= max_host_order < inf and 1 <= max_nodes < inf and limit_ok):
            raise InvalidParameter("search budget fields must be strictly positive and finite")
        super().__init__(max_host_order, max_nodes, time_limit)

    def deadline(self) -> float:
        return time.monotonic() + self.time_limit

    def check_host_order(self, order: int) -> None:
        """Raise HostTooLarge when a host of this order exceeds max_host_order
        or ``_MASK_MAX_HOST_ORDER``, whichever is smaller."""
        cap = min(self.max_host_order, _MASK_MAX_HOST_ORDER)
        if order > cap:
            raise HostTooLarge(f"host order {order} exceeds budget cap {cap}")


DEFAULT_BUDGET = SearchBudget()


def _search_order(task: Graph) -> list:
    """The order in which the subgraph search places task vertices: greatest
    constraint first.

    The first vertex has the largest degree, ties to the smallest id.  Each
    later one is the unplaced vertex with the most placed neighbours, ties to
    the larger degree, then the smaller id (the module docstring says why).
    When a component is done, every unplaced vertex has no placed neighbour,
    so the next component starts by the first rule.

    Vertices with no placed neighbour are taken from one list sorted by
    (-degree, id).  The others wait in a lazy heap keyed on (-placed
    neighbours, -degree, id), which gets one entry per edge: an entry is
    stale once its vertex's count has grown past it.  So the order takes
    O((n + m) log n), and a path or ring keeps the heap at two entries.
    """
    from heapq import heappop, heappush  # only searches need it, not the CLI import

    nbrs = [task.neighbors(u) for u in range(task.order)]
    by_degree = sorted(range(task.order), key=lambda u: -len(nbrs[u]))  # stable: ties by id
    links = [0] * task.order  # placed neighbours of each vertex, -1 once it is placed
    heap, order, start = [], [], 0
    while len(order) < task.order:
        while heap and -heap[0][0] != links[heap[0][2]]:
            heappop(heap)
        if heap:
            u = heappop(heap)[2]
        else:  # no unplaced vertex has a placed neighbour
            while links[by_degree[start]] < 0:
                start += 1
            u = by_degree[start]
        links[u] = -1
        order.append(u)
        for w in nbrs[u]:
            if links[w] >= 0:
                links[w] += 1
                heappush(heap, (-links[w], -len(nbrs[w]), w))
    return order


def _degrees_exclude(task: Graph, host: Graph) -> bool:
    """The task has more vertices than the host, or its i-th largest degree
    exceeds the host's i-th largest degree.

    Proof: an embedding is injective on vertices.  The i task vertices of
    largest degree all have degree at least t_i, the i-th largest.  Their
    images are i distinct host vertices, each with at least as many
    neighbors as its preimage, so the host has i vertices of degree >= t_i,
    and its i-th largest degree h_i >= t_i.  Summing t_i <= h_i gives
    2 * m_task <= 2 * m_host, so no separate edge count is needed.
    """
    task_deg = sorted(map(task.degree, range(task.order)), reverse=True)
    host_deg = sorted(map(host.degree, range(host.order)), reverse=True)
    return len(task_deg) > len(host_deg) or any(t > h for t, h in zip(task_deg, host_deg))


def _components_exclude(task: Graph, host: Graph, deadline: Optional[float] = None) -> bool:
    """Some task component fits in no host component.

    The host's component sweep reads the optional monotonic ``deadline``
    every 4096 units of work (:func:`graph._colored_components`) and raises
    BudgetExceeded past it; the task's, which is no larger, reads none.

    A host component holds a task component only if it has at least as many
    vertices and, when the host component is bipartite, the task component
    is bipartite with classes a >= b against host classes A >= B where
    a <= A and b <= B.

    Proof: an embedding maps a connected task component into one connected
    host component, injectively, so the sizes compare.  A bipartite host
    component has no odd cycle, so nothing embedded in it has one.  The
    host's 2-coloring pulled back along the embedding 2-colors the task
    component, and a connected graph's 2-coloring is unique up to swapping
    the classes, so the task classes land injectively in distinct host
    classes: {a, b} <= {A, B} in some order, which for sorted pairs is
    a <= A and b <= B.
    """
    host_comps = set(_colored_components(host, deadline, "embedding search")[1])
    return any(
        not any(_component_holds(h, t) for h in host_comps)
        for t in set(_colored_components(task)[1])
    )


def _component_holds(host_comp, task_comp) -> bool:
    """Whether a (size, classes) host component can hold a task component."""
    (h_size, h_classes), (size, classes) = host_comp, task_comp
    if h_classes is None:
        return size <= h_size
    return classes is not None and classes[0] <= h_classes[0] and classes[1] <= h_classes[1]


# O(n + m) necessary conditions (degree dominance sorts, O(n log n)), cheapest
# first, as find_embedding runs them; any that returns True proves the task
# does not embed in the host
ABSENCE_CHECKS = (_degrees_exclude, _components_exclude)


def find_embedding(
    task: Graph, host: Graph, budget: SearchBudget = DEFAULT_BUDGET,
    deadline: Optional[float] = None,
) -> Optional[Embedding]:
    """One embedding of task into host, or None when provably none exists.

    Raises HostTooLarge when the host exceeds budget.max_host_order and
    BudgetExceeded when the search could not finish within budget.  The
    search stops at the monotonic ``deadline`` when one is given, else at
    ``budget.deadline()``.  It runs only when none of the ABSENCE_CHECKS
    proves absence first.  The degree check reads no deadline, so its proof
    is a proof even when it comes after the deadline; the host's component
    sweep reads it every 4096 units of work and raises BudgetExceeded past
    it.  The search places the task's vertices in :func:`_search_order`,
    each one next to as many placed neighbours as possible (see the module
    docstring).  A host that holds no masks gets them from
    :func:`_relabelled_masks` under its own labels, which reads the deadline
    as it builds them.
    """
    if deadline is None:
        deadline = budget.deadline()
    budget.check_host_order(host.order)
    if _degrees_exclude(task, host) or _components_exclude(task, host, deadline):
        return None
    # a power on the mask route holds its masks already
    host_masks = host._masks or _relabelled_masks(host, range(host.order), deadline,
                                                  "embedding search")
    kern = _kernels.kernels_for(host.order)
    status, mapping, _ = kern.subgraph_search(
        task.order,
        task.adjacency_masks(),
        host.order,
        host_masks,
        _search_order(task),
        budget.max_nodes,
        deadline,
    )
    if status == _kernels.BUDGET_EXCEEDED:
        raise BudgetExceeded("embedding search ran out of node or time budget")
    if status == _kernels.FOUND:
        return Embedding(tuple(mapping))
    return None


def _relabelled_masks(
    g: Graph, order: Sequence[int], deadline: Optional[float], what: str
) -> Tuple[int, ...]:
    """g's adjacency masks relabelled so that vertex order[i] becomes i, the
    masks both searches hand their kernels.

    Each mask is n bits wide and grows one neighbour at a time, so a row of
    d entries costs O(n * d), and a dense host's masks O(n^3) in all.  The
    optional monotonic ``deadline`` is read each time 4096 units of work
    have built up, a unit being a row or one of its entries, as the kernels
    read theirs every 4096 nodes, and BudgetExceeded naming the search
    ``what`` is raised past it.  A host of fewer units reads no deadline
    here, so a small search still decides before its first check.
    """
    label = [0] * g.order
    for i, u in enumerate(order):
        label[u] = i
    nbrs, masks, work = g._neighbors, [], 0
    for u in order:
        masks.append(sum(1 << label[w] for w in nbrs[u]))
        work += 1 + len(nbrs[u])
        if work >= 4096:
            work = 0
            _check_deadline(deadline, what)
    return tuple(masks)


def _anchor_order(g: Graph, deadline: Optional[float] = None) -> Tuple[list, Tuple[int, ...]]:
    """g's vertices in ascending (degree, id) order, and g's adjacency masks
    relabelled so that vertex order[i] becomes i (:func:`_relabelled_masks`,
    which reads the optional ``deadline``).

    The cycle kernels anchor each cycle at its smallest vertex, so under
    these labels low-degree vertices are anchors first (the module docstring
    says why).  On a regular graph the order is the identity and the masks
    equal g's own.
    """
    order = sorted(range(g.order), key=g.degree)  # stable: ties by id
    return order, _relabelled_masks(g, order, deadline, "longest-cycle search")
