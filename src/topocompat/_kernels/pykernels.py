"""Pure-Python search kernels over bitmask adjacency.

These are the hot inner loops of the package: backtracking subgraph
isomorphism and exact simple-cycle search.  Adjacency arrives as one int
bitmask per vertex; arbitrary-width Python ints make the same code correct
for any graph order.  The compiled twin, the hand-written ``_ckernels.c``,
implements the identical algorithms over machine words (order <= 64) with
the identical candidate order and node accounting, so the two backends
return identical results, witnesses included.  Backtracking keeps its own
stack, so search depth is not bounded by the interpreter's recursion limit.

There is one cycle search, :func:`_cycle_search`: the longest cycle longer
than a given length with at most a given number of vertices.
:func:`longest_cycle` asks it for (0, n) and :func:`cycle_with_length` for
(k - 1, k).  The library calls only :func:`longest_cycle`;
:func:`cycle_with_length` is kept for the benchmark tracer's kernel section
and the parity tests until a ``cycle_search`` entry replaces both.

Status codes: FOUND (witness returned), EXHAUSTED (search space fully
explored), BUDGET_EXCEEDED (node or time cap hit; result unknown).

Node accounting: subgraph search counts one node per attempted candidate
assignment; the cycle search counts one node per vertex pushed on the path.
Deadlines are absolute ``time.monotonic()`` values checked every 4096 nodes
(0 disables the check).  The cycle search also checks every 4096 anchors,
as each anchor builds an n-bit mask even where it expands no node; so below
order 4097, the compiled kernels' orders included, only nodes count.

Reachability in the cycle search.  At a node with path head h, let F be
the free vertices (larger than the anchor and off the path).  The search
prunes on R, the free vertices reachable from h through free vertices, which
is the union of the components of G[F] that meet N(h).  The anchor a can
close a cycle through F iff it is adjacent to h or to R, so the anchor test
is ``adj[a] & (R | h) != 0``.  R is not recomputed from h at every node but
derived from the parent's:

    pushing w (a free neighbour of h, so w is in R) gives the child the set
    K_w - {w}, where K_w is w's component of G[F].

Proof: the child's free set is F - {w}.  A vertex x of K_w - {w} has a path
to w inside K_w; on a shortest one, every vertex before w is in F - {w} and
the last of them is a neighbour of w, so x is in a component of G[F - {w}]
that meets N(w).  Conversely, such a component is joined to w by an edge, so
it lies in K_w.

K_w is one of the components R is made of, so it is found inside R alone.
Each depth keeps its R and a flag saying whether R is a single component.
When it is, K_w = R and the child's set is R - {w} with no search; it is
again one component when w has at most one neighbour in it (w is then no
cut vertex of K_w), and otherwise a search from one neighbour of w decides
that, stopping once it has met them all.  Only when R is not known to be one
component is K_w - {w} searched for, inside R.  On a long path the set stays
one component and each node costs O(1) mask operations, where a fresh search
from the head would cost O(n).

Peeling the reachable set.  Every cycle through the path closes with a path
from the head h back to the anchor a whose interior lies in R.  Each interior
vertex has two neighbours on that closing path, so two in R | {h, a}.  The
search therefore drops from R, over and over, every vertex with fewer than
two neighbours in R | {h, a} (:func:`_peel`), and the bound, the anchor test
and the extensions all use the set that is left:

    no interior vertex of a closing path is ever dropped.

Proof: by induction on the drop order.  While none of the interior vertices
has been dropped, each still has its two path neighbours in R | {h, a}, so
it is not the next one dropped either.

The peel keeps the ``one`` flag true.  A dropped vertex has at most one
neighbour left in R, so it is a leaf or isolated in G[R], and taking it out
splits no component.

The peel is incremental, like R itself.  A child derives its set from the
parent's peeled set P as above: w's component of G[P], minus w.  A closing
path from w runs through P (it extends one from h) and is joined to w
there, so the child's set still holds its interior.  Every vertex of P had
two neighbours in P | {h, a}, and those in P lie in w's component, so in
the child's set or w.  The child's support is its set with {w, a}, so the
one vertex that has left the support is the old head h: only neighbours of
h can have fallen below two.  The child's peel starts from them and follows
what each drop loses.  At the root, where h = a, the whole set is peeled.
The set left does not depend on the order of the drops: it is the largest
subset in which every vertex has two neighbours in it or in {h, a}.

The peel only cuts branches that hold no cycle longer than the best one
found so far, so the search visits the nodes that improve the best cycle in
the same order as without it, and returns the same cycle whenever both
finish, in at most as many nodes.
"""

from __future__ import annotations

from time import monotonic
from typing import List, Optional, Sequence, Tuple

FOUND = 0
EXHAUSTED = 1
BUDGET_EXCEEDED = 2

_TIME_CHECK_MASK = 4095


def subgraph_search(
    task_n: int,
    task_adj: Sequence[int],
    host_n: int,
    host_adj: Sequence[int],
    order: Sequence[int],
    max_nodes: int,
    deadline: float,
) -> Tuple[int, Optional[List[int]], int]:
    """Find one injective edge-preserving map of task into host.

    ``order`` fixes the task-vertex assignment order.  Candidates for each
    task vertex are host vertices adjacent to the images of all its already
    assigned neighbors (all unused hosts when none are assigned yet), filtered
    by host degree >= task degree, tried in ascending id order.
    """
    if task_n > host_n:
        return EXHAUSTED, None, 0
    if task_n == 0:  # the empty map embeds an empty task
        return FOUND, [], 0

    need = [task_adj[u].bit_count() for u in order]
    host_deg = [host_adj[v].bit_count() for v in range(host_n)]
    # prev_pos[i]: positions j < i of the neighbours of order[i]; cand is ANDed with
    # their images' masks, so their order does not matter
    pos = [0] * task_n
    for i, u in enumerate(order):
        pos[u] = i
    prev_pos = []
    for i, u in enumerate(order):
        back = []
        nbrs = task_adj[u]
        while nbrs:
            j = pos[(nbrs & -nbrs).bit_length() - 1]
            nbrs &= nbrs - 1
            if j < i:
                back.append(j)
        prev_pos.append(back)
    all_hosts = (1 << host_n) - 1
    nodes = 0

    # explicit stack: positions 0..i-1 are mapped to image[0..i-1], which
    # ``used`` collects, and cands[i] holds the untried candidates for i
    image = [0] * task_n
    cands = [0] * task_n
    cands[0] = all_hosts
    used = 0
    i = 0
    while True:
        cand = cands[i]
        need_i = need[i]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if host_deg[v] >= need_i:
                break
        else:
            if i == 0:
                return EXHAUSTED, None, nodes
            i -= 1
            used &= ~(1 << image[i])
            continue
        cands[i] = cand
        nodes += 1
        if nodes > max_nodes:
            return BUDGET_EXCEEDED, None, nodes
        if (nodes & _TIME_CHECK_MASK) == 0 and deadline > 0 and monotonic() > deadline:
            return BUDGET_EXCEEDED, None, nodes
        image[i] = v
        if i + 1 == task_n:
            mapping = [-1] * task_n
            for j, u in enumerate(order):
                mapping[u] = image[j]
            return FOUND, mapping, nodes
        used |= 1 << v
        i += 1
        cand = all_hosts & ~used
        for j in prev_pos[i]:
            cand &= host_adj[image[j]]
        cands[i] = cand


def _grow(adj: Sequence[int], dom: int, comp: int, want: int) -> int:
    """Grow ``comp`` inside ``dom`` layer by layer until it holds ``want``
    or is closed: then it is the union of the components of G[dom] that
    meet the starting set."""
    frontier = comp
    while frontier and want & ~comp:
        grow = 0
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            grow |= adj[v]
        frontier = grow & dom & ~comp
        comp |= frontier
    return comp


def _reach_after(adj: Sequence[int], reach: int, one: bool, w: int) -> Tuple[int, bool]:
    """The reachable free set, and whether it is one component, once w is pushed.

    ``reach`` is the set before the push, with w in it, and ``one`` says it
    is a single component of G[free].  The new set is w's component of
    G[reach] minus w (see the module docstring).  When ``reach`` is one
    component that is ``reach`` minus w, and only its connectivity needs a
    search: it holds as soon as the component of one neighbour of w takes
    in all the others, so the search stops there.  Otherwise w's component
    is grown from its neighbours inside the old set.
    """
    rest = reach & ~(1 << w)
    seeds = adj[w] & rest
    first = seeds & -seeds
    if one:
        return rest, not seeds & ~_grow(adj, rest, first, seeds)
    comp = _grow(adj, rest, first, rest)
    left = seeds & ~comp
    if left:
        return comp | _grow(adj, rest, left, rest), False
    return comp, True


def _peel(adj: Sequence[int], r: int, keep: int, todo: int) -> int:
    """Drop from ``r``, over and over, every vertex with fewer than two
    neighbours in ``r | keep``.  Only the vertices of ``todo`` and the
    neighbours of dropped ones are checked, so every other vertex of ``r``
    must already have two (see the module docstring)."""
    todo &= r
    while todo:
        v = (todo & -todo).bit_length() - 1
        todo &= todo - 1
        nb = adj[v] & (r | keep)
        if not nb & (nb - 1):
            r &= ~(1 << v)
            todo |= adj[v] & r
    return r


def _cycle_search(
    n: int,
    adj: Sequence[int],
    best_len: int,
    limit: int,
    max_nodes: int,
    deadline: float,
) -> Tuple[int, Optional[List[int]], int]:
    """The longest simple cycle longer than ``best_len`` with at most
    ``limit`` vertices: (status, witness or None, nodes).

    Each candidate cycle is searched from its smallest vertex (the anchor):
    paths start at the anchor and run through larger ids only.  Extension is
    pruned when the path holds ``limit`` vertices, when the anchor becomes
    unreachable from the path head through free vertices, or when path
    length plus reachable-free count cannot beat the best cycle found so
    far.  The search stops as soon as a cycle of ``limit`` vertices is
    found.  The reachable free set is kept per depth, derived from the
    parent's and peeled of the vertices no closing path can use (see the
    module docstring).
    """
    best: Optional[List[int]] = None
    nodes = 0
    # explicit stack: path[0..d] is the path, with head path[d]; for i < d,
    # exts[i] holds the untried extensions of path[i], reach[i] the free
    # vertices reachable from path[i], and one[i] whether they are connected
    path = [0] * limit
    exts = [0] * limit
    reach = [0] * limit
    one = [False] * limit
    for a in range(n):
        if n - a <= best_len:
            break
        # an anchor may expand no node, yet its mask below takes O(n)
        if a and (a & _TIME_CHECK_MASK) == 0 and deadline > 0 and monotonic() > deadline:
            return BUDGET_EXCEEDED, None, nodes
        a_bit = 1 << a
        adj_a = adj[a]
        allowed = ((1 << n) - 1) & ~((a_bit << 1) - 1)
        if (adj_a & allowed).bit_count() < 2:
            continue
        path[0] = a
        d = 0
        while True:
            nodes += 1
            if nodes > max_nodes:
                return BUDGET_EXCEEDED, None, nodes
            if (nodes & _TIME_CHECK_MASK) == 0 and deadline > 0 and monotonic() > deadline:
                return BUDGET_EXCEEDED, None, nodes
            head = path[d]
            plen = d + 1
            if plen >= 3 and (adj[head] >> a) & 1 and plen > best_len:
                best_len = plen
                best = path[:plen]
                if best_len == limit:
                    return EXHAUSTED, best, nodes
            ext = 0
            if plen < limit:
                if d:
                    r, c = _reach_after(adj, reach[d - 1], one[d - 1], head)
                else:
                    r, c = _reach_after(adj, allowed | a_bit, False, a)
                # a child rechecks the old head's neighbours, the root all of r
                r = _peel(adj, r, a_bit | (1 << head), adj[path[d - 1]] if d else r)
                if adj_a & (r | (1 << head)) and plen + r.bit_count() > best_len:
                    ext = adj[head] & r
                    reach[d] = r
                    one[d] = c
            if not ext:
                # backtrack past the head and every vertex with nothing left to try
                d -= 1
                while d >= 0 and not exts[d]:
                    d -= 1
                if d < 0:
                    break
                ext = exts[d]
            w = (ext & -ext).bit_length() - 1
            exts[d] = ext & (ext - 1)
            d += 1
            path[d] = w
    return EXHAUSTED, best, nodes


def longest_cycle(
    n: int,
    adj: Sequence[int],
    max_nodes: int,
    deadline: float,
) -> Tuple[int, int, Optional[List[int]], int]:
    """Length and witness of the longest simple cycle (0, None if acyclic)."""
    status, best, nodes = _cycle_search(n, adj, 0, n, max_nodes, deadline)
    if best is None:
        return status, 0, None, nodes
    return status, len(best), best, nodes


def cycle_with_length(
    n: int,
    adj: Sequence[int],
    k: int,
    max_nodes: int,
    deadline: float,
) -> Tuple[int, Optional[List[int]], int]:
    """Find one simple cycle of length exactly k (k >= 3), or prove none:
    the longest cycle longer than k - 1 with at most k vertices.  No library
    function calls it; it is kept for the benchmark tracer's kernel section
    and the parity tests until ``cycle_search`` replaces it."""
    if k < 3 or k > n:
        return EXHAUSTED, None, 0
    status, best, nodes = _cycle_search(n, adj, k - 1, k, max_nodes, deadline)
    return (FOUND if best else status), best, nodes
