"""The pure search kernels as they were before incremental reachability.

A frozen copy, used only by ``test_reference_kernels.py``: the reference
``longest_cycle`` and ``cycle_with_length`` recompute reachability from the
path head with a fresh BFS (``_reachable``) at every node, and the reference
``subgraph_search`` builds its back-neighbour lists by scanning every earlier
position.  The package's kernels must return the same full result tuples:
status, witness and node count.  Do not change this module to match them.
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

    need = [task_adj[u].bit_count() for u in order]
    host_deg = [host_adj[v].bit_count() for v in range(host_n)]
    prev_pos = []
    for i in range(task_n):
        u = order[i]
        prev_pos.append([j for j in range(i) if (task_adj[u] >> order[j]) & 1])
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


def _reachable(head: int, adj: Sequence[int], free: int, target_bit: int) -> int:
    """Vertices reachable from head through ``free``; target is a terminal."""
    domain = free | target_bit
    reach = 0
    frontier = adj[head] & domain
    while frontier:
        reach |= frontier
        grow = 0
        expand = frontier & free
        while expand:
            v = (expand & -expand).bit_length() - 1
            expand &= expand - 1
            grow |= adj[v]
        frontier = grow & domain & ~reach
    return reach


def longest_cycle(
    n: int,
    adj: Sequence[int],
    max_nodes: int,
    deadline: float,
) -> Tuple[int, int, Optional[List[int]], int]:
    """Length and witness of the longest simple cycle (0, None if acyclic).

    Each candidate cycle is searched from its smallest vertex (the anchor):
    paths start at the anchor and run through larger ids only.  Extension is
    pruned when the anchor becomes unreachable from the path head through
    free vertices, or when path length plus reachable-free count cannot beat
    the best cycle found so far.
    """
    best_len = 0
    best: Optional[List[int]] = None
    nodes = 0
    # explicit stack: path[0..d] is the path, with head path[d], and exts[i]
    # holds the untried extensions of path[i] for i < d
    path = [0] * n
    exts = [0] * n
    for a in range(n):
        if n - a <= best_len:
            break
        a_bit = 1 << a
        allowed = ((1 << n) - 1) & ~((a_bit << 1) - 1)
        if (adj[a] & allowed).bit_count() < 2:
            continue
        path[0] = a
        d = 0
        visited = a_bit
        while True:
            nodes += 1
            if nodes > max_nodes:
                return BUDGET_EXCEEDED, 0, None, nodes
            if (nodes & _TIME_CHECK_MASK) == 0 and deadline > 0 and monotonic() > deadline:
                return BUDGET_EXCEEDED, 0, None, nodes
            head = path[d]
            plen = d + 1
            if plen >= 3 and (adj[head] >> a) & 1 and plen > best_len:
                best_len = plen
                best = path[:plen]
                if best_len == n:
                    return EXHAUSTED, best_len, best, nodes
            free = allowed & ~visited
            reach = _reachable(head, adj, free, a_bit)
            ext = 0
            if reach & a_bit and plen + (reach & free).bit_count() > best_len:
                ext = adj[head] & free
            if not ext:
                # backtrack past the head and every vertex with nothing left to try
                visited ^= 1 << head
                d -= 1
                while d >= 0 and not exts[d]:
                    visited ^= 1 << path[d]
                    d -= 1
                if d < 0:
                    break
                ext = exts[d]
            w = (ext & -ext).bit_length() - 1
            exts[d] = ext & (ext - 1)
            d += 1
            path[d] = w
            visited |= 1 << w
    return EXHAUSTED, best_len, best, nodes


def cycle_with_length(
    n: int,
    adj: Sequence[int],
    k: int,
    max_nodes: int,
    deadline: float,
) -> Tuple[int, Optional[List[int]], int]:
    """Find one simple cycle of length exactly k (k >= 3), or prove none."""
    if k < 3 or k > n:
        return EXHAUSTED, None, 0
    nodes = 0
    # explicit stack: path[0..d] is the path, with head path[d], and exts[i]
    # holds the untried extensions of path[i] for i < d
    path = [0] * k
    exts = [0] * k
    for a in range(n - k + 1):
        a_bit = 1 << a
        allowed = ((1 << n) - 1) & ~((a_bit << 1) - 1)
        if (adj[a] & allowed).bit_count() < 2:
            continue
        path[0] = a
        d = 0
        visited = a_bit
        while True:
            nodes += 1
            if nodes > max_nodes:
                return BUDGET_EXCEEDED, None, nodes
            if (nodes & _TIME_CHECK_MASK) == 0 and deadline > 0 and monotonic() > deadline:
                return BUDGET_EXCEEDED, None, nodes
            head = path[d]
            plen = d + 1
            ext = 0
            if plen == k:
                if (adj[head] >> a) & 1:
                    return FOUND, path, nodes
            else:
                free = allowed & ~visited
                reach = _reachable(head, adj, free, a_bit)
                if reach & a_bit and plen + (reach & free).bit_count() >= k:
                    ext = adj[head] & free
            if not ext:
                # backtrack past the head and every vertex with nothing left to try
                visited ^= 1 << head
                d -= 1
                while d >= 0 and not exts[d]:
                    visited ^= 1 << path[d]
                    d -= 1
                if d < 0:
                    break
                ext = exts[d]
            w = (ext & -ext).bit_length() - 1
            exts[d] = ext & (ext - 1)
            d += 1
            path[d] = w
            visited |= 1 << w
    return EXHAUSTED, None, nodes
