"""The edge-list reader as it was when it parsed one line at a time.

A frozen copy, used only by ``test_reference_edgelist.py``: the reference
``read_edge_list`` reads each line with ``readline(4097)``, a long comment's
further pieces with ``readline(4096)``, parses each edge line on its own and
hands it to ``graph``, a copy of ``Graph``'s per-edge checks and its sorted,
de-duplicated rows.  The package's reader must return an equal graph, or
raise the same exception with the same message.  Do not change this module
to match it.
"""

from __future__ import annotations

from topocompat import graph as _graph
from topocompat.errors import EdgeListFormatError, InvalidEdge, InvalidParameter, InvalidVertex
from topocompat.graph import Graph
from topocompat.topologies import MAX_HYPERCUBE_DIM

_LINE_CAP = 4096


def graph(n, edges):
    """``Graph(n, edges)`` as it was: each edge checked in turn, then each row
    sorted with its duplicates collapsed."""
    if n < 1:
        raise InvalidParameter(f"graph order must be positive, got {n}")
    adj = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n):
            raise InvalidVertex(f"vertex {u} out of range 0..{n - 1}")
        if not (0 <= v < n):
            raise InvalidVertex(f"vertex {v} out of range 0..{n - 1}")
        if u == v:
            raise InvalidEdge(f"self-loop at vertex {u}")
        adj[u].append(v)
        adj[v].append(u)
    return Graph._from_neighbors(tuple(tuple(sorted(set(row))) for row in adj))


def _data_lines(stream):
    readline = stream.readline
    lineno = 0
    while True:
        raw = readline(_LINE_CAP + 1)
        if not raw:
            return
        lineno += 1
        if raw[-1] != "\n" and len(raw) > _LINE_CAP:
            if raw.lstrip()[:1] != "#":
                raise EdgeListFormatError(f"line {lineno}: longer than {_LINE_CAP} characters")
            while raw and raw[-1] != "\n":
                raw = readline(_LINE_CAP)
            continue
        line = raw.strip()
        if line and line[0] != "#":
            yield lineno, line


def read_edge_list(stream):
    lines = _data_lines(stream)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise EdgeListFormatError("empty edge-list input") from None
    parts = header.split()
    if len(parts) != 2:
        raise EdgeListFormatError(f"line {lineno}: expected 'n m' header, got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise EdgeListFormatError(f"line {lineno}: non-integer header {header!r}") from None
    if m < 0:
        raise EdgeListFormatError(f"line {lineno}: negative edge count {m}")
    if m > _graph._POWER_MAX_EDGES:
        raise EdgeListFormatError(f"line {lineno}: edge count {m} exceeds the cap "
                                  f"{_graph._POWER_MAX_EDGES} (the edges of H_20)")
    if n > 1 << MAX_HYPERCUBE_DIM:
        raise EdgeListFormatError(f"line {lineno}: order {n} exceeds the cap 2^{MAX_HYPERCUBE_DIM}")
    return graph(n, _edge_pairs(lines, m))


def _edge_pairs(lines, m):
    count = 0
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListFormatError(f"line {lineno}: non-integer edge {line!r}") from None
        count += 1
        if count > m:
            raise EdgeListFormatError(f"line {lineno}: more than {m} edge lines")
        yield u, v
    if count < m:
        raise EdgeListFormatError(f"expected {m} edge lines, found {count}")
