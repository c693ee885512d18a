"""Edge-list text format.

Line 1 holds ``n m`` (order and edge count), followed by m lines ``u v`` with
0-based vertex ids.  A line whose first non-blank character is ``#`` is a
comment and may appear anywhere; blank lines are ignored.  A ``#`` after
data on a line is no comment, so ``0 1 # an edge`` is refused.  A line
holds at most 4096 characters besides its newline: a longer comment is
read past in pieces of that size, and any other longer line is refused at
its line number, so no read holds more than 4097 characters (an endless
line, such as ``/dev/zero`` gives, is refused at line 1).  Duplicate
and reversed edges collapse on read.  Orders above 2^20 (the largest the
package generates) are refused, and so are edge counts above
``graph._POWER_MAX_EDGES`` (the edges of H_20, the cap of every power), at
the header, before any edge line is read.
The reader hands ``Graph`` the edges one line at a time, so no list of
pairs is made, and it reports the first fault in file order, the header's
first: a bad header, then ``Graph``'s order check, then per edge line its
shape, its count against m and ``Graph``'s checks of its vertices, and
last too few edge lines.
The writer emits each edge once as ``u v`` with u < v, sorted
lexicographically, so equal graphs serialize identically.  It takes each
vertex's upper neighbors from ``Graph._upper_rows``, which reads the
adjacency masks when the graph holds only those (a power on the mask path of
``graph.graph_power``), decoding the bits above each vertex and no others,
and the neighbor tuples otherwise; the bytes are the same either way.
"""

from __future__ import annotations

import io
import os
from typing import TextIO, Union

from . import graph
from .errors import EdgeListFormatError
from .graph import Graph
from .topologies import MAX_HYPERCUBE_DIM

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_edge_list_path",
    "write_edge_list_path",
    "loads",
    "dumps",
]

PathLike = Union[str, os.PathLike]

# the longest line read, its newline aside; a data line needs under 40 characters
_LINE_CAP = 4096


def _data_lines(stream: TextIO):
    """Each data line's number and stripped text, read at most _LINE_CAP + 1
    characters at a time: a longer comment is read past in pieces, and any
    other longer line is refused."""
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


def read_edge_list(stream: TextIO) -> Graph:
    """Parse a graph from an open text stream."""
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
    if m > graph._POWER_MAX_EDGES:  # Graph holds every edge line until duplicates collapse
        raise EdgeListFormatError(f"line {lineno}: edge count {m} exceeds the cap "
                                  f"{graph._POWER_MAX_EDGES} (the edges of H_20)")
    if n > 1 << MAX_HYPERCUBE_DIM:  # refused before any per-vertex storage exists
        raise EdgeListFormatError(f"line {lineno}: order {n} exceeds the cap 2^{MAX_HYPERCUBE_DIM}")
    return Graph(n, _edge_pairs(lines, m))


def _edge_pairs(lines, m: int):
    """Each edge line's ``(u, v)``, parsed as ``Graph`` asks for it, and the
    count errors once there are more or fewer than m."""
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


def write_edge_list(g: Graph, stream: TextIO) -> None:
    """Write a graph in canonical form: header, then sorted ``u v`` lines."""
    stream.write(f"{g.order} {g.num_edges}\n")
    # the lines of sorted_edges(), one string per vertex: its neighbors above it
    names = [str(v) for v in range(g.order)]
    for u, upper in enumerate(g._upper_rows(names)):
        if upper:
            head = names[u] + " "
            stream.write(head + ("\n" + head).join(upper) + "\n")


def loads(text: str) -> Graph:
    return read_edge_list(io.StringIO(text))


def dumps(g: Graph) -> str:
    buf = io.StringIO()
    write_edge_list(g, buf)
    return buf.getvalue()


def read_edge_list_path(path: PathLike) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return read_edge_list(fh)
        except UnicodeDecodeError:
            raise EdgeListFormatError(f"{os.fspath(path)}: not UTF-8 text") from None


def write_edge_list_path(g: Graph, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_edge_list(g, fh)
