"""Edge-list text format.

Line 1 holds ``n m`` (order and edge count), followed by m lines ``u v`` with
0-based vertex ids.  A line whose first non-blank character is ``#`` is a
comment and may appear anywhere; blank lines are ignored.  A ``#`` after
data on a line is no comment, so ``0 1 # an edge`` is refused.  A line
holds at most 4096 characters besides its newline: every read is one
``readline(4097)``, a longer comment is read past in pieces of that size,
and any other longer line is refused at its line number, so no read holds
more than 4097 characters (an endless line, such as ``/dev/zero`` gives, is
refused at line 1).  Duplicate and reversed edges collapse on read.
Orders above 2^20 (the largest the package generates) are refused, and so
are edge counts above ``graph._POWER_MAX_EDGES`` (the edges of H_20, the
cap of every power), at the header, before any edge line is read.
After the header the reader reads at most ``_BATCH`` (16) lines at a time
and hands ``Graph`` their edges, so no list of all pairs is made.  A batch
of whole ``u v`` lines of ASCII digits, each ending in a newline, that
keeps within m is parsed at once; any other batch is parsed one line at a
time.  Either way it reports the first fault in file order, the header's
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
import re
from functools import partial
from itertools import islice
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
# the most lines read and parsed at once
_BATCH = 16
# a batch of whole edge lines: two runs of ASCII digits and a newline each, the
# runs short enough for int() under any limit on digits (sys.set_int_max_str_digits)
_PAIRS = re.compile(r"(?:[0-9]{1,20} [0-9]{1,20}\n)*").fullmatch


def _data_lines(raws, lineno: int = 0):
    """Each data line's number and stripped text, numbered on from lineno.

    ``raws`` gives each line as read, at most _LINE_CAP + 1 characters at a
    time: a longer comment is read past in its further pieces, and any
    other longer line is refused.
    """
    for raw in raws:
        lineno += 1
        if raw[-1] != "\n" and len(raw) > _LINE_CAP:
            if raw.lstrip()[:1] != "#":
                raise EdgeListFormatError(f"line {lineno}: longer than {_LINE_CAP} characters")
            while raw and raw[-1] != "\n":
                raw = next(raws, "")
            continue
        line = raw.strip()
        if line and line[0] != "#":
            yield lineno, line


def read_edge_list(stream: TextIO) -> Graph:
    """Parse a graph from an open text stream."""
    raws = iter(partial(stream.readline, _LINE_CAP + 1), "")
    try:
        lineno, header = next(_data_lines(raws))
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
    return Graph(n, _edge_pairs(raws, lineno, m))


def _edge_pairs(raws, lineno: int, m: int):
    """Each edge line's ``(u, v)`` after line ``lineno``, parsed as ``Graph``
    asks for it, and the count errors once there are more or fewer than m.

    Lines come _BATCH at a time.  A batch that keeps within m, ends each
    read in a newline and matches _PAIRS whole is parsed with one split;
    any other is replayed through :func:`_data_lines` a line at a time, so
    each fault is the one a line-at-a-time read reports, at its line.
    """
    count = 0
    while True:
        batch = list(islice(raws, _BATCH))
        if not batch:
            break
        text = "".join(batch)
        newlines = text.count("\n")
        if count + len(batch) <= m and newlines == len(batch) and _PAIRS(text):
            count += len(batch)
            lineno += len(batch)
            ints = map(int, text.split())
            yield from zip(ints, ints)
            continue
        start = lineno
        for lineno, line in _data_lines(_replayed(batch, raws), start):
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
        # the lines the batch starts: one per newline, and one it ends inside
        lineno = start + newlines + (batch[-1][-1] != "\n")
    if count < m:
        raise EdgeListFormatError(f"expected {m} edge lines, found {count}")


def _replayed(batch, raws):
    """The batch's reads, then those of a long line it ends inside; the
    last of these ("" at the end of the input) ends that line."""
    yield from batch
    raw = batch[-1]
    while raw and raw[-1] != "\n" and len(raw) > _LINE_CAP:
        raw = next(raws, "")
        yield raw


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
