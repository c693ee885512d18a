"""Edge-list text format round-trips and error handling."""

import random
import re

import pytest

from topocompat import EdgeListFormatError, from_edge_list, graph_power, hypercube, ring, star
from topocompat.errors import InvalidEdge, InvalidParameter, InvalidVertex
from topocompat.edgelist import dumps, loads, read_edge_list
from oracles import generated_topologies, random_graph


def test_writer_canonical_form():
    assert dumps(ring(4)) == "4 4\n0 1\n0 3\n1 2\n2 3\n"


def test_reader_accepts_comments_and_blank_lines():
    text = "# a four-cycle\n4 4\n\n0 1\n1 2\n# middle comment\n2 3\n3 0\n"
    assert loads(text) == ring(4)


def test_duplicate_and_reversed_edges_collapse():
    g = loads("4 5\n0 1\n1 0\n1 2\n2 3\n3 0\n")
    assert g == ring(4)


@pytest.mark.parametrize("label,g", generated_topologies(64))
def test_round_trip(label, g):
    assert loads(dumps(g)) == g


def _edge_list_samples():
    """Seeded graphs and their squares, with isolated vertices and n = 1."""
    rng = random.Random(20261018)
    graphs = [random_graph(rng, rng.randint(1, 40), rng.choice((0.02, 0.1, 0.4)))
              for _ in range(30)]
    graphs += [from_edge_list(1, []), from_edge_list(12, [(3, 11)]), star(40)]
    return graphs + [graph_power(g, 2) for g in graphs]


@pytest.mark.parametrize("g", _edge_list_samples())
def test_writer_emits_sorted_edges(g):
    lines = [f"{g.order} {g.num_edges}\n"] + [f"{u} {v}\n" for u, v in sorted(g.edges)]
    assert dumps(g) == "".join(lines)


def test_round_trip_is_byte_identical():
    text = dumps(hypercube(3))
    assert dumps(loads(text)) == text


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",
        "3 two\n",
        "3 -1\n",
        "3 2\n0 1\n",
        "3 1\n0 1\n1 2\n",
        "3 1\n0 1 2\n",
        "3 1\nx y\n",
    ],
)
def test_malformed_inputs_rejected(text):
    with pytest.raises(EdgeListFormatError):
        loads(text)


@pytest.mark.parametrize("text,error,message", [
    ("3 2\n0 5\n0 1 2\n", InvalidVertex, "vertex 5 out of range 0..2"),  # before line 3's shape
    ("0 1\nx y\n", InvalidParameter, "graph order must be positive, got 0"),  # the header first
    ("3 2\n1 1\n", InvalidEdge, "self-loop at vertex 1"),  # before the missing line
    ("3 1\n0 1\n1 5\n", EdgeListFormatError, "line 3: more than 1 edge lines"),
])
def test_first_fault_in_file_order_is_reported(text, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        loads(text)


def test_order_above_cap_rejected_before_allocation():
    with pytest.raises(EdgeListFormatError, match="line 2: order 1048577 exceeds"):
        loads("# huge\n1048577 0\n")


def test_order_cap_boundary(monkeypatch):
    from topocompat import edgelist

    monkeypatch.setattr(edgelist, "MAX_HYPERCUBE_DIM", 2)
    assert loads("4 1\n0 3\n").order == 4
    with pytest.raises(EdgeListFormatError, match="line 1: order 5 exceeds the cap 2\\^2"):
        loads("5 0\n")


def test_edge_count_cap_boundary(monkeypatch):
    from topocompat import graph

    monkeypatch.setattr(graph, "_POWER_MAX_EDGES", 3)
    assert loads("4 3\n0 1\n1 2\n2 3\n").num_edges == 3
    with pytest.raises(EdgeListFormatError, match="^line 1: edge count 4 exceeds the cap 3 "):
        loads("4 4\n0 1\n1 2\n2 3\n3 0\n")


class ReadlineOnly:
    """A text stream read only through ``readline(size)``; iterating it fails the test."""

    def __init__(self, readline):
        self.readline = readline

    def __iter__(self):
        raise AssertionError("the reader iterated the stream")


def test_edge_count_above_cap_rejected_before_any_edge_line():
    def lines():  # a header over the cap of H_20's 10,485,760 edges, then no edge line
        yield "# two vertices, one edge given many times\n"
        yield "2 10485761\n"
        raise AssertionError("an edge line was read")

    gen = lines()
    with pytest.raises(EdgeListFormatError, match="^line 2: edge count 10485761 exceeds the cap"):
        read_edge_list(ReadlineOnly(lambda size: next(gen)))


def test_an_endless_line_is_refused_at_line_one():
    sizes = []

    def nuls(size):
        sizes.append(size)
        return "\0" * size

    with pytest.raises(EdgeListFormatError, match="^line 1: longer than 4096 characters$"):
        read_edge_list(ReadlineOnly(nuls))
    assert sizes == [4097]


@pytest.mark.parametrize("long_line", ["#" + "x" * 100_000, " \t# " + "x" * 100_000])
def test_a_long_comment_line_is_read_past(long_line):
    assert loads(f"{long_line}\n3 2\n0 1\n1 2\n") == from_edge_list(3, [(0, 1), (1, 2)])
    with pytest.raises(EdgeListFormatError, match="^line 4: non-integer edge '1 x'$"):
        loads(f"{long_line}\n3 2\n0 1\n1 x\n")
    # the same at the end of the input, without a newline
    assert loads(f"3 2\n0 1\n1 2\n{long_line}") == from_edge_list(3, [(0, 1), (1, 2)])


def test_a_data_line_longer_than_the_cap_is_refused():
    padded = "0" + " " * 4094 + "1"  # 4096 characters, the longest line read
    assert loads(f"2 1\n{padded}\n").num_edges == 1
    assert loads(f"2 1\n{padded}").num_edges == 1
    for text in (f"2 1\n{padded} \n", f"2 1\n{padded} ", "2 1\n" + " " * 5000 + "0 1\n"):
        with pytest.raises(EdgeListFormatError, match="^line 2: longer than 4096 characters$"):
            loads(text)


def test_path_helpers(tmp_path):
    from topocompat.edgelist import read_edge_list_path, write_edge_list_path

    g = star(5)
    target = tmp_path / "star.edges"
    write_edge_list_path(g, target)
    assert read_edge_list_path(target) == g


def test_non_utf8_file_is_a_format_error_naming_the_file(tmp_path):
    from topocompat.edgelist import read_edge_list_path

    target = tmp_path / "bytes.edges"
    target.write_bytes(b"\xff\xfe")
    with pytest.raises(EdgeListFormatError, match="bytes.edges: not UTF-8 text$"):
        read_edge_list_path(target)
    # a bad byte after valid lines is refused the same way
    target.write_bytes(b"2 1\n0 1\n# caf\xe9\n")
    with pytest.raises(EdgeListFormatError, match="^" + re.escape(f"{target}: not UTF-8 text") + "$"):
        read_edge_list_path(str(target))
