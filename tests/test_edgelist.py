"""Edge-list text format round-trips and error handling."""

import pytest

from topocompat import EdgeListFormatError, hypercube, ring, star
from topocompat.edgelist import dumps, loads
from oracles import generated_topologies


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


def test_order_above_cap_rejected_before_allocation():
    with pytest.raises(EdgeListFormatError, match="line 2: order 1048577 exceeds"):
        loads("# huge\n1048577 0\n")


def test_order_cap_boundary(monkeypatch):
    from topocompat import edgelist

    monkeypatch.setattr(edgelist, "MAX_HYPERCUBE_DIM", 2)
    assert loads("4 1\n0 3\n").order == 4
    with pytest.raises(EdgeListFormatError, match="line 1: order 5 exceeds the cap 2\\^2"):
        loads("5 0\n")


def test_path_helpers(tmp_path):
    from topocompat.edgelist import read_edge_list_path, write_edge_list_path

    g = star(5)
    target = tmp_path / "star.edges"
    write_edge_list_path(g, target)
    assert read_edge_list_path(target) == g
