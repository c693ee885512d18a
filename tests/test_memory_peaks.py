"""Transient memory of the transform path, as tracemalloc ratios.

The ball-mask routes hold nothing beside their result that their next step
does not read: the arc route keeps one sliding window, not a prefix mask per
walk position, and hands each ball on and drops it, so the transform holds
one set of masks; the mask rounds hold the listed round before the last
beside the rows made from the last, so the transform holds two; the star
pass maps each last-round ball to its popcount as it is made, with no list
of singleton masks before round 1.  The bounds are ratios to the masks
returned, so they hold whatever an int costs on the interpreter at hand.  The reader hands its rows one shared int per vertex id,
and turns each adjacency list into its row in place, so no list outlives its
row: its peak is bounded against the rows and ints it returns.  So is the
hypercube generator's, which makes each row once from the shared ints.
"""

import gc
import random
import sys
import tracemalloc

from topocompat import from_edge_list, graph, hypercube, ring
from topocompat.edgelist import dumps, loads, read_edge_list_path, write_edge_list_path

# the most a route may hold at its peak, per byte of the masks measured against
PEAK_RATIO = 1.25
# the most the reader may hold at its peak, per byte of the rows and ints it returns
READ_RATIO = 1.5


def relabelled(g):
    """g with its vertex ids shuffled by a fixed seed, so no ball is a run of bits."""
    perm = list(range(g.order))
    random.Random(g.order).shuffle(perm)
    return from_edge_list(g.order, [(perm[u], perm[v]) for u, v in sorted(g.edges)])


def nbytes(masks):
    return sys.getsizeof(masks) + sum(map(sys.getsizeof, masks))


def rows_and_ints(g):
    """The bytes of g's rows and of one int per vertex id."""
    return nbytes(g._neighbors) + sum(map(sys.getsizeof, range(g.order)))


def balls_of(g, reach):
    """Every closed reach-ball of g, listed from the stream the transform reads."""
    return list(graph._balls(g, reach, None, "test"))


def peak_bytes(fn, *args):
    """(fn(*args), the most it allocated at once beyond what was live before).

    A full collection first empties the interpreter's free lists, so small
    tuples that earlier tests freed do not hide from tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_arc_route_holds_one_window_beside_the_balls():
    g = relabelled(ring(4096))
    g._neighbors  # decoded before measuring
    balls, peak = peak_bytes(balls_of, g, 64)
    assert peak <= PEAK_RATIO * nbytes(balls)


def test_arc_power_holds_one_set_of_masks():
    # the arcs hand each ball on and drop it, so the rows replace the balls
    g = relabelled(ring(4096))
    g._neighbors
    power, peak = peak_bytes(graph.graph_power, g, 64)
    assert peak <= PEAK_RATIO * nbytes(power._masks)


def test_round_power_holds_two_rounds_of_masks():
    # a relabelled host and one with its own labels
    for g in (relabelled(hypercube(12)), hypercube(10)):
        g._neighbors
        power, peak = peak_bytes(graph.graph_power, g, 3)
        assert peak <= PEAK_RATIO * 2 * nbytes(power._masks), g.order


def test_star_pass_holds_one_round_of_masks():
    g = relabelled(hypercube(12))
    one_round = nbytes(balls_of(g, 2))
    found, peak = peak_bytes(graph._largest_ball_pass, g, 2)
    assert len(found[1]) == 12 + 66
    assert peak <= PEAK_RATIO * one_round


def test_read_rows_share_one_int_per_vertex_id():
    g = loads(dumps(hypercube(10)))  # ids up to 1023, past the interpreter's small-int cache
    assert len({id(v) for row in g._neighbors for v in row}) == g.order


def test_reader_holds_each_adjacency_list_until_its_row_is_made(tmp_path):
    path = tmp_path / "h12.edges"
    write_edge_list_path(relabelled(hypercube(12)), path)
    g, peak = peak_bytes(read_edge_list_path, path)
    assert peak <= READ_RATIO * rows_and_ints(g)


def test_hypercube_makes_each_row_once():
    g, peak = peak_bytes(hypercube, 12)
    assert peak <= PEAK_RATIO * rows_and_ints(g)
