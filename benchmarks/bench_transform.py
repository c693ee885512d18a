"""Time the reachability transform on each of its three routes.

    python benchmarks/bench_transform.py

Up to order 4096 (``graph._BALL_MASK_MAX_ORDER``) ``graph_power`` and
``star_potential_certificate`` make every ball as a bitmask: by the arc route
(a window sliding along each path or cycle, O(n) big-int operations) when
no vertex has degree above 2, else by mask rounds (one per unit of reach).
Above order 4096 they run a BFS per vertex.  The ``route`` column names the
route each case's graph and order select, and that route is timed.  Where
the other side of the order cap is affordable it is timed too (the BFS for
a case up to order 4096, the masks above), and both graphs must be equal.
The ``write`` column times ``edgelist.dumps`` of the built power: a power
from the masks holds only its masks, and the writer decodes the bits above
each vertex straight from them; one from the BFS slices its neighbour
tuples.  Where both sides are timed, the two texts must be byte-equal too.
The ``star`` column times ``star_potential_certificate``, and its answer
must equal that of ``graph._largest_ball_pass``, the all-balls pass with no
bound or recognition, run on the mask side (O(n) by arcs on a ring or a
path at any order).  The ``decided`` column names the step of
``star_potential_certificate`` that decides it, and each case lists the
step it must take, in ``graph._ball_by_bound``'s order: a probe BFS
against the degree bound (``degree``), the ball of vertex 0 once
``graph.hypercube_labels`` recognizes the system as H_s (``hypercube``),
one after a component sweep against the component bound (``component``),
or the pass itself (``pass``), so that every step stays timed at full size,
the BFS pass above order 4096 included.  The ``peak`` column is the most
that building the power (or, where it is not built, the star potential)
holds at once beyond what was live before, by ``tracemalloc`` in a run of
its own.  The relabelled cases shuffle the vertex ids with a fixed seed, so
that no ball is a run of consecutive bits.  The last line times
``edgelist.read_edge_list_path`` of the ``hypercube:16`` text from a
temporary file, the median of ``READS`` reads and that median per edge
line, with its ``tracemalloc`` peak too, and that peak must stay within
``READ_RATIO`` times the rows and ints the reader returns.
"""

import os
import random
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from topocompat import (  # noqa: E402
    Graph,
    graph,
    graph_power,
    parse_topology_spec,
)
from topocompat.compat import star_potential_certificate  # noqa: E402
from topocompat.edgelist import dumps, read_edge_list_path  # noqa: E402

# the most reading a file may hold at its peak, per byte of the rows and ints it returns
READ_RATIO = 1.5
READS = 5  # timed reads of the file, of which the median is printed


def chord_ring(n: int):
    """The n-ring plus the chord (0, n // 2), whose star potential no bound decides."""
    return Graph(n, [(v, (v + 1) % n) for v in range(n)] + [(0, n // 2)])


def relabelled(n: int, edges):
    """The graph on 0..n-1 with its vertex ids shuffled by a fixed seed."""
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


# (system, reach, whether to build the power, whether to run the other side too,
#  the step that decides the star potential)
CASES = [
    ("complete:1000", 2, True, False, "component"),  # dense: the BFS takes about a minute
    ("star:4000", 2, False, False, "component"),  # the power is K_4000, 16M entries either side
    ("hypercube:12", 3, True, True, "hypercube"),
    ("relabelled-hypercube:12", 2, False, False, "hypercube"),
    ("relabelled-hypercube:12", 5, False, False, "hypercube"),
    ("ring:4096", 8, True, True, "degree"),
    ("relabelled-ring:4096", 64, True, True, "degree"),
    ("relabelled-ring:4096", 2047, True, False, "degree"),  # 8.4M edges: the BFS rows take GBs
    ("relabelled-path:4096", 64, True, True, "degree"),
    ("path:4096", 3000, False, False, "pass"),  # the probe 0 is an end, so the star pass runs
    ("cycles:64x64", 16, True, True, "degree"),
    ("chord-ring:4096", 32, True, False, "pass"),  # one vertex of degree 3: mask rounds
    ("hypercube:13", 2, True, True, "hypercube"),
    ("chord-ring:8192", 16, True, True, "pass"),  # the BFS star pass
    ("ring:65536", 2, True, False, "degree"),  # the masks would take 512 MB
    ("ring:16384", 8192, False, False, "component"),  # the power is K_16384, above the cap
]


def build(spec: str):
    kind, _, arg = spec.partition(":")
    if kind == "chord-ring":
        return chord_ring(int(arg))
    if kind == "relabelled-ring":
        n = int(arg)
        return relabelled(n, [(v, (v + 1) % n) for v in range(n)])
    if kind in ("path", "relabelled-path"):
        n = int(arg)
        edges = [(v, v + 1) for v in range(n - 1)]
        return Graph(n, edges) if kind == "path" else relabelled(n, edges)
    if kind == "relabelled-hypercube":
        g = parse_topology_spec(f"hypercube:{arg}").build()
        return relabelled(g.order, g.sorted_edges())
    if kind == "cycles":  # "kxL": k disjoint cycles of order L
        k, order = map(int, arg.split("x"))
        return relabelled(k * order, [(c * order + v, c * order + (v + 1) % order)
                                      for c in range(k) for v in range(order)])
    return parse_topology_spec(spec).build()


def route(g) -> str:
    """The route that makes g's balls: arcs, mask rounds or a BFS per vertex."""
    if g.order > graph._BALL_MASK_MAX_ORDER:
        return "bfs"
    return "arcs" if g.max_degree() <= 2 else "masks"


def deciding_step(g, reach) -> str:
    """The step of ``star_potential_certificate`` that decides g at reach:
    the last of the recognizer and the component sweep that ran, if either did."""
    steps = []
    sweep, recognize = graph._colored_components, graph.hypercube_labels
    graph._colored_components = lambda h: steps.append("component") or sweep(h)
    graph.hypercube_labels = lambda h: steps.append("hypercube") or recognize(h)
    try:
        found = graph._ball_by_bound(g, reach)
    finally:
        graph._colored_components, graph.hypercube_labels = sweep, recognize
    if found is None:
        return "pass"
    return steps[-1] if steps else "degree"


def on_path(masks: bool, fn, *args):
    """(result, ms) of fn(*args) with the cap forcing the mask or the BFS path."""
    saved = graph._BALL_MASK_MAX_ORDER
    graph._BALL_MASK_MAX_ORDER = sys.maxsize if masks else 0
    try:
        return timed(fn, *args)
    finally:
        graph._BALL_MASK_MAX_ORDER = saved


def timed(fn, *args):
    """(result, ms) of fn(*args)."""
    t0 = time.perf_counter()
    return fn(*args), (time.perf_counter() - t0) * 1e3


def peak_mb(fn, *args):
    """The most fn(*args) holds at once beyond what was live before, in MB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()


def main() -> int:
    print(f"{'case':<34} {'route':<5} {'power':>9} {'write':>9} {'star':>9} {'decided':>9} "
          f"{'peak':>8} {'other side':>11} {'its write':>9}  equal")
    mismatches = 0
    for spec, reach, make_power, cross, expected_step in CASES:
        g = build(spec)
        masks = g.order <= graph._BALL_MASK_MAX_ORDER
        (p, ball), star_ms = on_path(masks, star_potential_certificate, g, reach)
        full_pass, _ = on_path(True, graph._largest_ball_pass, g, reach)
        step = deciding_step(g, reach)
        mismatches += ball != full_pass or p != 1 + len(ball[1]) or step != expected_step
        power_ms = write_ms = other = other_write = equal = "-"
        if make_power:
            power, ms = on_path(masks, graph_power, g, reach)
            text, wms = timed(dumps, power)  # first, while a mask-path power holds no rows
            power_ms, write_ms = f"{ms:6.0f} ms", f"{wms:6.0f} ms"
            mismatches += p != 1 + power.max_degree()
        if cross:
            power2, ms = on_path(not masks, graph_power, g, reach)
            text2, wms = timed(dumps, power2)
            other, other_write = f"{ms:6.0f} ms", f"{wms:6.0f} ms"
            same = power2 == power and text2 == text
            equal = str(same)
            mismatches += not same
        peak = peak_mb(graph_power if make_power else star_potential_certificate, g, reach)
        print(f"{spec + ' reach ' + str(reach):<34} {route(g):<5} "
              f"{power_ms:>9} {write_ms:>9} {star_ms:6.0f} ms {step:>9} {peak:5.1f} MB "
              f"{other:>11} {other_write:>9}  {equal}")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "hypercube16.edges")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(parse_topology_spec("hypercube:16").build()))
        times = []
        for _ in range(READS):
            g, ms = timed(read_edge_list_path, path)
            times.append(ms)
        ms = statistics.median(times)
        mismatches += g.order != 1 << 16 or g.num_edges != 16 << 15
        rows = g._neighbors
        held_mb = (sys.getsizeof(rows) + sum(map(sys.getsizeof, rows))
                   + sum(map(sys.getsizeof, range(g.order)))) / 2**20
        peak = peak_mb(read_edge_list_path, path)
        mismatches += peak > READ_RATIO * held_mb
        print(f"read hypercube:16 ({os.path.getsize(path) / 2**20:.1f} MB of text): {ms:.0f} ms "
              f"(median of {READS}), {ms * 1e3 / g.num_edges:.2f} us per edge line, "
              f"peak {peak:.1f} MB, {peak / held_mb:.2f}x the {held_mb:.1f} MB it returns")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
