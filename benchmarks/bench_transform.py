"""Time the reachability transform on both sides of the bitset cap.

    python benchmarks/bench_transform.py

Up to order 4096 (``graph._BALL_MASK_MAX_ORDER``) ``graph_power`` and
``star_potential`` grow every ball at once as bitmasks; above it they run a
BFS per vertex.  Each case is timed on the path its order selects.  Where the
other path is affordable it is timed too, and both graphs must be equal.
The ``write`` column times ``edgelist.dumps`` of the built power: a power
from the mask path holds only its masks, and the writer decodes the bits
above each vertex straight from them; one from the BFS path slices its
neighbour tuples.  Where both paths are timed, the two texts must be
byte-equal too.  The ``bound`` column says whether one BFS against the
degree or component bound (``graph._ball_by_bound``) decides the star
potential, so that no path runs at all.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from topocompat import (  # noqa: E402
    from_edge_list,
    graph,
    graph_power,
    parse_topology_spec,
    star_potential,
)
from topocompat.edgelist import dumps  # noqa: E402


def chord_ring(n: int):
    """The n-ring plus the chord (0, n // 2), whose star potential no bound decides."""
    return from_edge_list(n, [(v, (v + 1) % n) for v in range(n)] + [(0, n // 2)])


# (system, reach, whether to build the power, whether to run the other path too)
CASES = [
    ("complete:1000", 2, True, False),  # dense: the BFS path takes about a minute
    ("star:4000", 2, False, False),  # the power is K_4000, 16M entries on either path
    ("hypercube:12", 3, True, True),
    ("ring:4096", 8, True, True),  # sparse and low reach: the BFS path is faster
    ("chord-ring:4096", 32, True, False),
    ("hypercube:13", 2, True, True),
    ("ring:65536", 2, True, False),  # the masks would take 512 MB
    ("ring:16384", 8192, False, False),  # the power is K_16384, above the edge cap
]


def build(spec: str):
    if spec.startswith("chord-ring:"):
        return chord_ring(int(spec.split(":")[1]))
    return parse_topology_spec(spec).build()


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


def main() -> int:
    print(f"{'case':<28} {'path':<5} {'power':>9} {'write':>9} {'star':>9} {'bound':>5} "
          f"{'other path':>11} {'its write':>9}  equal")
    mismatches = 0
    for spec, reach, make_power, cross in CASES:
        g = build(spec)
        masks = g.order <= graph._BALL_MASK_MAX_ORDER
        p, star_ms = on_path(masks, star_potential, g, reach)
        bound = "yes" if graph._ball_by_bound(g, reach) is not None else "no"
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
        print(f"{spec + ' reach ' + str(reach):<28} {'masks' if masks else 'bfs':<5} "
              f"{power_ms:>9} {write_ms:>9} {star_ms:6.0f} ms {bound:>5} {other:>11} "
              f"{other_write:>9}  {equal}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
