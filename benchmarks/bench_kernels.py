#!/usr/bin/env python3
"""Benchmark the pure-Python search kernels against the compiled extension.

Runs identical workloads through both backends, verifies they return the
same result, and reports wall time, speedup and the nodes each search
expanded.  Rows whose graphs exceed the compiled backend's order limit run
on the pure backend only and print ``-`` in the compiled columns.  Usage:

    python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import random
import sys
import time
from pathlib import Path

try:
    import topocompat
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from topocompat import Graph, graph_power, hypercube, ring
from topocompat._kernels import COMPILED_MAX_ORDER, active_backend, pykernels
from topocompat.embedding import _anchor_order, _search_order

NO_DEADLINE = 0.0
NODE_CAP = 10**9


# each *_case returns (largest graph order, runner); a runner takes a kernel
# module and returns a tuple whose last item is the nodes expanded
def subgraph_case(task, host):
    args = (task.order, task.adjacency_masks(), host.order, host.adjacency_masks(),
            _search_order(task), NODE_CAP, NO_DEADLINE)
    return max(task.order, host.order), lambda kern: kern.subgraph_search(*args)


def longest_cycle_case(g):
    """The search the ring certificate runs: on the low-degree-first labels."""
    args = (g.order, _anchor_order(g)[1], NODE_CAP, NO_DEADLINE)
    return g.order, lambda kern: kern.longest_cycle(*args)


def ring_order_sweep_case(g, up_to):
    masks = _anchor_order(g)[1]

    def runner(kern):
        found, nodes = set(), 0
        for p in range(3, up_to + 1):
            status, _, spent = kern.cycle_with_length(g.order, masks, p, NODE_CAP, NO_DEADLINE)
            nodes += spent
            if status == kern.FOUND:
                found.add(p)
        return found, nodes

    return g.order, runner


def hypercube_minus_vertex(s):
    h = hypercube(s)
    return Graph(h.order - 1, [(u - 1, v - 1) for u, v in h.edges if 0 not in (u, v)])


def heap_tree(n):
    """The binary tree with vertex i's parent at (i - 1) // 2."""
    return Graph(n, [(i, (i - 1) // 2) for i in range(1, n)])


def sparse_random(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def build_workloads():
    """(name, largest graph order, runner) triples."""
    h4, h5 = hypercube(4), hypercube(5)
    return [
        ("C9 into H5 (absent)", *subgraph_case(ring(9), h5)),
        ("C11 into H5 (absent)", *subgraph_case(ring(11), h5)),
        ("C16 into H4^2 (found)", *subgraph_case(ring(16), graph_power(h4, 2))),
        ("tree31 into H6 (found)", *subgraph_case(heap_tree(31), hypercube(6))),
        ("longest cycle, H4 minus a vertex", *longest_cycle_case(hypercube_minus_vertex(4))),
        ("longest cycle, random n=20 p=0.18", *longest_cycle_case(sparse_random(20, 0.18, 9))),
        # sparse graphs like perfbench's G(40, 0.1) and G(60, 0.07), where the peel works
        ("longest cycle, sparse G(40)", *longest_cycle_case(sparse_random(40, 0.1, 4))),
        ("longest cycle, sparse G(60)", *longest_cycle_case(sparse_random(60, 0.07, 1))),
        ("ring orders 3..16 in H4", *ring_order_sweep_case(h4, 16)),
        # long paths, one node per path vertex, beyond the compiled order limit
        ("longest cycle, ring:1500", *longest_cycle_case(ring(1500))),
        ("ring:1200 into ring:1200 (found)", *subgraph_case(ring(1200), ring(1200))),
    ]


def best_time(runner, kern, repeat):
    best = None
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = runner(kern)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=1, help="timing repetitions (best of N)")
    args = parser.parse_args()

    compiled = active_backend() == "compiled"
    if not compiled:
        print("compiled kernels are not built; run `python setup.py build_ext --inplace`")
        print("timing the pure backend only\n")
    else:
        from topocompat._kernels import _ckernels

    workloads = build_workloads()
    width = max(len(name) for name, _, _ in workloads)
    header = (f"{'workload':{width}}  {'pure':>10}  {'compiled':>10}  {'speedup':>8}"
              f"  {'nodes':>9}")
    print(header)
    print("-" * len(header))
    for name, order, runner in workloads:
        pure_t, pure_r = best_time(runner, pykernels, args.repeat)
        nodes = pure_r[-1]
        if compiled and order <= COMPILED_MAX_ORDER:
            comp_t, comp_r = best_time(runner, _ckernels, args.repeat)
            if pure_r != comp_r:
                raise SystemExit(f"backend mismatch on {name!r}: {pure_r} vs {comp_r}")
            print(f"{name:{width}}  {pure_t * 1000:8.2f}ms  {comp_t * 1000:8.2f}ms"
                  f"  {pure_t / comp_t:7.1f}x  {nodes:>9}")
        else:
            print(f"{name:{width}}  {pure_t * 1000:8.2f}ms  {'-':>10}  {'-':>8}  {nodes:>9}")


if __name__ == "__main__":
    main()
