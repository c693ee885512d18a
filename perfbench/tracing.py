"""In-process replay of a workload's queries, traced layer by layer.

The replay calls ``topocompat.cli.run`` with each query's arguments.  For the
traced passes, the public functions of each module are wrapped, from here, in
span recorders: a span is (name, start, end, parent, query id, attributes),
kept in memory and written out when the run ends.  A layer's self time is its
spans' durations minus the time their child spans cover.  Node counts are
taken at the ``_kernels.kernels_for(order)`` entry points, because the public
search functions discard them.
"""

from __future__ import annotations

import io
import os
import statistics
import sys
import time
import tracemalloc
import traceback
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, Dict, List, Optional, Tuple

# span name -> per-layer metric that sums its self time
LAYER_OF = {
    "cli.run": "cli.self_ms",
    "topologies": "topologies.build_ms",
    "edgelist.read": "edgelist.read_ms",
    "edgelist.write": "edgelist.write_ms",
    "graph.power": "graph.power_ms",
    "graph.masks": "graph.masks_ms",
    "kernels": "kernels.search_ms",
    "embedding": "embedding.self_ms",
    "compat.potential": "compat.potential_ms",
    "compat.report": "compat.report_ms",
    "compat.render": "compat.render_ms",
}

# (module, attribute, span name); functions missing from a version are skipped
FUNCTIONS = [
    ("graph", "graph_power", "graph.power"),
    ("topologies", "hypercube", "topologies.hypercube"),
    ("topologies", "ring", "topologies.ring"),
    ("topologies", "star", "topologies.star"),
    ("topologies", "complete", "topologies.complete"),
    ("topologies", "gray_code_cycle", "topologies.gray_code_cycle"),
    ("topologies", "canonical_hypercube_dim", "topologies.canonical_hypercube_dim"),
    ("edgelist", "read_edge_list", "edgelist.read"),
    ("edgelist", "read_edge_list_path", "edgelist.read"),
    ("edgelist", "loads", "edgelist.read"),
    ("edgelist", "write_edge_list", "edgelist.write"),
    ("edgelist", "write_edge_list_path", "edgelist.write"),
    ("edgelist", "dumps", "edgelist.write"),
    ("embedding", "find_embedding", "embedding.find_embedding"),
    ("embedding", "longest_cycle", "embedding.longest_cycle"),
    ("embedding", "embeddable_ring_orders", "embedding.embeddable_ring_orders"),
    ("embedding", "max_star_order", "embedding.max_star_order"),
    ("compat", "star_potential", "compat.potential"),
    ("compat", "ring_potential", "compat.potential"),
    ("compat", "ring_potential_certificate", "compat.potential"),
    ("compat", "hypercube_star_potential", "compat.potential"),
    ("compat", "make_report", "compat.report"),
    ("compat", "compatibility_table", "compat.report"),
    ("compat", "render_csv", "compat.render"),
    ("compat", "render_text", "compat.render"),
    ("compat", "render_markdown", "compat.render"),
]
METHODS = [
    ("graph", "Graph", "adjacency_masks", "graph.masks"),
    ("topologies", "TopologySpec", "build", "topologies.build"),
]
KERNEL_ENTRIES = ("subgraph_search", "longest_cycle", "cycle_with_length")


class Tracer:
    """Span recorder; spans are lists [name, start_ns, end_ns, parent, qid, attrs]."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.qid: Optional[str] = None

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            span = [name, 0, 0, self.stack[-1] if self.stack else None, self.qid, {}]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self.stack.pop()
            if after is not None:
                after(span[5], args, result)
            return result

        return traced


def _package_modules() -> list:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "topocompat" or name.startswith("topocompat."))]


def _file_bytes(attrs: dict, args: tuple, _result) -> None:
    path = next((a for a in reversed(args) if isinstance(a, (str, os.PathLike))), None)
    if path is not None and os.path.isfile(path):
        attrs["bytes"] = os.path.getsize(path)


def _power_edges(attrs: dict, _args: tuple, result) -> None:
    attrs["edges"] = result.num_edges


class _Patches:
    """Swap package functions for wrappers in every module that binds them."""

    def __init__(self):
        self.undo: List[Tuple[object, str, object]] = []

    def replace(self, orig: object, new: object) -> None:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self.undo.append((mod, attr, orig))

    def set(self, owner: object, attr: str, new: object) -> None:
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self.undo):
            setattr(owner, attr, orig)
        self.undo.clear()


def install_tracer(tracer: Tracer) -> _Patches:
    import topocompat._kernels as kernels

    patches = _Patches()
    for modname, attr, span in FUNCTIONS:
        mod = sys.modules.get("topocompat." + modname)
        fn = getattr(mod, attr, None)
        if fn is None:
            continue
        after = None
        if span == "graph.power":
            after = _power_edges
        elif attr.endswith("_path"):
            after = _file_bytes
        patches.replace(fn, tracer.wrap(span, fn, after))
    for modname, cls_name, attr, span in METHODS:
        cls = getattr(sys.modules.get("topocompat." + modname), cls_name, None)
        if cls is not None and hasattr(cls, attr):
            patches.set(cls, attr, tracer.wrap(span, getattr(cls, attr)))

    kernels_for = kernels.kernels_for

    def traced_kernels_for(order):
        return _KernelProxy(kernels_for(order), tracer)

    patches.set(kernels, "kernels_for", traced_kernels_for)
    return patches


class _KernelProxy:
    """A kernel backend whose entry points record status, nodes and backend."""

    def __init__(self, mod, tracer: Tracer):
        self._mod = mod
        backend = "compiled" if mod.__name__.endswith("_ckernels") else "pure"

        def record(attrs, _args, result):
            attrs.update(status=result[0], nodes=result[-1], backend=backend)

        for name in KERNEL_ENTRIES:
            setattr(self, name, tracer.wrap("kernels." + name, getattr(mod, name), record))

    def __getattr__(self, name):
        return getattr(self._mod, name)


def power_peak_patch(peaks: List[int]) -> _Patches:
    """Wrap graph_power alone, recording tracemalloc's peak inside each call."""
    import topocompat.graph as graph

    orig = graph.graph_power

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return orig(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    patches = _Patches()
    patches.replace(orig, measured)
    return patches


# -- replay -------------------------------------------------------------------------

def replay_pass(queries, run: Callable, tracer: Optional[Tracer] = None):
    """Run every query in-process; returns (seconds, [(query, rc, out, err)])."""
    results = []
    total = 0.0
    call = run if tracer is None else tracer.wrap("cli.run", run)
    for q in queries:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.qid = q.qid
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = call(q.argv)
        except Exception:  # the query failed; its traceback is the result
            rc = None
            err.write(traceback.format_exc())
        total += time.perf_counter() - t0
        results.append((q, rc, out.getvalue(), err.getvalue()))
    return total, results


def self_times(spans: List[list]) -> List[int]:
    covered = [0] * len(spans)
    for span in spans:
        if span[3] is not None:
            covered[span[3]] += span[2] - span[1]
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer sums over one traced pass."""
    out = {metric: 0.0 for metric in LAYER_OF.values()}
    nodes = wasted = kernel_ns = 0
    power_edges = read_bytes = write_bytes = 0
    for span, self_ns in zip(spans, self_times(spans)):
        name, attrs = span[0], span[5]
        key = name if name in LAYER_OF else name.split(".", 1)[0]
        if key in LAYER_OF:
            out[LAYER_OF[key]] += self_ns / 1e6
        if key == "kernels":
            kernel_ns += span[2] - span[1]
            nodes += attrs.get("nodes", 0)
            if attrs.get("status") == 2:  # BUDGET_EXCEEDED
                wasted += attrs.get("nodes", 0)
        power_edges += attrs.get("edges", 0)
        if name == "edgelist.read":
            read_bytes += attrs.get("bytes", 0)
        elif name == "edgelist.write":
            write_bytes += attrs.get("bytes", 0)
    out["kernels.nodes"] = nodes
    out["kernels.nodes_per_s"] = nodes / (kernel_ns / 1e9) if kernel_ns else 0.0
    out["kernels.wasted_node_ratio"] = wasted / nodes if nodes else 0.0
    out["graph.power_edges"] = power_edges
    out["edgelist.bytes"] = read_bytes + write_bytes
    return out


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}


# -- kernel section: the six backend-comparison cases ---------------------------------

NODE_CAP = 10**9
NO_DEADLINE = 0.0


def kernel_cases():
    """(name, runner) pairs; a runner takes a kernel module and returns its result."""
    import random

    from topocompat import from_edge_list, graph_power, hypercube, ring

    def order_of(g):
        return sorted(range(g.order), key=lambda u: (-g.degree(u), u))

    def subgraph(task, host):
        args = (task.order, task.adjacency_masks(), host.order, host.adjacency_masks(),
                order_of(task), NODE_CAP, NO_DEADLINE)
        return lambda kern: kern.subgraph_search(*args)

    def longest(g):
        args = (g.order, g.adjacency_masks(), NODE_CAP, NO_DEADLINE)
        return lambda kern: kern.longest_cycle(*args)

    def ring_orders(g, up_to):
        masks = g.adjacency_masks()

        def runner(kern):
            return [kern.cycle_with_length(g.order, masks, p, NODE_CAP, NO_DEADLINE)
                    for p in range(3, up_to + 1)]

        return runner

    h4, h5 = hypercube(4), hypercube(5)
    h4_minus = from_edge_list(15, [(u - 1, v - 1) for u, v in h4.edges if 0 not in (u, v)])
    rng = random.Random(9)
    sparse = from_edge_list(20, [(u, v) for u in range(20) for v in range(u + 1, 20)
                                 if rng.random() < 0.18])
    return [
        ("C9 into H5 (absent)", subgraph(ring(9), h5)),
        ("C11 into H5 (absent)", subgraph(ring(11), h5)),
        ("C16 into H4^2 (found)", subgraph(ring(16), graph_power(h4, 2))),
        ("longest cycle, H4 minus a vertex", longest(h4_minus)),
        ("longest cycle, random n=20 p=0.18", longest(sparse)),
        ("ring orders 3..16 in H4", ring_orders(h4, 16)),
    ]


def _nodes(result) -> int:
    if isinstance(result, list):
        return sum(r[-1] for r in result)
    return result[-1]


def kernel_section(backends: Dict[str, object]):
    """Time every case on every backend; returns (rows, mismatched case names).

    Results, witnesses and node counts must be equal across backends.
    """
    rows, mismatches = [], []
    for name, runner in kernel_cases():
        results = {}
        for backend, kern in backends.items():
            t0 = time.perf_counter()
            results[backend] = runner(kern)
            rows.append({"case": name, "backend": backend, "nodes": _nodes(results[backend]),
                         "seconds": time.perf_counter() - t0})
        if len({repr(r) for r in results.values()}) > 1:
            mismatches.append(name)
    return rows, mismatches
