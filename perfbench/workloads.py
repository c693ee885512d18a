"""The three query sweeps, their seeded inputs, and an answer check per query.

Each query is the argument list of one ``topo-compat`` invocation plus a
check of its standard output.  Checks use only :mod:`refgraph`: closed forms,
parity and colour-class proofs of absence, and witnesses verified against a
power graph built here.  A check raises :class:`Wrong` for a wrong or
unverifiable answer.

Every search query carries an explicit ``--max-nodes`` so that "decided" versus
"unknown" depends only on the code, and a ``--time-limit`` far above any pass.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Callable, Dict, List, Optional

import refgraph as R

TIME_LIMIT = ["--time-limit", "3600"]

PURE = {"transform": True, "search": True, "search-compiled": False}


class Wrong(Exception):
    """The program's answer is wrong or cannot be verified."""


@dataclass
class Query:
    qid: str
    argv: List[str]
    check: Callable[[str], None]


class Inputs:
    """Seeded input files for one workload, written under ``root``."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.rng = random.Random(f"{workload}:{seed}")
        self.graphs: Dict[str, R.RefGraph] = {}
        self.powers: Dict[tuple, R.RefGraph] = {}
        os.makedirs(os.path.join(root, "out"), exist_ok=True)

    def add(self, name: str, g: R.RefGraph, relabel: bool = False) -> str:
        if relabel:
            perm = list(range(g.n))
            self.rng.shuffle(perm)
            g = R.RefGraph(g.n, [(perm[u], perm[v]) for u, v in g.sorted_edges()])
        self.graphs[name] = g
        with open(os.path.join(self.root, name), "w", encoding="utf-8") as fh:
            fh.write(g.edge_list_text())
        return "file:" + name

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)


# -- graphs named by CLI specs ---------------------------------------------------

def spec_graph(inputs: Inputs, spec: str) -> R.RefGraph:
    kind, _, arg = spec.partition(":")
    if kind == "file":
        return inputs.graphs[arg]
    return _named_graph(kind, int(arg))


@lru_cache(maxsize=None)
def _named_graph(kind: str, k: int) -> R.RefGraph:
    return {"hypercube": R.hypercube, "ring": R.ring}[kind](k)


def spec_power(inputs: Inputs, spec: str, reach: int) -> R.RefGraph:
    key = (spec, reach)
    if key not in inputs.powers:
        g = spec_graph(inputs, spec)
        inputs.powers[key] = g if reach == 1 else R.power(g, reach)
    return inputs.powers[key]


# -- output parsing ----------------------------------------------------------------

_POTENTIAL = re.compile(r"p=(\d+) c=(\d+\.\d{4})$")


def _lines(out: str) -> List[str]:
    return out.splitlines()


def _parse_potential(out: str, n: int):
    lines = _lines(out)
    m = _POTENTIAL.match(lines[0]) if lines else None
    if not m:
        raise Wrong(f"unparsable potential output {out[:80]!r}")
    p = int(m.group(1))
    if m.group(2) != R.rounded_index(p, n):
        raise Wrong(f"index {m.group(2)} is not p/n = {p}/{n} rounded")
    return p, lines[1:]


def _ints(text: str) -> List[int]:
    try:
        return [int(tok) for tok in text.split()]
    except ValueError:
        raise Wrong(f"non-integer witness {text[:80]!r}") from None


# -- checks ------------------------------------------------------------------------

def check_file(inputs: Inputs, out_name: str, graph_fn: Callable[[], R.RefGraph],
               edges: Optional[int] = None) -> Callable[[str], None]:
    """The written edge list equals the reference graph's canonical text."""
    digest = {}

    def check(_out: str) -> None:
        if "sha" not in digest:
            g = graph_fn()
            if edges is not None and g.num_edges() != edges:
                raise Wrong(f"reference has {g.num_edges()} edges, closed form {edges}")
            digest["sha"] = hashlib.sha256(g.edge_list_text().encode()).hexdigest()
            digest["header"] = f"{g.n} {g.num_edges()}"
        with open(inputs.path(out_name), "rb") as fh:
            data = fh.read()
        if hashlib.sha256(data).hexdigest() != digest["sha"]:
            header = data.split(b"\n", 1)[0].decode(errors="replace")
            raise Wrong(f"{out_name}: header {header!r}, expected {digest['header']!r} "
                        "or differing edges")

    return check


def check_star(inputs: Inputs, spec: str, reach: int, expect_p: Optional[int],
               witness: bool) -> Callable[[str], None]:
    def check(out: str) -> None:
        g = spec_graph(inputs, spec)
        p, rest = _parse_potential(out, g.n)
        host = spec_power(inputs, spec, reach)
        truth = expect_p if expect_p is not None else 1 + max(m.bit_count() for m in host.adj)
        if p != truth:
            raise Wrong(f"star potential {p}, expected {truth}")
        if witness:
            m = re.match(r"center=(\d+) leaves=(.*)$", rest[0] if rest else "")
            if not m:
                raise Wrong("missing star witness")
            leaves = _ints(m.group(2))
            if len(leaves) != p - 1 or not R.is_star(host, int(m.group(1)), leaves):
                raise Wrong("star witness does not verify")

    return check


def check_closed_form(n: int, expect_p: int) -> Callable[[str], None]:
    def check(out: str) -> None:
        p, _ = _parse_potential(out, n)
        if p != expect_p:
            raise Wrong(f"potential {p}, expected {expect_p}")

    return check


def check_ring(inputs: Inputs, spec: str, reach: int,
               expect_p: Optional[int] = None) -> Callable[[str], None]:
    """Ring potential: witness cycle verified, p within independent bounds.

    ``expect_p`` is the exact truth where it is known; otherwise the answer
    must not exceed the 2-core component bound of the power graph.
    """
    def check(out: str) -> None:
        host = spec_power(inputs, spec, reach)
        p, rest = _parse_potential(out, host.n)
        if expect_p is not None and p != expect_p:
            raise Wrong(f"ring potential {p}, expected {expect_p}")
        if p > R.cycle_upper_bound(host):
            raise Wrong(f"ring potential {p} exceeds the 2-core bound")
        if p == 0:
            return
        if not rest or not rest[0].startswith("cycle: "):
            raise Wrong("missing cycle witness")
        cycle = _ints(rest[0][len("cycle: "):])
        if len(cycle) != p or not R.is_cycle(host, cycle):
            raise Wrong("cycle witness does not verify")

    return check


def check_embed(inputs: Inputs, task: str, system: str, reach: int,
                expect: str) -> Callable[[str], None]:
    """``expect`` is "absent" (proved here), "found" (true by construction)."""
    def check(out: str) -> None:
        lines = _lines(out)
        if lines == ["no embedding"]:
            if expect != "absent":
                raise Wrong(f"'no embedding' but the truth is {expect}")
            return
        if not lines or lines[0] != "embedding found":
            raise Wrong(f"unparsable embed output {out[:80]!r}")
        if expect == "absent":
            raise Wrong("embedding reported where none exists")
        mapping = {}
        for line in lines[1:]:
            m = re.match(r"(\d+) -> (\d+)$", line)
            if not m:
                raise Wrong(f"bad witness line {line!r}")
            mapping[int(m.group(1))] = int(m.group(2))
        t = spec_graph(inputs, task)
        images = [mapping.get(i, -1) for i in range(t.n)]
        if not R.is_embedding(t, spec_power(inputs, system, reach), images):
            raise Wrong("embedding witness does not verify")

    return check


def check_table(task: str, s_values: range, reaches: range, fmt: str) -> Callable[[str], None]:
    def truth(s: int, reach: int) -> int:
        if task == "star":
            return R.hamming_ball(s, reach)
        return (1 << s) if s >= 2 else 0

    def check(out: str) -> None:
        cells = {}
        lines = _lines(out)
        if fmt == "csv":
            for row in lines[1:]:
                f = row.split(",")
                s, reach, n, p = int(f[2]), int(f[3]), int(f[4]), int(f[5])
                g = gcd(p, n)
                if (int(f[6]), int(f[7])) != ((p // g, n // g) if p else (0, 1)):
                    raise Wrong(f"exact index of {row!r}")
                cells[(s, reach)] = (n, p, f[8])
        elif fmt == "text":
            pat = re.compile(r"task=(\w+) system=hypercube:(\d+) reach=(\d+) n=(\d+) p=(\d+) "
                             r"c=(\S+)$")
            for row in lines:
                m = pat.match(row)
                if not m or m.group(1) != task:
                    raise Wrong(f"bad table row {row!r}")
                cells[(int(m.group(2)), int(m.group(3)))] = (
                    int(m.group(4)), int(m.group(5)), m.group(6))
        else:
            for row in lines[3:]:
                m = re.match(r"\| reach=(\d+) \| (.*) \|$", row)
                if not m:
                    raise Wrong(f"bad markdown row {row!r}")
                for s, cell in zip(s_values, m.group(2).split(" | ")):
                    p, c = cell.split("; ")
                    cells[(s, int(m.group(1)))] = (1 << s, int(p), c)
        want = {(s, r) for s in s_values for r in reaches}
        if set(cells) != want:
            raise Wrong("table cells do not cover the requested grid")
        for (s, reach), (n, p, c) in cells.items():
            if n != 1 << s or p != truth(s, reach) or c != R.rounded_index(p, n):
                raise Wrong(f"table cell s={s} reach={reach}: n={n} p={p} c={c}")

    return check


# -- the sweeps -----------------------------------------------------------------------

def transform(inputs: Inputs) -> List[Query]:
    h12 = inputs.add("h12.edges", R.hypercube(12), relabel=True)
    r4096 = inputs.add("ring4096.edges", R.ring(4096), relabel=True)
    qs: List[Query] = []
    for kind, k in (("hypercube", 10), ("hypercube", 11), ("hypercube", 12), ("ring", 4096)):
        out = f"out/gen-{kind}{k}.edges"
        qs.append(Query(f"gen-{kind}{k}", ["gen", f"{kind}:{k}", "-o", out],
                        check_file(inputs, out, lambda s=f"{kind}:{k}": spec_graph(inputs, s))))
    powers = [("hypercube:10", 3, R.hypercube_power_edges(10, 3)),
              (h12, 3, R.hypercube_power_edges(12, 3)),
              (r4096, 64, R.ring_power_edges(4096, 64))]
    for spec, reach, edges in powers:
        name = spec.replace("file:", "").replace(".edges", "").replace(":", "")
        out = f"out/power-{name}-{reach}.edges"
        qs.append(Query(f"power-{name}-r{reach}",
                        ["power", spec, "--reach", str(reach), "-o", out],
                        check_file(inputs, out,
                                   lambda sp=spec, r=reach: spec_power(inputs, sp, r), edges)))
    for spec, reach, p in ((h12, 2, R.hamming_ball(12, 2)), (r4096, 32, 65)):
        name = spec[len("file:"):-len(".edges")]
        qs.append(Query(f"star-{name}-r{reach}",
                        ["potential", "--task", "star", "--system", spec, "--reach", str(reach)],
                        check_star(inputs, spec, reach, p, witness=False)))
    qs.append(Query("star-witness-h11-r3",
                    ["potential", "--task", "star", "--system", "hypercube:11", "--reach", "3",
                     "--witness"],
                    check_star(inputs, "hypercube:11", 3, R.hamming_ball(11, 3), witness=True)))
    for s, reach in ((20, 1), (20, 5), (18, 2), (16, 4), (12, 3)):
        qs.append(Query(f"star-closed-h{s}-r{reach}",
                        ["potential", "--task", "star", "--system", f"hypercube:{s}",
                         "--reach", str(reach)],
                        check_closed_form(1 << s, R.hamming_ball(s, reach))))
    qs.append(Query("ring-closed-h20",
                    ["potential", "--task", "ring", "--system", "hypercube:20", "--reach", "1"],
                    check_closed_form(1 << 20, 1 << 20)))
    for s, reach in ((12, 2), (10, 3)):
        qs.append(Query(f"ring-witness-h{s}-r{reach}",
                        ["potential", "--task", "ring", "--system", f"hypercube:{s}",
                         "--reach", str(reach), "--witness"],
                        check_ring(inputs, f"hypercube:{s}", reach, 1 << s)))
    # one tiny search, so the mask and kernel layers are timed rather than absent
    qs.append(_embed(inputs, "found-ring:8-hypercube:3", "ring:8", "hypercube:3", 1, "found",
                     1000))
    tables = [(task, "1..20", "1..20", fmt) for task in ("star", "ring")
              for fmt in ("csv", "text", "markdown")]
    qs += [_table(*t) for t in tables + [("star", "2..8", "1..3", "markdown")]]
    return qs


def _table(task: str, s_range: str, reaches: str, fmt: str) -> Query:
    def inclusive(text: str) -> range:
        lo, hi = map(int, text.split(".."))
        return range(lo, hi + 1)

    return Query(f"table-{task}-{s_range}-{fmt}",
                 ["table", "--task", task, "--s", s_range, "--reach", reaches, "--format", fmt],
                 check_table(task, inclusive(s_range), inclusive(reaches), fmt))


def _embed(inputs: Inputs, qid: str, task: str, system: str, reach: int, expect: str,
           max_nodes: int, extra: List[str] = ()) -> Query:
    argv = ["embed", "--task", task, "--system", system, "--reach", str(reach),
            "--max-nodes", str(max_nodes), *TIME_LIMIT, *extra]
    if expect != "absent":
        argv.append("--witness")
    return Query(qid, argv, check_embed(inputs, task, system, reach, expect))


def _absent_by_parity(inputs: Inputs, task: str, system: str) -> str:
    """Prove absence when the task is not bipartite and the host is, or when a
    colour class of a connected bipartite task exceeds both classes of a
    connected bipartite host (an embedding keeps colour classes apart)."""
    t, h = spec_graph(inputs, task), spec_graph(inputs, system)
    host_classes = R.color_class_sizes(h)
    if host_classes is None:
        raise ValueError(f"{system} is not bipartite")
    classes = R.color_class_sizes(t)
    if classes is None or max(classes) > max(host_classes):
        return "absent"
    raise ValueError(f"no independent proof that {task} misses {system}")


def _ring_potential(inputs: Inputs, qid: str, spec: str, max_nodes: int,
                    expect_p: Optional[int] = None) -> Query:
    return Query(qid, ["potential", "--task", "ring", "--system", spec, "--reach", "1",
                       "--witness", "--max-nodes", str(max_nodes), *TIME_LIMIT],
                 check_ring(inputs, spec, 1, expect_p))


def _small_io(inputs: Inputs) -> List[Query]:
    """A write and a table, so the edgelist and compat layers are timed, not absent."""
    return [Query("gen-hypercube6", ["gen", "hypercube:6", "-o", "out/gen-hypercube6.edges"],
                  check_file(inputs, "out/gen-hypercube6.edges",
                             lambda: spec_graph(inputs, "hypercube:6"))),
            _table("ring", "2..6", "1..2", "csv")]


def search(inputs: Inputs) -> List[Query]:
    tree15 = inputs.add("tree15.edges", R.binary_tree(15))
    tree31 = inputs.add("tree31.edges", R.binary_tree(31))
    grid4 = inputs.add("grid4x4.edges", R.grid(4, 4))
    grid4x8 = inputs.add("grid4x8.edges", R.grid(4, 8))
    grid8 = inputs.add("grid8x8.edges", R.grid(8, 8))
    g40 = inputs.add("g40.edges", R.random_graph(40, 0.1, inputs.rng, planted_cycle=32))
    qs = []
    for task, system, cap in (("ring:5", "hypercube:4", 2_000_000),
                              ("ring:7", "hypercube:4", 2_000_000),
                              ("ring:7", "hypercube:5", 2_000_000),
                              ("ring:9", "hypercube:5", 2_000_000),
                              ("ring:11", "hypercube:5", 500_000),
                              (tree15, "hypercube:4", 2_000_000),
                              (tree31, "hypercube:5", 500_000)):
        qs.append(_embed(inputs, f"absent-{task}-{system}", task, system, 1,
                         _absent_by_parity(inputs, task, system), cap))
    # Found by construction: an a x b grid is a product of Gray-code paths, a
    # complete binary tree of height h fits H_{h+1}, the 32-cycle is planted,
    # and the squared H4 keeps H4's Hamiltonian cycle.  tree15 into the
    # squared H4 is true by the witness verified at this commit.
    for task, system, reach in ((grid4, "hypercube:4", 1), (grid4x8, "hypercube:5", 1),
                                (tree15, "hypercube:5", 1), (tree15, "hypercube:4", 2),
                                ("ring:16", "hypercube:4", 2), (grid8, "hypercube:6", 1),
                                ("ring:32", g40, 2)):
        qs.append(_embed(inputs, f"found-{task}-{system}-r{reach}", task, system, reach,
                         "found", 2_000_000))
    for i, n in enumerate((20, 20, 20, 21, 21, 21, 22, 22)):
        spec = inputs.add(f"gnp{i}.edges", R.random_graph(n, 0.12, inputs.rng))
        qs.append(_ring_potential(inputs, f"ring-gnp{i}-n{n}", spec, 500_000))
    # Known defect: the pure kernels recurse once per path vertex.
    qs.append(_ring_potential(inputs, "ring-long-1500", "ring:1500", 10**8, 1500))
    qs.append(_embed(inputs, "embed-long-1200", "ring:1200", "ring:1200", 1, "found", 10**8,
                     ["--max-host-order", "2000"]))
    return qs + _small_io(inputs)


def search_compiled(inputs: Inputs) -> List[Query]:
    tree15 = inputs.add("tree15.edges", R.binary_tree(15))
    tree31 = inputs.add("tree31.edges", R.binary_tree(31))
    # G(80, 0.05) with a 20-cycle and a 15-vertex binary tree planted, so both are found
    g80 = R.random_graph(80, 0.05, inputs.rng, planted_cycle=20)
    plant = inputs.rng.sample(range(80), 15)
    tree_edges = [(plant[u], plant[v]) for u, v in R.binary_tree(15).sorted_edges()]
    g80 = inputs.add("g80.edges", R.RefGraph(80, g80.sorted_edges() + tree_edges))
    qs = []
    for task, system, cap in (("ring:11", "hypercube:5", 50_000_000),
                              ("ring:13", "hypercube:5", 20_000_000),
                              ("ring:9", "hypercube:6", 50_000_000),
                              ("ring:11", "hypercube:6", 20_000_000),
                              (tree31, "hypercube:5", 20_000_000)):
        qs.append(_embed(inputs, f"absent-{task}-{system}", task, system, 1,
                         _absent_by_parity(inputs, task, system), cap))
    # tree31 embeds in H6 (complete binary trees of height h fit in H_{h+1})
    qs.append(_embed(inputs, f"found-{tree31}-hypercube:6", tree31, "hypercube:6", 1, "found",
                     20_000_000))
    for i, (n, p) in enumerate(((40, 0.1), (60, 0.07))):
        spec = inputs.add(f"gnp{i}.edges", R.random_graph(n, p, inputs.rng))
        qs.append(_ring_potential(inputs, f"ring-gnp{i}-n{n}", spec, 500_000))
    wide = ["--max-host-order", "128"]
    qs.append(_embed(inputs, "absent-ring:7-hypercube:7", "ring:7", "hypercube:7", 1,
                     _absent_by_parity(inputs, "ring:7", "hypercube:7"), 5_000_000, wide))
    qs.append(_embed(inputs, "found-ring:20-g80", "ring:20", g80, 1, "found", 5_000_000, wide))
    qs.append(_embed(inputs, "found-tree15-g80", tree15, g80, 1, "found", 5_000_000, wide))
    return qs + _small_io(inputs)


BUILDERS = {"transform": transform, "search": search, "search-compiled": search_compiled}
