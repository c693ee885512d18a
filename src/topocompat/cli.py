"""topo-compat command line front end.

Subcommands: ``gen`` (emit a topology as an edge list), ``power`` (emit the
reachability transform), ``potential`` (star/ring potential and index against
a system), ``table`` (the star/ring-versus-hypercube compatibility grid), and
``embed`` (arbitrary task-into-system embedding query).

``potential`` and ``table`` only parse and print: each cell comes from
:func:`topocompat.compat.potential`, which alone decides between a closed
form and a graph search.

Exit codes: 0 success (including a definitive "no embedding"), 1 when a
search budget was exhausted (result unknown), 2 for invalid arguments or
input.  ``TOPO_COMPAT_TIME_LIMIT`` (seconds) overrides the default time
budget; ``--max-nodes``, ``--time-limit``, and ``--max-host-order`` override
per invocation.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import compat, edgelist
from .embedding import DEFAULT_BUDGET, SearchBudget, find_embedding
from .errors import BudgetExceeded, HostTooLarge, TopoCompatError
from .graph import Graph, graph_power
from .topologies import parse_topology_spec, TopologySpec

__all__ = ["run", "main", "parse_range"]


def parse_range(text: str) -> range:
    """Parse ``a..b`` or a single integer ``a`` into an inclusive range."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'a..b' or an integer, got {text!r}") from None
    if a > b:
        raise argparse.ArgumentTypeError(f"empty range {text!r} (start exceeds end)")
    return range(a, b + 1)


def _topology_spec(text: str) -> TopologySpec:
    try:
        return parse_topology_spec(text)
    except TopoCompatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-nodes", type=_positive_int, default=DEFAULT_BUDGET.max_nodes,
                     help="node-expansion cap for searches")
    sub.add_argument("--time-limit", type=float, default=None, metavar="SECONDS",
                     help=f"wall-time cap (default {DEFAULT_BUDGET.time_limit:g}, "
                          "or TOPO_COMPAT_TIME_LIMIT)")
    sub.add_argument("--max-host-order", type=_positive_int, default=DEFAULT_BUDGET.max_host_order,
                     help="largest host order the generic embedding search accepts")


def _budget_from(args: argparse.Namespace) -> SearchBudget:
    limit = args.time_limit
    if limit is None:
        raw = os.environ.get("TOPO_COMPAT_TIME_LIMIT", "")
        try:
            limit = float(raw) if raw else DEFAULT_BUDGET.time_limit
        except ValueError:
            raise TopoCompatError(f"TOPO_COMPAT_TIME_LIMIT is not a number: {raw!r}") from None
    return SearchBudget(max_host_order=args.max_host_order,
                        max_nodes=args.max_nodes, time_limit=limit)


def _emit_graph(g: Graph, path: Optional[str]) -> None:
    if path:
        edgelist.write_edge_list_path(g, path)
    else:
        sys.stdout.write(edgelist.dumps(g))


def _cmd_gen(args: argparse.Namespace) -> int:
    _emit_graph(args.spec.build(), args.output)
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    _emit_graph(graph_power(args.spec.build(), args.reach), args.output)
    return 0


def _cmd_potential(args: argparse.Namespace) -> int:
    report, cert = compat.potential(args.system, args.task, args.reach, _budget_from(args),
                                    args.witness)
    print(f"p={report.potential_p} c={report.index_rounded}")
    if cert is not None and args.task == "ring":
        print("cycle: " + " ".join(str(v) for v in cert))
    elif cert is not None:
        center, leaves = cert
        print(f"center={center} leaves=" + " ".join(str(v) for v in leaves))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    reports = compat.compatibility_table(args.s, args.reach, args.task)
    if args.format == "csv":
        sys.stdout.write(compat.render_csv(reports))
    elif args.format == "markdown":
        sys.stdout.write(compat.render_markdown(reports))
    else:
        sys.stdout.write(compat.render_text(reports))
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    task = args.task.build()
    system = args.system.build()
    budget = _budget_from(args)
    # the transform keeps the order, so a host too large is known before it is built
    budget.check_host_order(system.order)
    emb = find_embedding(task, graph_power(system, args.reach), budget)
    if emb is None:
        print("no embedding")
        return 0
    print("embedding found")
    if args.witness:
        for t, h in enumerate(emb.mapping):
            print(f"{t} -> {h}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topo-compat",
        description="Topological compatibility of parallel tasks with interconnect topologies.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a topology as an edge-list file")
    gen.add_argument("spec", type=_topology_spec,
                     help="hypercube:s | ring:p | star:p | complete:n | file:PATH")
    gen.add_argument("-o", "--output", help="output file (default: stdout)")
    gen.set_defaults(func=_cmd_gen)

    power = subs.add_parser("power", help="emit the reachability transform of a topology")
    power.add_argument("spec", type=_topology_spec)
    power.add_argument("--reach", type=_positive_int, required=True)
    power.add_argument("-o", "--output", help="output file (default: stdout)")
    power.set_defaults(func=_cmd_power)

    potential = subs.add_parser("potential", help="task potential p and index C against a system")
    potential.add_argument("--task", choices=("star", "ring"), required=True)
    potential.add_argument("--system", type=_topology_spec, required=True)
    potential.add_argument("--reach", type=_positive_int, required=True)
    potential.add_argument("--witness", action="store_true",
                           help="print the certifying cycle or star center")
    _add_budget_flags(potential)
    potential.set_defaults(func=_cmd_potential)

    table = subs.add_parser("table", help="compatibility grid over hypercube dimensions")
    table.add_argument("--task", choices=("star", "ring"), required=True)
    table.add_argument("--s", type=parse_range, required=True, metavar="A..B")
    table.add_argument("--reach", type=parse_range, required=True, metavar="A..B")
    table.add_argument("--format", choices=("text", "csv", "markdown"), default="text")
    table.set_defaults(func=_cmd_table)

    embed = subs.add_parser("embed", help="embed a task topology into a transformed system")
    embed.add_argument("--task", type=_topology_spec, required=True)
    embed.add_argument("--system", type=_topology_spec, required=True)
    embed.add_argument("--reach", type=_positive_int, required=True)
    embed.add_argument("--witness", action="store_true", help="print the vertex mapping")
    _add_budget_flags(embed)
    embed.set_defaults(func=_cmd_embed)

    return parser


def run(argv: Sequence[str]) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (BudgetExceeded, HostTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TopoCompatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
