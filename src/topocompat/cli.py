"""topo-compat command line front end.

Subcommands: ``gen`` (emit a topology as an edge list), ``power`` (emit the
reachability transform), ``potential`` (star/ring potential and index against
a system), ``table`` (the star/ring-versus-hypercube compatibility grid), and
``embed`` (arbitrary task-into-system embedding query).

``potential`` and ``table`` only parse and print: each cell comes from
:func:`topocompat.compat.potential`, which decides between a closed form
and a graph search.

Exit codes: 0 success (including a definitive "no embedding"), 1 when a
search budget was exhausted (result unknown), 2 for invalid arguments or
input.  ``potential`` and ``embed`` take ``--max-nodes`` and ``--time-limit``
(in seconds), the only sources of their search budget; ``embed`` alone
takes ``--max-host-order``, which caps the host of its generic search.

Every command, positional and flag is one entry of ``COMMANDS``, read one
of two ways.  A command line spelled out in full (the command, its
positionals, exact flag names, each value in its own token not starting
with ``-``) is read straight from the table by ``_parse_exact``, without
importing argparse: that import (with ``gettext``, and ``locale`` once a
parser is built) would cost such a process about 7 ms (2-vCPU Xeon,
Python 3.11).  Every other command line goes to an argparse parser built
from the same table: ``-h``/``--help``, unambiguous prefixes of long flags,
``--flag=value``, ``-ovalue``, ``--``, and every usage error, in argparse's
own words (exit 2).
"""

from __future__ import annotations

import atexit
import os
import sys
from types import SimpleNamespace
from typing import List, Optional, Sequence

from . import compat, edgelist
from .embedding import DEFAULT_BUDGET, SearchBudget, find_embedding
from .errors import BudgetExceeded, HostTooLarge, InvalidParameter, TopoCompatError
from .graph import Graph, _check_power_entries, graph_power
from .topologies import _GENERATORS, parse_topology_spec

__all__ = ["run", "main", "parse_range"]


def parse_range(text: str) -> range:
    """Parse ``a..b`` or a single integer ``a`` into an inclusive range.

    Raises InvalidParameter for anything else and for a range whose start
    exceeds its end.
    """
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise InvalidParameter(f"expected 'a..b' or an integer, got {text!r}") from None
    if a > b:
        raise InvalidParameter(f"empty range {text!r} (start exceeds end)")
    return range(a, b + 1)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # refused below like any value under 1
    if value < 1:
        raise InvalidParameter(f"expected a positive integer, got {text!r}")
    return value


def _seconds(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InvalidParameter(f"invalid float value: {text!r}") from None


def _emit_graph(g: Graph, path: Optional[str]) -> None:
    if path:
        edgelist.write_edge_list_path(g, path)
    else:
        edgelist.write_edge_list(g, sys.stdout)


def _cmd_gen(args: SimpleNamespace) -> int:
    _emit_graph(args.spec.build(), args.output)
    return 0


def _check_hypercube_power(spec, reach: int) -> None:
    """Refuse an oversized power of H_s from its spec, before H_s is built:
    H_s is vertex-transitive, so each row of its power is the star cell
    minus its centre."""
    if spec.kind == "hypercube":
        ball = compat.potential(spec, "star", reach)[0].potential_p
        _check_power_entries((ball - 1) * spec.order(), reach)


def _cmd_power(args: SimpleNamespace) -> int:
    _check_hypercube_power(args.spec, args.reach)
    _emit_graph(graph_power(args.spec.build(), args.reach), args.output)
    return 0


def _cmd_potential(args: SimpleNamespace) -> int:
    budget = SearchBudget(max_nodes=args.max_nodes, time_limit=args.time_limit)
    report, cert = compat.potential(args.system, args.task, args.reach, budget, args.witness)
    print(f"p={report.potential_p} c={report.index_text}")
    if cert is not None and args.task == "ring":
        print("cycle: " + " ".join(str(v) for v in cert))
    elif cert is not None:
        center, leaves = cert
        print(f"center={center} leaves=" + " ".join(str(v) for v in leaves))
    return 0


# ``table --format`` name -> renderer, in the order ``--help`` lists them
_TABLE_FORMATS = {"text": compat.render_text, "csv": compat.render_csv,
                  "markdown": compat.render_markdown}


def _cmd_table(args: SimpleNamespace) -> int:
    reports = compat.compatibility_table(args.s, args.reach, args.task)
    sys.stdout.write(_TABLE_FORMATS[args.format](reports))
    return 0


def _cmd_embed(args: SimpleNamespace) -> int:
    task = args.task.build()
    # the transform keeps the order, and a generated system's order is known
    # from its spec, so a host too large is refused before either is built
    order = args.system.order()
    system = args.system.build() if order is None else None  # a file, read for its order
    budget = SearchBudget(args.max_host_order, args.max_nodes, args.time_limit)
    # an oversized hypercube power exits 2 whatever the host caps
    _check_hypercube_power(args.system, args.reach)
    budget.check_host_order(order or system.order)
    # the transform and the search share one deadline, as a ring potential's do
    deadline = budget.deadline()
    host = graph_power(system or args.system.build(), args.reach, deadline)
    emb = find_embedding(task, host, budget, deadline)
    if emb is None:
        print("no embedding")
        return 0
    print("embedding found")
    if args.witness:
        for t, h in enumerate(emb.mapping):
            print(f"{t} -> {h}")
    return 0


# -- parsing: one table of commands, read exactly or by argparse ---------------------

class _Arg:
    """A positional (one bare name) or a flag (its names) of a command.

    ``convert`` turns the text into the value and raises TopoCompatError for
    a bad one; ``choices`` lists the texts allowed.  A ``switch`` takes no
    value and sets True.  The value lands in ``dest``, the last name without
    dashes, where argparse puts it too.
    """

    def __init__(self, *names, convert=str, choices=(), default=None, required=False,
                 switch=False, metavar=None, help=""):
        self.names, self.convert, self.choices, self.switch, self.metavar, self.help = (
            names, convert, choices, switch, metavar, help)
        self.is_flag = names[0].startswith("-")
        self.dest = names[-1].lstrip("-").replace("-", "_")
        self.default = False if switch else default
        self.required = required or not self.is_flag


# "hypercube:s | ring:p | ...": each generated kind with its generator's parameter name
_SPEC_HELP = " | ".join([f"{kind}:{fn.__code__.co_varnames[0]}" for kind, fn in _GENERATORS.items()]
                        + ["file:PATH"])
_TASK_KIND = _Arg("--task", choices=("star", "ring"), required=True, help="task family")
_REACH = _Arg("--reach", convert=_positive_int, required=True,
              help="vertices at distance 1..REACH become adjacent")
_OUTPUT = _Arg("-o", "--output", help="output file (default: stdout)")
_BUDGET = (
    _Arg("--max-nodes", convert=_positive_int, default=DEFAULT_BUDGET.max_nodes,
         help="node-expansion cap for searches"),
    _Arg("--time-limit", convert=_seconds, default=DEFAULT_BUDGET.time_limit, metavar="SECONDS",
         help=f"wall-time cap (default {DEFAULT_BUDGET.time_limit:g})"),
)

PROG = "topo-compat"
DESCRIPTION = "Topological compatibility of parallel tasks with interconnect topologies."
# name -> (function, one-line help, its positionals and flags)
COMMANDS = {
    "gen": (_cmd_gen, "generate a topology as an edge-list file", (
        _Arg("spec", convert=parse_topology_spec, help=_SPEC_HELP),
        _OUTPUT,
    )),
    "power": (_cmd_power, "emit the reachability transform of a topology", (
        _Arg("spec", convert=parse_topology_spec, help=_SPEC_HELP),
        _REACH,
        _OUTPUT,
    )),
    "potential": (_cmd_potential, "task potential p and index C against a system", (
        _TASK_KIND,
        _Arg("--system", convert=parse_topology_spec, required=True, help=_SPEC_HELP),
        _REACH,
        _Arg("--witness", switch=True, help="print the certifying cycle or star center"),
        *_BUDGET,
    )),
    "table": (_cmd_table, "compatibility grid over hypercube dimensions", (
        _TASK_KIND,
        _Arg("--s", convert=parse_range, required=True, metavar="A..B",
             help="hypercube dimensions, in 1..20"),
        _Arg("--reach", convert=parse_range, required=True, metavar="A..B",
             help="reachabilities, in 1..20"),
        _Arg("--format", choices=tuple(_TABLE_FORMATS), default="text",
             help="output format (default text)"),
    )),
    "embed": (_cmd_embed, "embed a task topology into a transformed system", (
        _Arg("--task", convert=parse_topology_spec, required=True, help=_SPEC_HELP),
        _Arg("--system", convert=parse_topology_spec, required=True, help=_SPEC_HELP),
        _REACH,
        _Arg("--witness", switch=True, help="print the vertex mapping"),
        *_BUDGET,
        _Arg("--max-host-order", convert=_positive_int, default=DEFAULT_BUDGET.max_host_order,
             help="largest host order the generic embedding search accepts"),
    )),
}


def _parse_exact(argv: List[str]) -> Optional[tuple]:
    """(function, arguments) for a command line spelled out in full, else None.

    Spelled out in full: the command's name, then its positionals and flags
    in any order, each flag by one of its own names with its value in the
    next token, no value starting with ``-``, every value converting and
    every required argument given.  argparse reads such a line the same way,
    a repeated flag's last value included; anything else is left to it.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, args = COMMANDS[argv[0]]
    flags = {name: arg for arg in args if arg.is_flag for name in arg.names}
    positionals = [arg for arg in args if not arg.is_flag]
    values = {arg.dest: arg.default for arg in args}
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            arg = flags.get(token)
        else:
            arg = positionals.pop(0) if positionals else None
        if arg is None:
            return None
        if arg.switch:
            values[arg.dest] = True
            continue
        text = next(tokens, "-") if arg.is_flag else token
        if text.startswith("-") or arg.choices and text not in arg.choices:
            return None
        try:
            values[arg.dest] = arg.convert(text)
        except TopoCompatError:
            return None
        given.add(arg)
    if any(arg.required and arg not in given for arg in args):
        return None
    return func, SimpleNamespace(**values)


def _parse_argparse(argv: List[str]) -> tuple:
    """(function, arguments) for any command line, by an argparse parser built
    from ``COMMANDS``; help and usage errors end in argparse's SystemExit."""
    import argparse

    def typed(convert):
        def text_value(text):
            try:
                return convert(text)
            except TopoCompatError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return text_value

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # one line, whatever line breaks the arguments hold
            super().error("\\n".join(message.splitlines()))

    parser = Parser(prog=PROG, description=DESCRIPTION)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, args) in COMMANDS.items():
        sub = commands.add_parser(name, help=summary, description=summary)
        sub.set_defaults(func=func)
        for arg in args:
            if arg.switch:
                sub.add_argument(*arg.names, action="store_true", help=arg.help)
                continue
            flag = dict(default=arg.default, required=arg.required) if arg.is_flag else {}
            sub.add_argument(*arg.names, type=typed(arg.convert), choices=arg.choices or None,
                             metavar=arg.metavar, help=arg.help, **flag)
    values = vars(parser.parse_args(argv))
    del values["command"]
    return values.pop("func"), SimpleNamespace(**values)


def run(argv: Sequence[str]) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    argv = list(argv)
    try:
        func, args = _parse_exact(argv) or _parse_argparse(argv)
    except SystemExit as exc:  # argparse printed help (0) or a usage error (2)
        return exc.code
    try:
        return func(args)
    except (TopoCompatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # out of budget or over the host cap: the answer is unknown; else the input is invalid
        return 1 if isinstance(exc, (BudgetExceeded, HostTooLarge)) else 2


def _flushed() -> bool:
    """Flush standard output and error; False if either raises (broken pipe,
    full disk, a closed or missing stream).  The caller then exits the
    ordinary way, whose own flush reports the failure as it always has."""
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        return False
    return True


def _teardown_skippable() -> bool:
    """True unless a tracer or profiler, ``python -i`` or a second thread may
    still need the interpreter's own exit."""
    threading = sys.modules.get("threading")
    return not (sys.gettrace() or sys.getprofile() or sys.flags.inspect
                or threading is not None and threading.active_count() > 1)


def main() -> None:
    """Run one invocation and end the process with its exit code.

    Once the answer is flushed and the ``atexit`` callbacks have run, the
    process leaves by ``os._exit``: tearing the interpreter down frees
    nothing a finished query needs, and costs 8-12 ms of a 55-70 ms query
    process (2-vCPU Xeon, Python 3.11).  Wherever skipping it
    could lose something (see ``_teardown_skippable``, or a flush that
    raises, so the interpreter's exit reports it as it always has), the exit
    is ``sys.exit`` as usual.
    """
    code = run(sys.argv[1:])
    if _teardown_skippable() and _flushed():
        atexit._run_exitfuncs()
        if _flushed():
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    main()
