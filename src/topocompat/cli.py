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

Every command, positional and flag is one entry of ``COMMANDS``, read by
argparse's rules: ``--flag=value``, unambiguous prefixes of long flags,
``-h``/``--help`` per command, and usage errors in argparse's shape and
wording (usage line, ``topo-compat[ CMD]: error: ...``, exit 2).  argparse
itself is not imported: importing it (with ``gettext``, and ``locale`` on
first use) and building its parsers cost about 7 ms of every process
(2-vCPU Xeon, Python 3.11).
"""

from __future__ import annotations

import atexit
import math
import os
import sys
from types import SimpleNamespace
from typing import List, Optional, Sequence

from . import compat, edgelist
from .embedding import DEFAULT_BUDGET, SearchBudget, find_embedding
from .errors import BudgetExceeded, HostTooLarge, InvalidParameter, TopoCompatError
from .graph import Graph, _check_power_entries, graph_power
from .topologies import check_hypercube_dim, parse_topology_spec

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
        raise InvalidParameter(f"expected a positive integer, got {text}")
    return value


def _seconds(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InvalidParameter(f"invalid float value: {text!r}") from None


def _budget_from(args: SimpleNamespace) -> SearchBudget:
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
        edgelist.write_edge_list(g, sys.stdout)


def _cmd_gen(args: SimpleNamespace) -> int:
    _emit_graph(args.spec.build(), args.output)
    return 0


def _cmd_power(args: SimpleNamespace) -> int:
    spec, reach = args.spec, args.reach
    if spec.kind == "hypercube":
        # each of the 2^s rows of H_s's power is a Hamming ball minus its
        # centre, so an oversized power is refused before H_s is built
        s = spec.parameter
        check_hypercube_dim(s)
        _check_power_entries(sum(math.comb(s, i) for i in range(1, min(reach, s) + 1)) << s, reach)
    _emit_graph(graph_power(spec.build(), reach), args.output)
    return 0


def _cmd_potential(args: SimpleNamespace) -> int:
    report, cert = compat.potential(args.system, args.task, args.reach, _budget_from(args),
                                    args.witness)
    print(f"p={report.potential_p} c={report.index_text}")
    if cert is not None and args.task == "ring":
        print("cycle: " + " ".join(str(v) for v in cert))
    elif cert is not None:
        center, leaves = cert
        print(f"center={center} leaves=" + " ".join(str(v) for v in leaves))
    return 0


def _cmd_table(args: SimpleNamespace) -> int:
    reports = compat.compatibility_table(args.s, args.reach, args.task)
    if args.format == "csv":
        sys.stdout.write(compat.render_csv(reports))
    elif args.format == "markdown":
        sys.stdout.write(compat.render_markdown(reports))
    else:
        sys.stdout.write(compat.render_text(reports))
    return 0


def _cmd_embed(args: SimpleNamespace) -> int:
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


# -- parsing: one table of commands, read by argparse's rules -------------------------

class _Arg:
    """A positional (one bare name) or a flag (its names) of a command.

    ``convert`` turns the text into the value and raises TopoCompatError for
    a bad one; ``choices`` lists the texts allowed.  A ``switch`` takes no
    value and sets True.  The value lands in the last name without dashes.
    ``label`` names it in messages (``-o/--output``, ``spec``), ``usage``
    in the usage line (``-o OUTPUT``) and ``heading`` in help
    (``-o OUTPUT, --output OUTPUT``).
    """

    def __init__(self, *names, convert=str, choices=(), default=None, required=False,
                 switch=False, metavar="", help=""):
        self.names, self.convert, self.choices, self.switch, self.help = (
            names, convert, choices, switch, help)
        self.is_flag = names[0].startswith("-")
        self.dest = names[-1].lstrip("-").replace("-", "_")
        self.default = False if switch else default
        self.required = required or not self.is_flag
        if choices:
            metavar = "{" + ",".join(choices) + "}"
        self.metavar = metavar or (self.dest.upper() if self.is_flag else self.dest)
        self.label = "/".join(names) if self.is_flag else self.dest
        self.usage = (self.metavar if not self.is_flag else names[0] if switch
                      else f"{names[0]} {self.metavar}")
        self.heading = ", ".join(
            names if switch or not self.is_flag else [f"{n} {self.metavar}" for n in names])

    def value(self, text: str):
        try:
            if self.choices and text not in self.choices:
                choices = ", ".join(map(repr, self.choices))
                raise InvalidParameter(f"invalid choice: {text!r} (choose from {choices})")
            return self.convert(text)
        except TopoCompatError as exc:
            raise InvalidParameter(f"argument {self.label}: {exc}") from None


_HELP = _Arg("-h", "--help", switch=True, help="show this help message and exit")
_SPEC_HELP = "hypercube:s | ring:p | star:p | complete:n | file:PATH"
_TASK_KIND = _Arg("--task", choices=("star", "ring"), required=True, help="task family")
_REACH = _Arg("--reach", convert=_positive_int, required=True,
              help="vertices at distance 1..REACH become adjacent")
_OUTPUT = _Arg("-o", "--output", help="output file (default: stdout)")
_BUDGET = (
    _Arg("--max-nodes", convert=_positive_int, default=DEFAULT_BUDGET.max_nodes,
         help="node-expansion cap for searches"),
    _Arg("--time-limit", convert=_seconds, metavar="SECONDS",
         help=f"wall-time cap (default {DEFAULT_BUDGET.time_limit:g}, "
              "or TOPO_COMPAT_TIME_LIMIT)"),
    _Arg("--max-host-order", convert=_positive_int, default=DEFAULT_BUDGET.max_host_order,
         help="largest host order the generic embedding search accepts"),
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
        _Arg("--format", choices=("text", "csv", "markdown"), default="text",
             help="output format (default text)"),
    )),
    "embed": (_cmd_embed, "embed a task topology into a transformed system", (
        _Arg("--task", convert=parse_topology_spec, required=True, help=_SPEC_HELP),
        _Arg("--system", convert=parse_topology_spec, required=True, help=_SPEC_HELP),
        _REACH,
        _Arg("--witness", switch=True, help="print the vertex mapping"),
        *_BUDGET,
    )),
}
_COMMAND = _Arg("command", choices=tuple(COMMANDS))
_TOP_FLAGS = {"-h": _HELP, "--help": _HELP}


class _Exit(Exception):
    """Parsing ends early: help (code 0, for stdout) or a usage error (code 2, stderr)."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code, self.text = code, text


def _classify(token: str, flags: dict) -> tuple:
    """(kind, item, attached value) of a token, by argparse's rules, given
    the flag names in use: kind "O" is a flag (item: its _Arg), "A" a value
    and "?" an unknown flag (item: the token).

    A long flag may be given as any unambiguous prefix of its name, and a
    value may be attached as ``--name=value``, ``-o=value`` or ``-ovalue``;
    one attached to a switch is an error.  ``-``, ``--``, negative numbers
    and tokens with a space in them are values.
    """
    if not token.startswith("-") or token in ("-", "--"):
        return "A", token, None
    name, eq, attached = token.partition("=")
    if token in flags or not eq:
        name, attached = token, None
    if name in flags:
        hits = [name]
    elif name.startswith("--"):
        hits = [f for f in flags if f.startswith(name)]
    elif name[:2] in flags:
        hits, attached = [name[:2]], token[2:]
    else:
        hits = []
    if len(hits) > 1:
        raise InvalidParameter(f"ambiguous option: {token} could match {', '.join(hits)}")
    if hits:
        arg = flags[hits[0]]
        if arg.switch and attached is not None:
            raise InvalidParameter(f"argument {arg.label}: ignored explicit argument "
                                   f"{attached!r}")
        return "O", arg, attached
    digits = token[1:]  # argparse's negative number: -N, -N.N or -.N
    if digits.replace(".", "", 1).isdecimal() and not digits.endswith(".") or " " in token:
        return "A", token, None
    return "?", token, None


def _help(usage: str, description: str, sections: list) -> str:
    """Help text; ``sections`` are (title, [_Arg]), help text from column 24."""
    lines = [usage, "", description]
    for title, args in sections:
        if args:
            lines += ["", title]
        for arg in args:
            if len(arg.heading) <= 20:
                lines.append(f"  {arg.heading:<22}{arg.help}")
            else:
                lines += ["  " + arg.heading, " " * 24 + arg.help]
    return "\n".join(lines) + "\n"


def _usage(name: str, args: Sequence[_Arg]) -> str:
    """argparse's usage line: flags in table order, then positionals."""
    parts = [a.usage if a.required else f"[{a.usage}]"
             for a in sorted(args, key=lambda a: not a.is_flag)]
    return f"usage: {PROG} {name} [-h] " + " ".join(parts)


def _parse_command(name: str, tokens: List[str]) -> tuple:
    """(function, arguments, unrecognized tokens) for one command's tokens."""
    func, description, args = COMMANDS[name]
    usage = _usage(name, args)
    flags = {flag: arg for arg in (_HELP, *args) if arg.is_flag for flag in arg.names}
    positionals = [arg for arg in args if not arg.is_flag]
    values = {arg.dest: arg.default for arg in args}
    seen, extras = set(), []
    try:
        # as in argparse, every token is classified before any is used, and
        # all tokens after the first "--" are values
        kinds, rest = [], False
        for token in tokens:
            kinds.append(("A", token, None) if rest else ("--", token, None) if token == "--"
                         else _classify(token, flags))
            rest = rest or token == "--"
        i = 0
        while i < len(kinds):
            kind, item, attached = kinds[i]
            i += 1
            if kind == "A" and positionals:
                arg, text = positionals.pop(0), item
            elif kind != "O":
                if kind != "--":
                    extras.append(item)
                continue
            elif item is _HELP:
                raise _Exit(0, _help(usage, description, [
                    ("positional arguments:", [a for a in args if not a.is_flag]),
                    ("options:", [_HELP, *(a for a in args if a.is_flag)])]))
            elif item.switch or attached is not None:
                arg, text = item, attached
            elif i < len(kinds) and kinds[i][0] == "A":
                arg, text = item, kinds[i][1]
                i += 1
            else:
                raise InvalidParameter(f"argument {item.label}: expected one argument")
            values[arg.dest] = True if arg.switch else arg.value(text)
            seen.add(arg)
        missing = [arg.label for arg in args if arg.required and arg not in seen]
        if missing:
            raise InvalidParameter("the following arguments are required: " + ", ".join(missing))
    except InvalidParameter as exc:
        raise _Exit(2, f"{usage}\n{PROG} {name}: error: {exc}\n") from None
    return func, SimpleNamespace(**values), extras


def _parse(argv: List[str]) -> tuple:
    """(function, arguments) for ``argv``; raises _Exit for help or a usage error.

    Messages and exit codes are argparse's, for a parser with one
    subparser per command: tokens before the command may only ask for help,
    and unrecognized tokens are reported once the command has parsed.
    """
    usage = f"usage: {PROG} [-h] {_COMMAND.metavar} ..."
    extras = []
    try:
        for i, token in enumerate(argv):
            kind = _classify(token, _TOP_FLAGS)[0]
            if kind == "O":
                raise _Exit(0, _help(usage, DESCRIPTION, [
                    ("commands:", [_Arg(name, help=c[1]) for name, c in COMMANDS.items()]),
                    ("options:", [_HELP])]))
            if kind == "A":
                break
            extras.append(token)
        else:
            raise InvalidParameter(f"the following arguments are required: {_COMMAND.label}")
        name = _COMMAND.value(token)
    except InvalidParameter as exc:
        raise _Exit(2, f"{usage}\n{PROG}: error: {exc}\n") from None
    func, args, more = _parse_command(name, argv[i + 1:])
    if extras or more:
        message = "unrecognized arguments: " + " ".join(extras + more)
        raise _Exit(2, f"{usage}\n{PROG}: error: {message}\n")
    return func, args


def run(argv: Sequence[str]) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    try:
        func, args = _parse(list(argv))
    except _Exit as exc:
        (sys.stdout if exc.code == 0 else sys.stderr).write(exc.text)
        return exc.code
    try:
        return func(args)
    except (BudgetExceeded, HostTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TopoCompatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


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
