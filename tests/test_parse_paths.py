"""The two ways the CLI reads a command line agree, and queries take the cheap one.

``cli._parse_exact`` reads a command line spelled out in full straight from
``cli.COMMANDS``; every other line goes to the argparse parser that
``cli._parse_argparse`` builds from the same table.  Seeded command lines
drawn from the table check that whenever the exact path accepts a line,
argparse reads it into the same function and arguments.  The benchmark's
own queries must all take the exact path, which never imports argparse.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from topocompat import cli
from topocompat.cli import COMMANDS, parse_range, parse_topology_spec
from topocompat.topologies import _GENERATORS

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# texts every converter accepts, and a few it refuses; none starts with "-".  Specs are
# two of each generated kind (``topologies._GENERATORS``), then edge values that parse
# as any other: the largest and an oversized dimension, a 2-ring, leading zeros, files
VALID = {
    parse_topology_spec: [f"{kind}:{k}" for kind in _GENERATORS for k in (4, 8)]
                         + ["hypercube:20", "hypercube:99", "ring:2", "ring:007",
                            "file:g.edges", "file:a b=c"],
    cli._positive_int: ["1", "2", "17", "1000000000000", "+3", "07", " 5", "1_000"],
    cli._seconds: ["0.5", "60", "1e-3", "nan", "inf", "2", " 7 "],
    parse_range: ["1..4", "3", "2..8", "1..20", "+1..3", "5..5"],
    str: ["out.edges", "a b", "", "=x", "x=y"],
}
INVALID = {
    parse_topology_spec: ["mesh:3", "ring:x", "ring", "ring:", ""],
    cli._positive_int: ["0", "x", "2.5", ""],
    cli._seconds: ["x", "", "1..2"],
    parse_range: ["5..2", "x..y", "", "3.."],
    str: [],
}


def value(arg, rng, valid=True):
    if arg.choices:
        return rng.choice(arg.choices if valid else ["mesh", "", "Star"])
    pool = VALID[arg.convert] if valid else INVALID[arg.convert] or VALID[arg.convert]
    return rng.choice(pool)


def spelled_out(rng):
    """A command line spelled out in full from COMMANDS, every value valid:
    each required argument, each optional one half the time, in any order,
    now and then a flag given twice."""
    name = rng.choice(sorted(COMMANDS))
    groups = []
    for arg in COMMANDS[name][2]:
        for _ in range(1 + (arg.is_flag and rng.random() < 0.1)):
            if arg.required or rng.random() < 0.5:
                if arg.switch:
                    groups.append([rng.choice(arg.names)])
                elif arg.is_flag:
                    groups.append([rng.choice(arg.names), value(arg, rng)])
                else:
                    groups.append([value(arg, rng)])
    rng.shuffle(groups)
    return [name, *(token for group in groups for token in group)]


def mangled(rng):
    """A spelled-out line with one change: an invalid value given last, a
    flag cut to a prefix, a value joined by ``=``, a token dropped, or one
    inserted (``--``, ``-h``, a stray word, an unknown flag, ``-1``)."""
    name, *rest = spelled_out(rng)
    args = COMMANDS[name][2]
    change = rng.randrange(6)
    if change == 0:
        arg = rng.choice([a for a in args if not a.switch])
        rest += [arg.names[-1]] * arg.is_flag + [value(arg, rng, valid=False)]
    elif change == 1:
        i = rng.choice([i for i, token in enumerate(rest) if token.startswith("--")] or [None])
        if i is not None:
            rest[i] = rest[i][:rng.randrange(2, len(rest[i]))]
    elif change == 2:
        i = rng.choice([i for i, token in enumerate(rest[:-1]) if token.startswith("-")] or [None])
        if i is not None:
            rest[i:i + 2] = [f"{rest[i]}={rest[i + 1]}"]
    elif change == 3:
        del rest[rng.randrange(len(rest))]
    else:
        rest.insert(rng.randrange(len(rest) + 1),
                    rng.choice(["--", "-h", "--help", "extra", "--bogus", "-1"]))
    return [name, *rest]


def argparse_reading(argv, capsys):
    try:
        return cli._parse_argparse(argv)
    except SystemExit as exc:
        message = capsys.readouterr().err.strip().splitlines()[-1]
        pytest.fail(f"argparse refused {argv} that the exact path accepted ({exc.code}): "
                    f"{message}")


def assert_same_reading(argv, capsys):
    exact = cli._parse_exact(argv)
    if exact is None:
        return False
    func, args = argparse_reading(argv, capsys)
    # repr, not ==: a time limit of nan is read the same way, yet unequal to itself
    assert (exact[0], repr(exact[1])) == (func, repr(args)), argv
    return True


@pytest.mark.parametrize("seed", range(10))
def test_argparse_reads_every_spelled_out_line_as_the_exact_path_does(seed, capsys):
    rng = random.Random(seed)
    for _ in range(210):
        argv = spelled_out(rng)
        assert assert_same_reading(argv, capsys), f"the exact path refused {argv}"


@pytest.mark.parametrize("seed", range(4))
def test_argparse_agrees_wherever_the_exact_path_takes_a_changed_line(seed, capsys):
    rng = random.Random(1000 + seed)
    accepted = sum(assert_same_reading(mangled(rng), capsys) for _ in range(150))
    assert 0 < accepted < 150  # some changes keep a line spelled out, most do not


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["frobnicate"],
    ["potential", "--task", "star", "--system", "ring:8", "--rea", "1"],
    ["potential", "--task", "star", "--system", "ring:8", "--reach=1"],
    ["potential", "--task", "star", "--system", "ring:8", "--reach", "1", "--"],
    ["potential", "--task", "star", "--system", "ring:8", "--reach", "-1"],
    ["potential", "--task", "star", "--system", "ring:8", "--reach", "0"],
    ["potential", "--task", "star", "--system", "ring:8", "--reach"],
    ["potential", "--task", "star", "--system", "ring:8"],
    ["potential", "--task", "star", "--system", "ring:8", "--reach", "1", "-h"],
    ["gen", "ring:8", "-oout.edges"],
    ["gen", "ring:8", "-o", "-"],
    ["gen", "ring:8", "ring:9"],
    ["gen", "-", "-o", "x"],
    ["table", "--task", "star", "--s", "1..3", "--reach", "1", "--format", "html"],
    ["embed", "--task", "ring:4", "--system", "mesh:2", "--reach", "1"],
])
def test_the_exact_path_leaves_every_other_line_to_argparse(argv):
    assert cli._parse_exact(argv) is None


def test_argparse_names_the_converters_message(capsys):
    assert cli.run(["potential", "--task", "star", "--system", "ring:8", "--reach", "x"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "topo-compat potential: error: argument --reach: expected a positive integer, got 'x'")
    assert cli.run(["potential", "--task", "star", "--system", "ring:8", "--reach", "1",
                    "--", "x"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "topo-compat: error: unrecognized arguments: -- x")


@pytest.mark.parametrize("argv", [
    ["potential", "--task", "ring", "--system", "ring:8", "--reach", "1"],
    ["embed", "--task", "ring:4", "--system", "ring:8", "--reach", "1"],
])
def test_the_time_limit_defaults_to_60_on_both_paths(argv, capsys):
    assert cli._parse_exact(argv)[1].time_limit == 60.0
    assert cli._parse_argparse(argv)[1].time_limit == 60.0
    assert cli.run([argv[0], "-h"]) == 0
    assert "wall-time cap (default 60)" in " ".join(capsys.readouterr().out.split())


@pytest.fixture(scope="module")
def workloads():
    flag = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    sys.path.insert(0, str(WORKLOADS.parent))  # for its ``import refgraph``
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses looks its module up
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = flag
        sys.path.remove(str(WORKLOADS.parent))
        sys.modules.pop("perfbench_workloads", None)
        sys.modules.pop("refgraph", None)
    return module


def test_every_benchmark_query_takes_the_exact_path(workloads, tmp_path):
    queries = []
    for name, build in sorted(workloads.BUILDERS.items()):
        queries += build(workloads.Inputs(str(tmp_path / name), name, 1))
    assert len(queries) > 50
    refused = [q.qid for q in queries if cli._parse_exact(q.argv) is None]
    assert refused == []
