"""Seeded fuzzing of the exit contract: every command line ends in 0, 1 or 2.

Command lines are drawn from ``cli.COMMANDS``: each command's arguments with
values from pools of valid, malformed, huge and negative texts, small
``file:`` systems (some of them malformed files), and then now and then a
change: a flag cut to a prefix, a value joined by ``=`` or attached to
``-o``, ``--``, ``-h``, a dropped or a stray token, an unknown command.
Each runs in-process through ``cli.run()`` with a small time budget: the
default of ``--time-limit`` is lowered for the run, and a drawn
``--time-limit`` still overrides it.  A line that ``embed``s into one of
``HOSTS_TOO_LARGE`` runs instead as a process of its own, with the same
lowered default, under a 1 GiB address-space cap, as do the fixed lines
with a raised host cap: a host that reaches its n-bit masks then fails its
test rather than the suite.

Every case must return 0, 1 or 2 and raise nothing.  Exit 0 writes nothing
to standard error; exits 1 and 2 end standard error with its one line that
says ``error:``.  Every exit-0 ``potential`` on a ``file:`` system of order
at most 16 must give the potential that the brute-force oracles give.  The
small files are seeded random graphs, relabelled hypercubes H3 and H4, a
near miss of H4 with one edge moved, and relabelled forests (a perfect
matching, a path, a star and a forest of small trees), whose ring potential
is 0 at reach 1 and is decided with no search.
"""

import random
import subprocess
import sys
import time

import pytest

from topocompat import cli, from_edge_list, hypercube
from topocompat.edgelist import write_edge_list_path
from topocompat.errors import InvalidParameter
from topocompat.topologies import _GENERATORS, TopologySpec
from oracles import (largest_ball_reference, longest_cycle_reference, power_reference,
                     random_graph, relabelled)
from test_process_exit import _limit_address_space, env

SEEDS = range(8)
CASES = 150
TIME_LIMIT = 0.05  # seconds, the default of --time-limit in these runs
SLOWEST_CASE_S = 2  # a hundred times the slowest case; one past it did unbounded work
ORACLE_MAX_ORDER = 16  # the largest file system whose potentials the oracles check
# ``topo-compat`` with the default of --time-limit lowered to TIME_LIMIT, as in-process runs
CHILD = [sys.executable, "-c", f"""
from topocompat import cli
next(arg for arg in cli._BUDGET if arg.dest == "time_limit").default = {TIME_LIMIT!r}
cli.main()
"""]

# per converter: texts it accepts (a spec's are drawn from SMALL below), and texts it refuses
# or the command then refuses
VALID = {
    cli._positive_int: ["1", "2", "3", "1000000000000", "٣"],
    cli._seconds: ["0.05", "0.000001", "1e-9", "2"],
    cli.parse_range: ["1..4", "3", "2..8", "1..20"],
}
INVALID = {
    cli.parse_topology_spec: [
        "", "ring", "ring:", "ring:x", "mesh:3", ":5", "file:", "hypercube:2.5", "RING:5",
        "hypercube:0", "hypercube:-1", "hypercube:21", "hypercube:99999999999999999999",
        "ring:-5", "ring:2", "ring:1048577", "ring:99999999999999999999", "star:1",
        "star:1048577", "complete:0", "complete:-2", "complete:4580"],
    cli._positive_int: ["0", "-1", "x", "2.5", "", "1\n2"],
    cli._seconds: ["nan", "inf", "-1", "x", "0"],
    cli.parse_range: ["5..2", "x..y", "0..3", "1..100000", "1..99999999999999999999", "-3..2",
                      ""],
}


def small(kind, k):
    """Whether ``kind:k`` is a valid spec of order at most 16."""
    try:
        return TopologySpec(kind, k).order() <= 16
    except InvalidParameter:
        return False


# per generated kind (``topologies._GENERATORS``), its parameters up to 8 of order at most 16;
# a valid spec takes one kind and draws one of these
SMALL = {kind: [k for k in range(1, 9) if small(kind, k)] for kind in _GENERATORS}
# valid systems too large to build cheaply, which embed refuses from the spec
HOSTS_TOO_LARGE = ["hypercube:20", "ring:1048576", "complete:4579"]
MALFORMED_FILES = {
    "empty.edges": b"",
    "header.edges": b"3\n",
    "words.edges": b"a b\n",
    "short.edges": b"3 2\n0 1\n",
    "long.edges": b"3 1\n0 1\n1 2\n",
    "loop.edges": b"3 1\n1 1\n",
    "range.edges": b"3 1\n0 7\n",
    "negative.edges": b"3 1\n0 -1\n",
    "order.edges": b"-3 0\n",
    "zero.edges": b"0 0\n",
    "huge.edges": b"99999999999999999999 0\n",
    "edges.edges": b"2 10485761\n0 1\n",  # more edges than H_20, the cap of every power
    "bytes.edges": b"\xff\xfe",
    # the first fault in file order is reported: a vertex out of range, then the order
    "first.edges": b"3 2\n0 5\n0 1 2\n",
    "nothing.edges": b"0 1\nx y\n",
}


@pytest.fixture(scope="module")
def systems(tmp_path_factory):
    """``file:`` spec -> its graph, or None for a malformed or missing file."""
    root = tmp_path_factory.mktemp("systems")
    rng = random.Random(7)
    files = {}
    for i, n in enumerate((1, 2, 3, 4, 5, 6, 7, 8, 8, 12)):
        g = random_graph(rng, n, 0.5)
        write_edge_list_path(g, root / f"g{i}.edges")
        files[f"file:{root / f'g{i}.edges'}"] = g
    # H4 with its edge 0-2 moved to 0-3: degrees 3 and 5 at 2 and 3, and the Gray cycle kept
    moved = from_edge_list(16, [e for e in hypercube(4).edges if e != (0, 2)] + [(0, 3)])
    # forests: a perfect matching, a path, a star, and a path, a star, a tree and a vertex
    matching = from_edge_list(16, [(v, v + 1) for v in range(0, 16, 2)])
    path = from_edge_list(10, [(v, v + 1) for v in range(9)])
    star = from_edge_list(8, [(0, v) for v in range(1, 8)])
    trees = from_edge_list(12, [(0, 1), (1, 2), (3, 4), (3, 5), (3, 6),
                                (7, 8), (8, 9), (8, 10)])
    for name, g in (("h3", relabelled(hypercube(3), 3)), ("h4", relabelled(hypercube(4), 4)),
                    ("h4-moved", relabelled(moved, 4)), ("matching", relabelled(matching, 16)),
                    ("path", relabelled(path, 10)), ("star", relabelled(star, 8)),
                    ("trees", relabelled(trees, 12))):
        write_edge_list_path(g, root / f"{name}.edges")
        files[f"file:{root / f'{name}.edges'}"] = g
    for name, data in MALFORMED_FILES.items():
        (root / name).write_bytes(data)
        files[f"file:{root / name}"] = None
    files[f"file:{root / 'missing.edges'}"] = None
    files[f"file:{root}"] = None  # a directory
    return files


def text(rng, command, arg, systems, out):
    """A value for arg of command: most often a valid one."""
    valid = rng.random() < 0.85
    if arg.choices:
        return rng.choice(arg.choices if valid else ("mesh", "html", ""))
    if arg.convert is str:  # an output path; "" is standard output
        return rng.choice([str(out / "g.edges"), ""] if valid
                          else [str(out), str(out / "no" / "g.edges")])
    if arg.convert is not cli.parse_topology_spec:
        return rng.choice((VALID if valid else INVALID)[arg.convert])
    if not valid:
        return rng.choice(INVALID[arg.convert] + [s for s, g in systems.items() if g is None])
    files = [s for s, g in systems.items() if g is not None]
    large = HOSTS_TOO_LARGE if (command, arg.dest) == ("embed", "system") else []
    spec = rng.choice(list(SMALL) * 2 + files * 2 + large)
    return f"{spec}:{rng.choice(SMALL[spec])}" if spec in SMALL else spec


def draw(rng, systems, out):
    """One command line spelled out from COMMANDS, then perhaps changed."""
    command = rng.choice(sorted(cli.COMMANDS))
    groups = []
    for arg in cli.COMMANDS[command][2]:
        if arg.required and rng.random() < 0.97 or rng.random() < 0.3:
            value = [] if arg.switch else [text(rng, command, arg, systems, out)]
            groups.append([rng.choice(arg.names), *value] if arg.is_flag else value)
    rng.shuffle(groups)
    argv = [command, *(token for group in groups for token in group)]
    for _ in range(rng.choice((0, 0, 1, 2))):
        argv = change(rng, argv)
    return argv


def change(rng, argv):
    i = rng.randrange(len(argv) + 1)
    kind = rng.randrange(8)
    flags = [j for j, token in enumerate(argv) if token.startswith("--") and len(token) > 3]
    if kind == 0 and flags:  # a long flag cut to a prefix, maybe an ambiguous one
        j = rng.choice(flags)
        argv[j] = argv[j][:rng.randrange(2, len(argv[j]))]
    elif kind == 1 and flags and flags[-1] + 1 < len(argv):  # --flag=value
        j = flags[-1]
        argv[j:j + 2] = [f"{argv[j]}={argv[j + 1]}"]
    elif kind == 2 and "-o" in argv[:-1]:  # -ovalue
        j = argv.index("-o")
        argv[j:j + 2] = ["-o" + argv[j + 1]]
    elif kind == 3 and argv:
        del argv[min(i, len(argv) - 1)]
    elif kind == 4:
        argv[:1] = [rng.choice(["frobnicate", "", "-h", "--help", "gen", "table"])]
    else:
        argv.insert(i, rng.choice(["--", "-h", "--help", "--bogus", "extra", "-1", "-",
                                   "--witness", "--reach"]))
    return argv


def oracle_potential(g, task, reach):
    if task == "star":
        return 1 + len(largest_ball_reference(g, reach)[1])
    # no distance exceeds the order, and the BFS takes one step per unit of reach
    return longest_cycle_reference(
        from_edge_list(g.order, sorted(power_reference(g, min(reach, g.order)))))


def potential_p(out):
    return int(out.split()[0].removeprefix("p="))


def reading(argv, capsys):
    """What the program reads from argv: (function, arguments), or None for
    help and usage errors."""
    try:
        return cli._parse_exact(argv) or cli._parse_argparse(argv)
    except SystemExit:
        return None
    finally:
        capsys.readouterr()


def run_in_contract(argv, capsys):
    """(exit code, standard output) of argv, which must end in 0, 1 or 2 within
    SLOWEST_CASE_S, raise nothing, and leave one error line unless it exits 0."""
    start = time.perf_counter()
    try:
        code = cli.run(argv)
    except Exception as exc:
        pytest.fail(f"{argv} raised {exc!r}")
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    return in_contract(argv, code, out, err, elapsed)


def run_in_child_in_contract(argv):
    """``run_in_contract`` of argv run as a process of its own (``CHILD``),
    under the address-space cap of ``test_process_exit``, so that a run
    which grows without bound fails its test instead of ending the suite."""
    start = time.perf_counter()
    proc = subprocess.run(CHILD + argv, env=env(), stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=20, preexec_fn=_limit_address_space)
    elapsed = time.perf_counter() - start
    return in_contract(argv, proc.returncode, proc.stdout, proc.stderr, elapsed)


def in_contract(argv, code, out, err, elapsed):
    """(code, out) once they keep the exit contract: see ``run_in_contract``."""
    assert elapsed < SLOWEST_CASE_S, argv
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err == "", argv
    else:
        lines = err.splitlines()
        assert lines and "error:" in lines[-1], (argv, err)
        assert sum("error:" in line for line in lines) == 1, (argv, err)
    return code, out


@pytest.mark.parametrize("seed", SEEDS)
def test_every_command_line_ends_in_zero_one_or_two(seed, systems, tmp_path, capsys,
                                                     monkeypatch):
    # both parse paths read the flag's default, so every line gets the small budget
    time_limit = next(arg for arg in cli._BUDGET if arg.dest == "time_limit")
    monkeypatch.setattr(time_limit, "default", TIME_LIMIT)
    monkeypatch.chdir(tmp_path)  # a changed line may write a relative -o path, "-1" say
    rng = random.Random(seed)
    for _ in range(CASES):
        argv = draw(rng, systems, tmp_path)
        parsed = reading(argv, capsys)
        if parsed and parsed[0] is cli._cmd_embed and str(parsed[1].system) in HOSTS_TOO_LARGE:
            code, out = run_in_child_in_contract(argv)
        else:
            code, out = run_in_contract(argv, capsys)
        if code == 0 and parsed and parsed[0] is cli._cmd_potential:
            args = parsed[1]
            g = systems.get(str(args.system))
            if g is not None and g.order <= ORACLE_MAX_ORDER:
                assert potential_p(out) == oracle_potential(g, args.task, args.reach), argv


@pytest.mark.parametrize("system,reach", [("hypercube:20", "1"), ("ring:1048576", "3"),
                                          ("complete:4579", "1")])
def test_a_host_too_large_for_its_masks_ends_in_time_with_a_raised_cap(system, reach):
    # lines the seeds draw only now and then: the first two are refused before any
    # n-bit mask; K_4579's component sweep reads the deadline, and runs out
    assert run_in_child_in_contract(["embed", "--task", "star:5", "--system", system,
                                     "--reach", reach, "--max-host-order", "1000000000000",
                                     "--time-limit", "0.05"]) == (1, "")


def test_a_dense_ring_potential_reads_its_deadline_while_relabelling(capsys):
    # K_4579's relabelled masks cost O(n) per entry, about 2.5 s in all without the deadline
    assert run_in_contract(["potential", "--task", "ring", "--system", "complete:4579",
                            "--reach", "1", "--time-limit", "0.05"], capsys) == (1, "")


@pytest.mark.parametrize("task", ["star", "ring"])
def test_every_small_file_system_gets_the_oracles_potential(task, systems, capsys):
    small = {spec: g for spec, g in systems.items()
             if g is not None and g.order <= ORACLE_MAX_ORDER}
    assert len(small) == 17
    for spec, g in small.items():
        for reach in (1, 2, 3, 10**12):
            assert cli.run(["potential", "--task", task, "--system", spec,
                            "--reach", str(reach)]) == 0
            assert potential_p(capsys.readouterr().out) == oracle_potential(g, task, reach)


def test_every_malformed_file_exits_two_with_one_error_line(systems, capsys):
    for spec in [spec for spec, g in systems.items() if g is None]:
        assert cli.run(["potential", "--task", "star", "--system", spec, "--reach", "2"]) == 2, spec
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:"), (spec, err)
