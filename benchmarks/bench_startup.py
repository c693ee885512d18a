"""Start-up cost of a topo-compat process, and the modules each command loads.

    python benchmarks/bench_startup.py [--rounds N] [--src PATH]

Each query is one process, so its start-up and its exit are paid on every
query.  A round runs, one fresh process each: a bare interpreter (``python
-c pass``), a bare interpreter that skips the interpreter's teardown as
``topocompat.cli.main`` does (``python -c "import os; os._exit(0)"``),
``python -c "import topocompat.cli"``, one small ``python -m
topocompat.cli`` query per command, and two command lines that the CLI
leaves to argparse (a query with ``--rea=1`` for ``--reach 1``, and
``potential -h``), so the cost of a line not spelled out in full is a
number too; then all of these again under ``python
-S``, which skips ``site`` and so the ``.pth`` files of site-packages that
may import modules the program would otherwise be charged for.  The rows
take turns within every round, so a slow stretch of a shared host falls on
all of them alike.  The tree's ``src`` is copied and byte-compiled first,
as an install would be, so no row pays for compiling; each process gets
the copy on ``PYTHONPATH``, which holds no built extension and so runs the
pure kernels.
The table gives each row's median wall time and quartiles in milliseconds.

Then, for each command, a probe process imports the CLI, runs the same query
with its output discarded, and lists the modules it loaded beyond what a bare
interpreter had loaded; ``HEAVY`` names the standard-library modules that no
query spelled out in full should load.
"""

import argparse
import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("argparse", "gettext", "locale", "fractions", "decimal", "dataclasses", "inspect")
# one small query per command; {out} is a scratch directory
QUERIES = {
    "gen": ["gen", "hypercube:6", "-o", "{out}/gen.edges"],
    "power": ["power", "ring:64", "--reach", "2", "-o", "{out}/power.edges"],
    "potential": ["potential", "--task", "star", "--system", "ring:8", "--reach", "1"],
    "table": ["table", "--task", "star", "--s", "1..8", "--reach", "1..3", "--format", "csv"],
    "embed": ["embed", "--task", "ring:4", "--system", "hypercube:3", "--reach", "1",
              "--witness"],
    # not spelled out in full, so read by argparse
    "potential --rea=1": ["potential", "--task", "star", "--system", "ring:8", "--rea=1"],
    "potential -h": ["potential", "-h"],
}
PROBE = """
import sys
bare = set(sys.modules)
import topocompat.cli as cli
sys.stdout = open("/dev/null", "w")
code = cli.run(sys.argv[1:])
sys.stderr.write(" ".join(sorted(set(sys.modules) - bare)) if code == 0 else f"exit {code}")
"""


def timed(argv: list, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   check=True)
    return (time.perf_counter() - t0) * 1000


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--src", type=Path, default=SRC, help="the src directory to time")
    args = parser.parse_args()
    py = sys.executable
    with tempfile.TemporaryDirectory(prefix="bench-startup-") as out:
        src = Path(out, "src")
        shutil.copytree(args.src, src, ignore=shutil.ignore_patterns("__pycache__", "*.so"))
        compileall.compile_dir(str(src), quiet=1)
        env = dict(os.environ, PYTHONPATH=str(src))
        for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
            env.pop(name, None)
        queries = {name: [a.format(out=out) for a in argv] for name, argv in QUERIES.items()}
        base = {"python -c pass": ["-c", "pass"],
                "python -c os._exit(0)": ["-c", "import os; os._exit(0)"],
                "import topocompat.cli": ["-c", "import topocompat.cli"]}
        base.update((name, ["-m", "topocompat.cli", *argv]) for name, argv in queries.items())
        rows = {f"{flag} {row}".lstrip(): [py, *flag.split(), *argv]
                for flag in ("", "-S") for row, argv in base.items()}
        for argv in rows.values():  # warm the file cache once
            timed(argv, env)
        samples = {row: [] for row in rows}
        for _ in range(args.rounds):
            for row, argv in rows.items():
                samples[row].append(timed(argv, env))
        print(f"{py} ({sys.version.split()[0]}), {args.rounds} rounds, "
              f"{os.cpu_count()} CPUs; wall ms per process")
        print(f"{'row':<28}{'median':>9}{'q1':>9}{'q3':>9}")
        for row, times in samples.items():
            q1, med, q3 = statistics.quantiles(times, n=4)
            print(f"{row:<28}{med:>9.1f}{q1:>9.1f}{q3:>9.1f}")
        print("\nmodules loaded beyond a bare interpreter:")
        for name, argv in queries.items():
            proc = subprocess.run([py, "-c", PROBE, *argv], env=env, capture_output=True,
                                  text=True, check=True)
            loaded = proc.stderr.split()
            heavy = [m for m in HEAVY if m in loaded]
            print(f"{name} ({len(loaded)}): {' '.join(loaded)}")
            print(f"  of {', '.join(HEAVY)}: {', '.join(heavy) if heavy else 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
