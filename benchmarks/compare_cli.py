"""Replay one benchmark workload's queries on two source trees and diff the results.

    python benchmarks/compare_cli.py PARENT_SRC CHANGE_SRC [--workload W] [--seed N]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts, for
instance of a ``git archive`` of the parent commit and of this one.  The
queries and their input files come from ``perfbench/workloads.py``, which is
imported and left as it is.  Each tree gets its own copy of the inputs in a
temporary directory, so the ``-o`` files of the two trees never meet.  Every
query runs there as ``python -m topocompat.cli`` once per tree, in the
environment ``perfbench/run.py`` gives its queries (``child_env``).  Each
tree runs whichever kernel backend its ``src`` can load: the pure one for
a ``git archive``, which holds no built extension.

Exit code, standard output, standard error (with the tree's ``src`` path
written as ``<src>``) and the file named after ``-o`` must be byte-identical.
Each difference is printed; the exit status is 1 if there is any, else 0.
A query still running after ``TIMEOUT_S`` on either tree counts as one.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from run import child_env  # noqa: E402

TIMEOUT_S = 600  # per query and tree; a pure-backend pass of any workload takes seconds


def outcome(src: Path, argv: list, cwd: str) -> dict:
    """What one query leaves behind on one tree, keyed by what is compared."""
    try:
        proc = subprocess.run([sys.executable, "-m", "topocompat.cli", *argv], cwd=cwd,
                              env=child_env(src, pure=False), stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"exit code": f"timed out after {TIMEOUT_S} s"}
    result = {"exit code": proc.returncode, "stdout": proc.stdout,
              "stderr": proc.stderr.replace(str(src).encode(), b"<src>")}
    if "-o" in argv:
        out = Path(cwd, argv[argv.index("-o") + 1])
        result["-o file"] = out.read_bytes() if out.is_file() else None
    return result


def show(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + f"... ({len(value)} bytes)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS), default="transform")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    trees = [args.parent_src.resolve(), args.change_src.resolve()]
    differences = 0
    with tempfile.TemporaryDirectory(prefix="compare-cli-") as tmp:
        inputs = [workloads.Inputs(os.path.join(tmp, name), args.workload, args.seed)
                  for name in ("parent", "change")]
        queries = [workloads.BUILDERS[args.workload](i) for i in inputs]
        for parent_q, change_q in zip(*queries):
            parent, change = (outcome(src, q.argv, i.root)
                              for src, q, i in zip(trees, (parent_q, change_q), inputs))
            diff = [key for key in {**parent, **change} if parent.get(key) != change.get(key)]
            print(f"{'DIFF' if diff else 'same'} {parent_q.qid}")
            for key in diff:
                print(f"  {key}: parent {show(parent.get(key))}")
                print(f"  {key}: change {show(change.get(key))}")
            differences += bool(diff)
    print(f"{args.workload} seed {args.seed}: {len(queries[0])} queries, "
          f"{differences} with differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
