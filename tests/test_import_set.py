"""The CLI's import path stays free of costly standard-library modules.

Every query is one process, so whatever ``import topocompat.cli`` loads is
paid on each of them.  ``dataclasses`` pulls in ``inspect`` (and with it
``ast``, ``dis`` and ``tokenize``); ``argparse`` pulls in ``gettext``, and
``locale`` once a parser is built; ``fractions`` (which imports ``decimal``)
is needed only where a library caller reads a report's exact index, never
to print one.  Each check runs in a fresh
interpreter without ``site``, so nothing but the package decides what is
loaded, and asserts module names only, never timings.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("dataclasses", "inspect", "argparse", "gettext", "locale", "fractions", "decimal")

PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
heavy = {heavy!r}
loaded = lambda: [m for m in heavy if m in sys.modules]
seen = {{"start": loaded()}}
import topocompat.cli as cli
seen["import"] = loaded()
for argv in {argvs!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.run(argv)
    seen[" ".join(argv)] = [rc, out.getvalue(), loaded()]
sys.stdout.write(json.dumps(seen))
"""


def _probe(*argvs):
    code = PROBE.format(src=str(SRC), heavy=HEAVY, argvs=list(argvs))
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_none_of_the_heavy_modules():
    seen = _probe()
    assert seen["start"] == []
    assert seen["import"] == []


def test_gen_power_and_embed_load_none_of_them():
    embed = ["embed", "--task", "ring:4", "--system", "hypercube:3", "--reach", "1", "--witness"]
    gen = ["gen", "ring:5"]
    power = ["power", "star:4", "--reach", "2"]
    seen = _probe(embed, gen, power)
    rc, out, loaded = seen[" ".join(embed)]
    assert (rc, out.splitlines()[0], loaded) == (0, "embedding found", [])
    rc, out, loaded = seen[" ".join(gen)]
    assert (rc, out.splitlines()[0], loaded) == (0, "5 5", [])
    rc, out, loaded = seen[" ".join(power)]
    assert (rc, out.splitlines()[0], loaded) == (0, "4 6", [])


def test_potential_and_table_load_none_of_them(tmp_path):
    system = tmp_path / "h3.edges"
    system.write_text("8 12\n0 1\n0 2\n0 4\n1 3\n1 5\n2 3\n2 6\n3 7\n4 5\n4 6\n5 7\n6 7\n")
    table = ["table", "--task", "star", "--s", "2..3", "--reach", "1..2", "--format"]
    cases = {
        ("potential", "--task", "star", "--system", "ring:8", "--reach", "1"): "p=3 c=0.3750\n",
        ("potential", "--task", "ring", "--system", f"file:{system}", "--reach", "1",
         "--witness"): "p=8 c=1.0000\ncycle: 0 1 3 2 6 7 5 4\n",
        ("potential", "--task", "star", "--system", "hypercube:5", "--reach", "2"):
            "p=16 c=0.5000\n",
        (*table, "text"): "task=star system=hypercube:2 reach=1 n=4 p=3 c=0.7500\n"
                          "task=star system=hypercube:3 reach=1 n=8 p=4 c=0.5000\n"
                          "task=star system=hypercube:2 reach=2 n=4 p=4 c=1.0000\n"
                          "task=star system=hypercube:3 reach=2 n=8 p=7 c=0.8750\n",
        (*table, "csv"): "task,system,s_or_n,reach,n,p,c_exact_num,c_exact_den,c_rounded\n"
                         "star,hypercube,2,1,4,3,3,4,0.7500\n"
                         "star,hypercube,3,1,8,4,1,2,0.5000\n"
                         "star,hypercube,2,2,4,4,1,1,1.0000\n"
                         "star,hypercube,3,2,8,7,7,8,0.8750\n",
        (*table, "markdown"): "| task=star | s=2 | s=3 |\n| --- | --- | --- |\n| n | 4 | 8 |\n"
                              "| reach=1 | 3; 0.7500 | 4; 0.5000 |\n"
                              "| reach=2 | 4; 1.0000 | 7; 0.8750 |\n",
    }
    seen = _probe(*(list(argv) for argv in cases))
    for argv, expected in cases.items():
        assert seen[" ".join(argv)] == [0, expected, []], argv


LIBRARY_PROBE = """
import json, sys
sys.path.insert(0, {src!r})
from topocompat.compat import CompatibilityReport
from topocompat.topologies import TopologySpec
report = CompatibilityReport(TopologySpec("ring", 8), "star", 1, 8, 3)
seen = {{"made": sorted(m for m in ("fractions", "decimal") if m in sys.modules)}}
exact, text = report.index_exact, report.index_text
seen["after read"] = sorted(m for m in ("fractions", "decimal") if m in sys.modules)
from fractions import Fraction
seen["read"] = [exact == Fraction(3, 8), type(exact) is Fraction, text]
sys.stdout.write(json.dumps(seen))
"""


def test_a_report_makes_its_fraction_when_read():
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", LIBRARY_PROBE.format(src=str(SRC))],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # ``fractions`` imports ``decimal`` itself
    assert json.loads(proc.stdout) == {"made": [], "after read": ["decimal", "fractions"],
                                       "read": [True, True, "0.3750"]}
