"""The CLI's import path stays free of costly standard-library modules.

Every query is one process, so whatever ``import topocompat.cli`` loads is
paid on each of them.  ``dataclasses`` pulls in ``inspect`` (and with it
``ast``, ``dis`` and ``tokenize``); ``fractions`` and ``decimal`` are needed
only where a compatibility index is made.  Each check runs in a fresh
interpreter without ``site``, so nothing but the package decides what is
loaded, and asserts module names only, never timings.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("dataclasses", "inspect", "fractions", "decimal")

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


def test_gen_power_and_embed_never_load_fractions_or_decimal():
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


def test_a_potential_loads_them_where_the_index_is_made():
    potential = ["potential", "--task", "star", "--system", "ring:8", "--reach", "1"]
    rc, out, loaded = _probe(potential)[" ".join(potential)]
    assert (rc, out) == (0, "p=3 c=0.3750\n")
    assert loaded == ["fractions", "decimal"]
