"""How a ``topo-compat`` process ends: ``cli.main`` flushes, runs the exit
callbacks and leaves by ``os._exit``, or exits the ordinary way where
skipping the interpreter's teardown could lose something.

Every test starts fresh interpreters, with and without ``PYTHONUNBUFFERED``
where buffering changes when a write fails.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from topocompat.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"
CLI = [sys.executable, "-m", "topocompat.cli"]
SMALL = ["potential", "--task", "star", "--system", "ring:8", "--reach", "1", "--witness"]
# stands in for os._exit and says so on stderr, so the exit taken is visible
MAIN = """
import os, sys
leave = os._exit
def recorded(code):
    sys.stderr.write("os._exit\\n")
    sys.stderr.flush()
    leave(code)
os._exit = recorded
{setup}
sys.argv[1:] = {argv!r}
from topocompat.cli import main
main()
"""


def env(unbuffered=""):
    out = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    out["PYTHONPATH"] = str(SRC)
    if unbuffered:
        out["PYTHONUNBUFFERED"] = unbuffered
    return out


def cli(argv, **kwargs):
    return subprocess.run(CLI + argv, env=env(), stdin=subprocess.DEVNULL,
                          capture_output=True, **kwargs)


def in_process(argv, capsys):
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_a_multi_megabyte_edge_list_on_a_pipe_is_whole(tmp_path, capsys):
    argv = ["gen", "hypercube:16"]
    proc = cli(argv)
    code, out, err = in_process(argv, capsys)
    assert (proc.returncode, proc.stderr) == (code, err.encode()) == (0, b"")
    assert len(proc.stdout) > 5_000_000
    assert proc.stdout == out.encode()
    assert cli(argv + ["-o", str(tmp_path / "h16.edges")]).returncode == 0
    assert (tmp_path / "h16.edges").read_bytes() == proc.stdout


@pytest.mark.parametrize("argv,expected", [
    (SMALL, 0),
    (["embed", "--task", "complete:9", "--system", "hypercube:4", "--reach", "2",
      "--max-nodes", "5"], 1),
    (["gen", "bogus:1"], 2),
])
def test_exit_codes_and_messages_are_run_s(argv, expected, capsys):
    proc = cli(argv, text=True)
    assert in_process(argv, capsys) == (proc.returncode, proc.stdout, proc.stderr)
    assert proc.returncode == expected


def test_exit_callbacks_run_after_the_answer():
    setup = "import atexit\natexit.register(print, 'callback ran')"
    proc = subprocess.run([sys.executable, "-c", MAIN.format(setup=setup, argv=SMALL)],
                          env=env(), stdin=subprocess.DEVNULL, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "p=3 c=0.3750\ncenter=0 leaves=1 7\ncallback ran\n"
    assert proc.stderr == "os._exit\n"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_reader_that_leaves_early_gets_a_broken_pipe(unbuffered):
    with subprocess.Popen(CLI + ["gen", "hypercube:12"], env=env(unbuffered),
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"4096 24576\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(), err) == (2, b"error: [Errno 32] Broken pipe\n")


def _limit_address_space():
    import resource

    cap = 1 << 30  # ample for a query, and a bound on a reader that holds an endless line
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero on this system")
def test_an_endless_input_line_is_an_input_error():
    proc = subprocess.run(CLI + ["potential", "--task", "star", "--system", "file:/dev/zero",
                                 "--reach", "1"], env=env(), stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: line 1: longer than 4096 characters\n"


@pytest.mark.parametrize("system,reach", [("hypercube:20", "1"), ("ring:1048576", "3")])
def test_a_raised_host_cap_refuses_a_host_whose_masks_do_not_fit(system, reach):
    # the host's n-bit masks would take 128 GB; the order alone refuses it, in time
    proc = subprocess.run(CLI + ["embed", "--task", "star:5", "--system", system, "--reach", reach,
                                 "--max-host-order", "1000000000000", "--time-limit", "0.05"],
                          env=env(), stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=20, preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: host order 1048576 exceeds budget cap 36635\n"


def test_a_raised_host_cap_lets_a_dense_host_run_out_while_its_masks_are_built():
    # K_4579's masks fit the cap, and the search builds them against its deadline
    proc = subprocess.run(CLI + ["embed", "--task", "star:5", "--system", "complete:4579",
                                 "--reach", "1", "--max-host-order", "1000000000000",
                                 "--time-limit", "0.05"],
                          env=env(), stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=20, preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: embedding search ran out of time budget\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv,unbuffered,code,tail", [
    (["gen", "hypercube:12"], "", 2, "error: [Errno 28] No space left on device\n"),
    (["gen", "hypercube:12"], "1", 2, "error: [Errno 28] No space left on device\n"),
    # a small answer fails only when it is flushed: in the interpreter's own
    # exit when stdout is buffered, so the failure is reported and not lost
    (SMALL, "", 120, "OSError: [Errno 28] No space left on device\n"),
    (SMALL, "1", 2, "error: [Errno 28] No space left on device\n"),
])
def test_a_full_disk_is_reported(argv, unbuffered, code, tail):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(CLI + argv, env=env(unbuffered), stdin=subprocess.DEVNULL,
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == code
    assert proc.stderr.endswith(tail)
    assert proc.stderr.count("No space left on device") == 1


@pytest.mark.parametrize("setup,flags,leaves_early", [
    ("", [], True),
    ("sys.settrace(lambda *args: None)", [], False),
    ("sys.setprofile(lambda *args: None)", [], False),
    ("import threading, time\nthreading.Thread(target=time.sleep, args=(0.3,)).start()",
     [], False),
    ("", ["-i"], False),
])
def test_teardown_is_kept_where_it_may_matter(setup, flags, leaves_early):
    proc = subprocess.run([sys.executable, *flags, "-c", MAIN.format(setup=setup, argv=SMALL)],
                          env=env(), stdin=subprocess.DEVNULL, capture_output=True, text=True)
    assert proc.stdout.startswith("p=3 c=0.3750\ncenter=0 leaves=1 7\n")
    assert ("os._exit" in proc.stderr) is leaves_early
