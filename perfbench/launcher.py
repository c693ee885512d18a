"""Start one query process per request and report its wall time and peak RSS.

A child's peak RSS as ``os.wait4`` reports it is at least the RSS of the
process that forked it, so the harness, which holds reference graphs, forks
no queries itself.  This small process does, reading one JSON request per
line on stdin and answering with one JSON line on stdout:

    {"argv": [...], "cwd": "...", "out": "path", "err": "path", "timeout": 60}
    -> {"seconds": 0.08, "rc": 0, "maxrss_mb": 11.2}
"""

import json
import os
import subprocess
import sys
import threading
import time


CALIBRATION_LOOP = 20_000


def calibration_ms() -> float:
    """Fastest of three runs of a fixed interpreter loop: the host's current speed."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += i
        best = min(best, time.perf_counter() - t0)
    return best * 1000


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        before = calibration_ms()
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        calibration = (before + calibration_ms()) / 2
        sys.stdout.write(json.dumps({"seconds": seconds, "rc": proc.returncode,
                                     "maxrss_mb": usage.ru_maxrss / 1024,
                                     "calibration_ms": calibration}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
