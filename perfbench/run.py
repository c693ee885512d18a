#!/usr/bin/env python3
"""topo-compat benchmark: CLI query sweeps, and a traced per-layer replay.

    python3 perfbench/run.py --workload transform --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Set-up installs a private copy of
``src/`` (and, for ``search-compiled``, builds the extension in that copy with
the repository's ``setup.py``) and writes the seeded input files; it is
repeated and its median is ``setup_s``.

``--trace 0`` sends the workload's queries, one ``python -m topocompat.cli``
process at a time (a closed loop with one client), in passes until
``--seconds`` is used up, and checks every answer.  ``--trace 1`` replays the
same queries in-process, alternating untraced and traced passes, and reports
per-layer metrics.  ``--workload all`` runs every workload in turn.

Human-readable tables go to standard output; its last line is one JSON
object.  Per-query rows, provenance and spans go to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from launcher import calibration_ms  # noqa: E402

SETUP_REPEATS = 5
BUILD_REPEATS = 3
QUERY_TIMEOUT_S = 60.0
STARTUP_PROBES = 7
MIN_SAMPLES = 100  # p90 needs ten samples beyond it
WHY = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
# Co-tenants on a shared host slow every process by up to a half for minutes
# at a time.  Each timed sample is therefore scaled by this reference over the
# calibration loop's time measured next to it (launcher.calibration_ms): times
# read as on a host where the loop takes REFERENCE_CALIBRATION_MS.
REFERENCE_CALIBRATION_MS = 0.6

END_TO_END = [("sweep_s", "s"), ("query_p50_ms", "ms"), ("query_p90_ms", "ms"),
              ("peak_rss_mb", "MB"), ("decided_ratio", "ratio"), ("setup_s", "s")]
PER_LAYER = [
    ("env.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.self_ms", "ms"),
    ("topologies.build_ms", "ms"), ("edgelist.read_ms", "ms"), ("edgelist.write_ms", "ms"),
    ("edgelist.bytes", "B"), ("graph.power_ms", "ms"), ("graph.masks_ms", "ms"),
    ("graph.power_edges", "count"), ("graph.power_peak_mb", "MB"),
    ("kernels.search_ms", "ms"), ("kernels.nodes", "count"), ("kernels.nodes_per_s", "1/s"),
    ("kernels.wasted_node_ratio", "ratio"), ("embedding.self_ms", "ms"),
    ("compat.potential_ms", "ms"), ("compat.report_ms", "ms"), ("compat.render_ms", "ms"),
    ("trace.replay_ms", "ms"), ("trace.overhead_ms", "ms"),
    ("kernels.bench_pure_nodes", "count"), ("kernels.bench_pure_nodes_per_s", "1/s"),
    ("kernels.bench_compiled_nodes", "count"), ("kernels.bench_compiled_nodes_per_s", "1/s"),
]


class SetupError(Exception):
    """The program could not be installed or built; nothing is timed."""


# -- set-up --------------------------------------------------------------------------

def child_env(src: Path, pure: bool) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TOPO_COMPAT_")
           and k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    if pure:
        env["TOPO_COMPAT_PURE"] = "1"
    return env


def install(dest: Path, workload: str, seed: int):
    """Copy and byte-compile the program, build it if needed, write the inputs."""
    t0 = time.perf_counter()
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.egg-info"))
    if not workloads.PURE[workload]:
        for name in ("setup.py", "pyproject.toml", "README.md"):
            if (ROOT / name).is_file():
                shutil.copy2(ROOT / name, dest / name)
        with open(dest / "build.log", "w") as log:
            subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"], cwd=dest,
                           env=child_env(dest / "src", pure=False), stdin=subprocess.DEVNULL,
                           stdout=log, stderr=subprocess.STDOUT, timeout=150, check=False)
    prefix, sys.pycache_prefix = sys.pycache_prefix, None
    try:
        compileall.compile_dir(str(dest / "src"), quiet=1)
    finally:
        sys.pycache_prefix = prefix
    inputs = workloads.Inputs(str(dest / "inputs"), workload, seed)
    queries = workloads.BUILDERS[workload](inputs)
    return time.perf_counter() - t0, inputs, queries


def backend_of(env: dict) -> str:
    probe = subprocess.run(
        [sys.executable, "-c", "import topocompat._kernels as k; print(k.active_backend())"],
        env=env, capture_output=True, text=True, timeout=60, check=False)
    return probe.stdout.strip() or "import failed: " + probe.stderr.strip()[-200:]


def scaled_install(dest: Path, workload: str, seed: int):
    """install() with its time scaled to the reference host speed."""
    before = calibration_ms()
    seconds, inputs, queries = install(dest, workload, seed)
    calibration = (before + calibration_ms()) / 2
    return seconds * REFERENCE_CALIBRATION_MS / calibration, inputs, queries


def setup(run_dir: Path, workload: str, seed: int):
    seconds, inputs, queries = scaled_install(run_dir / "install", workload, seed)
    dest = run_dir / "install"
    pure = workloads.PURE[workload]
    env = child_env(dest / "src", pure)
    backend = backend_of(env)
    if backend != ("pure" if pure else "compiled"):
        log = dest / "build.log"
        tail = log.read_text()[-2000:] if log.is_file() else ""
        raise SetupError(f"{workload}: expected the {'pure' if pure else 'compiled'} "
                         f"backend, got {backend!r}\n{tail}")
    return seconds, dest, env, backend, inputs, queries


def spare_setup(run_dir: Path, workload: str, seed: int) -> float:
    """One more timed set-up into a throwaway directory."""
    seconds, _, _ = scaled_install(run_dir / "spare", workload, seed)
    shutil.rmtree(run_dir / "spare")
    return seconds


# -- one query, classified -------------------------------------------------------------

def classify(query, rc, out: str, err: str):
    """(outcome, detail): exact, unknown (budget), failed, or wrong."""
    if "Traceback (most recent call last)" in err:
        return "failed", "traceback: " + err.strip().splitlines()[-1][:200]
    if rc == 1 and err.startswith("error:") and "budget" in err:
        return "unknown", err.strip()[:200]
    if rc != 0:
        return "failed", f"exit {rc}: {err.strip()[:200]}"
    try:
        query.check(out)
    except workloads.Wrong as exc:
        return "wrong", str(exc)[:300]
    return "exact", ""


class Launcher:
    """The process that starts each query (see launcher.py); closed with ``with``."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, cwd: str, out: Path, err: Path):
        request = {"argv": [sys.executable, *argv], "cwd": cwd,
                   "out": str(out), "err": str(err), "timeout": QUERY_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return (reply["seconds"], reply["rc"], out.read_text(errors="replace"),
                err.read_text(errors="replace"), reply["maxrss_mb"], reply["calibration_ms"])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=QUERY_TIMEOUT_S)
        self.proc.stdout.close()


# -- metrics ----------------------------------------------------------------------------

def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def sweep(dest: Path, env: dict, backend: str, queries, cwd: str, seconds: float,
          setups: List[float], more_setup: Callable[[], float], setup_repeats: int):
    """Passes over the queries until ``seconds`` of them have run.

    Every latency sample is scaled to the reference host speed.  Passes go on
    past ``seconds`` until the pooled sample leaves ten beyond the p90.  Set-up
    is repeated between passes, not back to back, so that its median does not
    ride on one burst of host load.
    """
    rows, pass_s, pass_rss = [], [], []
    busy = 0.0  # wall seconds spent in passes
    with Launcher(env) as launcher:
        while not pass_s or busy * (1 + 1 / len(pass_s)) <= seconds or len(rows) < MIN_SAMPLES:
            t0 = time.perf_counter()
            total, rss = 0.0, 0.0
            for q in queries:
                dt, rc, out, err, maxrss, cal = launcher.run(
                    ["-m", "topocompat.cli", *q.argv], cwd, dest / "q.out", dest / "q.err")
                outcome, detail = classify(q, rc, out, err)
                latency_ms = dt * 1000 * REFERENCE_CALIBRATION_MS / cal
                total += latency_ms / 1000
                rss = max(rss, maxrss)
                rows.append({"pass": len(pass_s), "qid": q.qid, "backend": backend,
                             "wall_ms": dt * 1000, "calibration_ms": cal,
                             "latency_ms": latency_ms, "rc": rc, "outcome": outcome,
                             "detail": detail, "maxrss_mb": maxrss})
            busy += time.perf_counter() - t0
            pass_s.append(total)
            pass_rss.append(rss)
            if len(setups) < setup_repeats:
                setups.append(more_setup())
    while len(setups) < setup_repeats:
        setups.append(more_setup())

    # a failed query counts as missing any latency limit: it scores the kill timeout
    latencies = sorted(QUERY_TIMEOUT_S * 1000 if r["outcome"] in ("failed", "wrong")
                       else r["latency_ms"] for r in rows)
    n = len(rows)
    counts = {k: sum(r["outcome"] == k for r in rows)
              for k in ("exact", "unknown", "failed", "wrong")}
    metrics = {
        "sweep_s": (statistics.median_low(pass_s), len(pass_s)),
        "query_p50_ms": (percentile(latencies, 0.5), n),
        "query_p90_ms": (percentile(latencies, 0.9), n),
        "peak_rss_mb": (statistics.median_low(pass_rss), len(pass_rss)),
        "decided_ratio": (counts["exact"] / n, n),
        "failed_ratio": ((counts["failed"] + counts["wrong"]) / n, n),
        "setup_s": (statistics.median_low(setups), len(setups)),
        "host_calibration_ms": (statistics.median_low(r["calibration_ms"] for r in rows), n),
    }
    return metrics, rows


# -- traced replay ------------------------------------------------------------------------

def startup_probes(dest: Path, env: dict):
    """Median bare interpreter start, and the extra cost of importing the CLI."""
    bare, cli = [], []
    with Launcher(env) as launcher:
        for _ in range(STARTUP_PROBES):
            for code, into in (("pass", bare), ("import topocompat.cli", cli)):
                seconds, rc, _, err, _, _ = launcher.run(["-c", code], str(dest),
                                                         dest / "q.out", dest / "q.err")
                if rc != 0:
                    raise SetupError(f"python -c {code!r} failed: {err[-500:]}")
                into.append(seconds * 1000)
    interp = statistics.median_low(bare)
    return interp, statistics.median_low(cli) - interp


def import_program(src: Path, pure: bool):
    for key in [k for k in os.environ if k.startswith("TOPO_COMPAT_")]:
        del os.environ[key]
    if pure:
        os.environ["TOPO_COMPAT_PURE"] = "1"
    sys.path.insert(0, str(src))
    import topocompat.cli as cli
    import topocompat._kernels as kernels

    return cli, kernels


def traced_run(workload: str, dest: Path, env: dict, backend: str, inputs, queries,
               seconds: float):
    pure = workloads.PURE[workload]
    interp_ms, import_ms = startup_probes(dest, env)
    cli, kernels = import_program(dest / "src", pure)
    rows, plain, traced, spans = [], [], [], []
    cwd = os.getcwd()
    os.chdir(inputs.root)
    try:
        start = time.perf_counter()
        while not traced or time.perf_counter() - start + plain[-1] + traced[-1][0] < seconds:
            plain_s, _ = tracing.replay_pass(queries, cli.run)
            tracer = tracing.Tracer()
            patches = tracing.install_tracer(tracer)
            try:
                traced_s, results = tracing.replay_pass(queries, cli.run, tracer)
            finally:
                patches.restore()
            plain.append(plain_s)
            traced.append((traced_s, tracing.layer_metrics(tracer.spans)))
            spans.extend(tracer.spans)
            for q, rc, out, err in results:
                outcome, detail = classify(q, rc, out, err)
                rows.append({"pass": len(plain) - 1, "qid": q.qid, "backend": backend,
                             "rc": rc, "outcome": outcome, "detail": detail})
        peaks = []
        patches = tracing.power_peak_patch(peaks)
        try:
            tracing.replay_pass(queries, cli.run)
        finally:
            patches.restore()
    finally:
        os.chdir(cwd)

    metrics = tracing.median_metrics([m for _, m in traced])
    plain_ms = statistics.median_low(plain) * 1000
    metrics.update({
        "env.interp_ms": interp_ms,
        "cli.import_ms": import_ms,
        "graph.power_peak_mb": max(peaks, default=0) / 2**20,
        "trace.replay_ms": plain_ms,
        "trace.overhead_ms": statistics.median_low(t for t, _ in traced) * 1000 - plain_ms,
    })
    kernel_rows, mismatches = [], []
    if not pure:
        kernel_rows, mismatches = tracing.kernel_section(
            {"pure": kernels.pykernels, "compiled": kernels._ckernels})
    for name in ("pure", "compiled"):
        mine = [r for r in kernel_rows if r["backend"] == name]
        nodes = sum(r["nodes"] for r in mine)
        busy = sum(r["seconds"] for r in mine)
        metrics[f"kernels.bench_{name}_nodes"] = nodes
        metrics[f"kernels.bench_{name}_nodes_per_s"] = nodes / busy if busy else 0.0
    for name in mismatches:
        rows.append({"pass": None, "qid": "kernel-parity: " + name, "backend": "both",
                     "rc": None, "outcome": "wrong", "detail": "pure and compiled differ"})
    samples = {k: len(traced) for k in metrics}
    samples.update({"env.interp_ms": STARTUP_PROBES, "cli.import_ms": STARTUP_PROBES,
                    "graph.power_peak_mb": len(peaks)})
    return ({k: (metrics[k], samples[k]) for k, _ in PER_LAYER}, rows,
            {"spans": spans, "kernel_cases": kernel_rows})


# -- provenance and output ---------------------------------------------------------------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".so":
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(backend: str) -> dict:
    return {"commit": _git_commit(), "source_sha256": _source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "backend": backend}


def print_table(workload: str, units: dict, metrics: dict) -> None:
    print(f"== {workload}: {WHY[workload]}")
    print(f"   {'metric':32} {'value':>16} {'unit':6} samples")
    for name, (value, n) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"   {name:32} {shown:>16} {units.get(name, ''):6} {n}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup_s, dest, env, backend, inputs, queries = setup(run_dir, workload, seed)
        if trace:
            metrics, rows, extra = traced_run(workload, dest, env, backend, inputs, queries,
                                              seconds)
            units = dict(PER_LAYER)
        else:
            repeats = SETUP_REPEATS if workloads.PURE[workload] else BUILD_REPEATS
            metrics, rows = sweep(dest, env, backend, queries, inputs.root, seconds, [setup_s],
                                  lambda: spare_setup(run_dir, workload, seed), repeats)
            extra = {}
            units = dict(END_TO_END, failed_ratio="ratio", host_calibration_ms="ms")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print_table(workload, units, metrics)
    bad = [r for r in rows if r["outcome"] in ("failed", "wrong")]
    for r in {r["qid"]: r for r in bad}.values():
        print(f"   {r['outcome']}: {r['qid']}: {r['detail']}")
    result = {
        "workload": workload, "why": WHY[workload], "seed": seed,
        "seconds": seconds, "trace": trace, "provenance": provenance(backend),
        "metrics": {k: {"value": v, "unit": units.get(k, ""), "samples": n}
                    for k, (v, n) in metrics.items()},
        "rows": rows, **extra,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(results / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}.json", "w") as fh:
        json.dump(result, fh)
    summary = {
        "correct": not any(r["outcome"] == "wrong" for r in rows),
        "attempted": len(rows),
        "failed": len(bad),
    }
    names = PER_LAYER if trace else END_TO_END
    return summary, {k: {"value": metrics[k][0], "unit": u} for k, u in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "topocompat" / "cli.py").is_file():
        print(f"error: no topo-compat source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    if args.trace and len(names) > 1:
        parser.error("--trace 1 replays one workload per process; name it")
    total = {"correct": True, "attempted": 0, "failed": 0}
    metrics = {}
    try:
        for name in names:
            summary, mine = run_workload(name, args.seed, args.seconds, bool(args.trace))
            total["correct"] &= summary["correct"]
            total["attempted"] += summary["attempted"]
            total["failed"] += summary["failed"]
            prefix = "" if len(names) == 1 else name + "."
            metrics.update({prefix + k: v for k, v in mine.items()})
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({**total, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
