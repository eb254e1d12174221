"""Benchmark for rwre-lab: environments processed per second, end to end.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs as one client in one
process (worker.py), calls issued back to back, with RWRE_THREADS unset
(one worker) and one BLAS thread.  With ``--trace 0`` the end-to-end
metrics are printed; with ``--trace 1`` the per-layer metrics from spans
around every public function of the package.  Times are wall times
rescaled by a calibration kernel run between batches (worker.calibrate),
so that the host's changing load cancels; the wall figures are kept in
the record.  The last line of output is one JSON object: correct,
attempted, failed, metrics.  A fuller record, with the machine it ran on,
is written to ``.bench_out/<workload>/result-seed<N>-trace<T>.json``.

This file uses only the standard library; the workers import the package
from ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 3     # set-ups per run; setup_s is their median
CHILD_TIMEOUT = 150   # seconds for all processes of one workload run together

# Workload and metric names, units and directions are declared once, here.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RWRE_THREADS", None)
    blas = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = blas
    env["PYTHONPATH"] = SRC
    return env


def spawn(args: list, deadline: float) -> tuple:
    """Run one worker; return (set-up seconds in reference time, final JSON line).

    Set-up is timed from process start to the worker's SETUP-DONE line and
    rescaled by the TIME-SCALE the worker measures right after it.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    setup_s, scale, last = None, None, None
    try:
        for line in proc.stdout:
            line = line.strip()
            if setup_s is None and line == "SETUP-DONE":
                setup_s = time.perf_counter() - t0
            elif scale is None and line.startswith("TIME-SCALE "):
                scale = float(line.split()[1])
            elif line:
                last = line
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None or scale is None:
        raise BenchError(f"worker {' '.join(args[:2])} exited with code {proc.returncode}")
    return setup_s * scale, last


def source_record() -> dict:
    """Identify the code measured: git commit when available, and a digest of src/."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "blas_threads": int(child_env()["OPENBLAS_NUM_THREADS"]),
        "RWRE_THREADS": "unset",
        **source_record(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    out_dir = os.path.join(ROOT, ".bench_out", name)
    os.makedirs(out_dir, exist_ok=True)
    deadline = time.monotonic() + CHILD_TIMEOUT
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", out_dir]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(args + ["--setup-only"], deadline)[0])
    setup_s, line = spawn(args, deadline)
    setups.append(setup_s)
    raw = json.loads(line)
    raw["setup_samples_s"] = setups
    raw["machine"] = {**machine_record(), **raw.pop("libs")}
    raw["correct"] = not raw["run_problems"] and raw["failed"] == 0
    if trace:
        raw["metrics"] = {m: raw["layers"][m] for m in units_of(trace)}
    else:
        bt = raw["batches"]
        raw["metrics"] = {
            "env_per_s": raw["env_per_s"],
            "batch_p50_s": bt["p50"],
            "batch_tail_s": bt["tail"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": raw["peak_rss_mb"],
            "ok_rate": 1.0 - raw["failed"] / raw["attempted"],
        }
    with open(os.path.join(out_dir, f"result-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(raw, fh, indent=1, sort_keys=True)
    return raw


def units_of(trace: int) -> dict:
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def report(raw: dict, units: dict) -> None:
    moves = {}
    if raw["trace"]:
        sys.path.insert(0, HERE)
        from layers import MOVES as moves
    m = raw["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m.get('numpy')} scipy={m.get('scipy')} blas={m.get('blas')} "
          f"blas_threads={m['blas_threads']} workers={raw['workers']} "
          f"commit={m['git_commit']} src_sha256={m['src_sha256'][:16]}")
    print(f"{raw['workload']} seed={raw['seed']} trace={raw['trace']}: "
          f"{raw['unit_per_batch']} units per batch")
    if "time_scale" in raw:
        print(f"  times in reference seconds: wall x {raw['time_scale']:.4f} on average "
              f"(wall rate {raw['env_per_s_wall']:.6g} 1/s)")
    for name, value in raw["metrics"].items():
        extra = ""
        if name == "batch_tail_s":
            extra = f"  (p{raw['batches']['tail_pct']:.1f} of {raw['batches']['n']} batches)"
        elif name == "setup_s":
            extra = f"  (median of {len(raw['setup_samples_s'])} set-ups)"
        elif name == "ok_rate":
            extra = f"  (error_rate {raw['failed']}/{raw['attempted']})"
        elif name in moves:
            extra = "  (should move {} on {})".format(*moves[name])
        print(f"  {name:<40} {value:>14.6g} {units[name]}{extra}")
    print(f"  checks: {'all passed' if raw['correct'] else 'FAILED'}"
          + "".join(f"; {k}={v}" for k, v in raw["notes"].items()))
    for p in raw["run_problems"]:
        print(f"    run: {p}")
    for f in raw["failures"]:
        print(f"    batch {f['batch']}: {'; '.join(f['problems'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rwre_lab", "__init__.py")):
        print(f"error: no rwre_lab package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    units = units_of(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            raw = run_workload(name, args.seed, args.seconds, args.trace)
            report(raw, units)
            results.append(raw)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    single = len(results) == 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(n if single else f"{r['workload']}/{n}"): {"value": v, "unit": units[n]}
                    for r in results for n, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
