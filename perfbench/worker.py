"""One workload in one process: set up, run closed-loop batches, check them.

Started by run.py.  Prints ``SETUP-DONE`` the moment set-up ends (imports,
law and region construction, and one untimed warm-up batch at the
reference seed, checked against references.json), then, unless
``--setup-only``, runs batches back to back for ``--seconds`` and prints one
JSON line with the raw results.

With ``--trace 1`` every batch runs twice, once plain and once under the
tracer, in alternating order; both outputs are checked and must be
identical, and the ratio of their times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import workloads
from layers import LAYERS, Counters, layer_metrics
from tracer import Tracer, median_and_tail

import rwre_lab
from rwre_lab import runtime

MIN_BATCHES = 11  # the tail percentile needs ten batches beyond it
MIN_TRACED_PAIRS = 2  # the traced run reports no batch percentile
HERE = os.path.dirname(os.path.abspath(__file__))
# Nominal time of calibrate(); reported times are wall times rescaled to it.
REFERENCE_CALIBRATION_S = 0.04


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter loops and small-array numpy work.

    The host's load changes the speed of everything in this process by up to
    20 % within tens of seconds.  Running this kernel between batches and
    rescaling batch times by REFERENCE_CALIBRATION_S / its mean time cancels
    that drift; it cannot cancel a change in the program, which the kernel
    does not call.  Each batch time is rescaled by the mean of the
    calibrations run just before and just after it.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(250_000):
        s += i * i % 7
    a = np.linspace(1.0, 2.0, 50_000)
    for _ in range(60):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - t0


@dataclass
class Batch:
    index: int
    seconds: float
    digest: str | None  # None when the batch raised
    problems: list
    notes: dict


def run_batch(wl, index: int, seed: int, tracer: Tracer | None = None,
              modules: dict | None = None) -> Batch:
    """Time one batch's program calls; check the outputs outside the timing.

    Every batch starts from a collected heap, so the peak memory of a run
    does not depend on when cyclic garbage from earlier batches was freed.
    """
    gc.collect()
    if tracer is not None:
        tracer.install(modules, extra_namespaces=[rwre_lab])
    error = None
    t0 = time.perf_counter()
    try:
        out = wl.run(seed)
    except Exception as exc:  # a failing batch is counted; the loop goes on
        error = exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    if error is not None:
        last = traceback.extract_tb(error.__traceback__)[-1]
        return Batch(index, dt, None, [f"raised {type(error).__name__}: {error} "
                                       f"({os.path.basename(last.filename)}:{last.lineno})"], {})
    chk = workloads.Checker()
    digest = wl.check(out, chk)
    return Batch(index, dt, digest, chk.problems, chk.notes)


def layer_modules() -> dict:
    return {name: importlib.import_module(f"rwre_lab.{name}") for name in LAYERS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="scratch directory for program output")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    with open(os.path.join(HERE, "references.json")) as fh:
        ref = json.load(fh)[args.workload]
    wl = workloads.WORKLOADS[args.workload](ref, args.out)
    setup = workloads.Checker()
    if hasattr(wl, "check_setup"):
        wl.check_setup(setup)
    warm = wl.run(ref["seed"])
    wl.check(warm, setup)
    wl.check_reference(warm, setup)
    print("SETUP-DONE", flush=True)
    scale = REFERENCE_CALIBRATION_S / statistics.median(calibrate() for _ in range(3))
    print(f"TIME-SCALE {scale!r}", flush=True)
    if args.setup_only:
        return 0
    calibrations = [calibrate()]

    seeds = lambda i: workloads.derive_seed(args.workload, args.seed, i)  # noqa: E731
    batches: list[Batch] = []
    paired: list[tuple[Batch, Batch]] = []
    tracer = counters = None
    if args.trace:
        counters = Counters()
        tracer = Tracer(counters.observers())
        modules = layer_modules()
    t_start = time.perf_counter()
    i = 0
    min_batches = MIN_TRACED_PAIRS if args.trace else MIN_BATCHES
    while time.perf_counter() - t_start < args.seconds or i < min_batches:
        if args.trace:
            first_traced = i % 2 == 1
            runs = {}
            for traced in (first_traced, not first_traced):
                runs[traced] = run_batch(wl, i, seeds(i), tracer if traced else None,
                                         modules if traced else None)
            plain, traced = runs[False], runs[True]
            if plain.digest is not None and traced.digest != plain.digest:
                traced.problems.append("traced output differs from untraced output")
            paired.append((plain, traced))
            batches += [plain, traced]
        else:
            batches.append(run_batch(wl, i, seeds(i)))
            calibrations.append(calibrate())
        i += 1
    timed = list(batches)

    if not args.trace:
        # determinism: the first batch's config and seed again, outside the timing
        again = run_batch(wl, 0, seeds(0))
        if batches[0].digest is not None and again.digest != batches[0].digest:
            again.problems.append("rerun of batch 0 gave different output")
        batches.append(again)

    failed = [b for b in batches if b.problems]
    notes: dict[str, int] = {}
    for b in batches:
        for k, v in b.notes.items():
            notes[k] = notes.get(k, 0) + v
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "unit_per_batch": wl.units,
        "run_problems": setup.problems,
        "attempted": len(batches),
        "failed": len(failed),
        "failures": [{"batch": b.index, "problems": b.problems[:5]} for b in failed[:10]],
        "notes": notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "workers": runtime.worker_count(),
        "libs": library_versions(),
    }
    if args.trace:
        plain_s = sum(p.seconds for p, _ in paired)
        traced_s = sum(t.seconds for _, t in paired)
        result["layers"] = layer_metrics(tracer, counters, wl.units * len(paired),
                                         runtime.worker_count(), traced_s, plain_s)
        certified = result["layers"]["exact_solver.certified_frac"]
        if getattr(wl, "exact_solves", False) and certified != 1.0:
            result["run_problems"].append(f"certified_frac {certified!r} != 1")
        result["spans"] = tracer.span_count()
        result["spans_file"] = write_spans(tracer, args.out)
    else:
        wall = [b.seconds for b in timed]
        times = [w * 2 * REFERENCE_CALIBRATION_S / (c0 + c1)
                 for w, c0, c1 in zip(wall, calibrations, calibrations[1:])]
        done = sum(b.digest is not None for b in timed)
        result["time_scale"] = sum(times) / sum(wall)
        result["batch_wall_seconds"] = wall
        result["calibration_seconds"] = calibrations
        result["env_per_s"] = wl.units * done / sum(times)
        result["env_per_s_wall"] = wl.units * done / sum(wall)
        result["batches"] = median_and_tail(times)
    print(json.dumps(result), flush=True)
    return 0


def library_versions() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def write_spans(tracer: Tracer, out_dir: str) -> str:
    path = os.path.join(out_dir, "spans.npz")
    np.savez(path, names=np.array(tracer.names),
             name_id=np.frombuffer(tracer.name_ids, dtype=np.int32),
             parent=np.frombuffer(tracer.parents, dtype=np.int32),
             start_ns=np.frombuffer(tracer.starts, dtype=np.int64),
             end_ns=np.frombuffer(tracer.ends, dtype=np.int64))
    return path


if __name__ == "__main__":
    sys.exit(main())
