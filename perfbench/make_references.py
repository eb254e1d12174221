"""Regenerate references.json: reference-batch outputs and pinned statistics.

    PYTHONPATH=src python3 perfbench/make_references.py

Takes about five minutes on two cores.  The reference batch of each
workload is its warm-up batch; for the exact-solve and environment-seeded
workloads its outputs are stored and compared to tolerances derived from
the solver tolerance.  The statistics (reference means, per-sample standard
deviations and the standard error of each reference mean) come from long
runs at seeds used nowhere else.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as W  # noqa: E402
from rwre_lab import ballisticity as bal  # noqa: E402
from rwre_lab import kalikow as kal  # noqa: E402
from rwre_lab import monte_carlo as mc  # noqa: E402
import rwre_lab as rl  # noqa: E402

N_HALFSPACE = 2000
N_SLAB = 300
N_WALKS_EXIT = 40000
N_WALKS_VELOCITY = 2000


def ref_seed(name: str) -> int:
    return W.derive_seed("reference", name)


def stats_seed(name: str, leg: str = "") -> int:
    return W.derive_seed("reference-stats", name, leg)


def halfspace(out_dir: str) -> dict:
    wl = W.HalfSpaceD2({}, out_dir)
    seed = ref_seed(wl.name)
    big = kal.theorem3_experiment(wl.law, wl.RHO, N_list=wl.N_LIST, n_env=N_HALFSPACE,
                                  seed=stats_seed(wl.name))
    root_n = math.sqrt(N_HALFSPACE)
    return {
        "seed": seed,
        "note": ("per-environment Green values are certified to l1 residual 1e-9, which "
                 "bounds their relative error by 1e-9; drift[1] is 0 by e2-reflection symmetry"),
        "tol": {"rel": 1e-8, "abs": 1e-8},
        "canary": {"rows": wl.summary(wl.run(seed))},
        "stats": [{"sign": r.sign, "N": r.N, "n_sites": r.n_sites, "g0_origin": r.g0_origin,
                   "drift": [float(r.drift[0]), 0.0], "se": [float(r.se[0]), 0.0],
                   "sd": [float(r.se[0]) * root_n, float(r.se[1]) * root_n]}
                  for r in big.rows],
    }


def slab(out_dir: str) -> dict:
    wl = W.SlabD3({}, out_dir)
    seed = ref_seed(wl.name)
    big = bal.mean_drift_green_check(wl.law, wl.L, wl.W, N_SLAB, stats_seed(wl.name))
    sd = float(np.std(big.distribution.samples, ddof=1))
    return {
        "seed": seed,
        "note": ("linf residual 1e-10 times the expected exit time (< 100 steps) bounds "
                 "the error of each sample well below tol"),
        "tol": {"abs": 1e-7},
        "canary": {"samples": [float(v) for v in wl.run(seed).distribution.samples]},
        "stats": {"mean": big.mean, "sd": sd, "se": sd / math.sqrt(N_SLAB), "n": N_SLAB},
    }


def annealed(out_dir: str) -> dict:
    wl = W.AnnealedWalks({}, out_dir)
    box = rl.BallisticityBox(wl.M_KICK, 2)
    start = (wl.M_KICK - 1, 0)
    est = mc.annealed_event_probability(wl.kick, box, start, mc.EVENT_EXIT_NOT_FRONTAL,
                                        N_WALKS_EXIT, stats_seed(wl.name, "probe_star"))
    stats = {"probe_star": {"p": est.mean, "se": est.se, "n": est.n, "start": list(start)}}
    v = mc.estimate_velocity(wl.kick, wl.KICK_VELOCITY[0], N_WALKS_VELOCITY,
                             stats_seed(wl.name, "velocity"))
    stats["kick_velocity"] = {"mean": v.mean, "sd": v.se * math.sqrt(v.n), "se": v.se,
                              "n": v.n, "n_steps": wl.KICK_VELOCITY[0]}
    return {
        "seed": ref_seed(wl.name),
        "note": ("every core start of the M=3 box is 600+ sites from the lateral faces, "
                 "so all share the non-frontal exit probability of probe_star"),
        "shifted_exact": wl.shifted_exact,
        "stats": stats,
    }


def cli_kalikow(out_dir: str) -> dict:
    wl = W.CliKalikow({}, out_dir)
    seed = ref_seed(wl.name)
    wl.run(seed)
    files = wl.read_outputs()
    kd = json.loads(files["kalikow-drift/report.json"])
    sets = json.loads(files["eps-k/report.json"])["eps_k"]["sets"]
    return {
        "seed": seed,
        "note": "dense LU per sampled environment: differences are roundoff only",
        "tol": {"abs": 1e-9},
        "family": [[s["label"], s["n_sites"]] for s in sets],
        "canary": {
            "definition_route": {k: kd["definition_route"][k] for k in ("drift", "se")},
            "formula_route": {k: kd["formula_route"][k] for k in ("drift", "se")},
            "sets": [{k: s[k] for k in ("label", "min_lcb", "min_estimate", "min_ucb")}
                     for s in sets],
        },
    }


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(here, "references.json")
    scratch = os.path.join(os.path.dirname(here), ".bench_out", "references")
    refs = {}
    for name, fn in (("halfspace-d2", halfspace), ("slab-d3", slab),
                     ("annealed-walks", annealed), ("cli-kalikow", cli_kalikow)):
        refs[name] = fn(os.path.join(scratch, name))
        print(f"{name}: done", flush=True)
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
