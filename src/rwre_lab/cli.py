"""Reproducible experiment runner.

Usage:
    rwre-lab <experiment> --config cfg.json [--seed N] [--out DIR]
    rwre-lab summary report.json [report.json ...]

The config file is the source of truth for every run; the only flag
overrides are the seed and the output directory.  Every output file echoes
the config hash and seed, and reruns of the same config are byte-identical
regardless of worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import ballisticity as bal
from . import kalikow as kal
from . import monte_carlo as mc
from .env_model import (
    SignedAxisKickLaw,
    check_k_conditions,
    law_from_dict,
    law_moments,
)
from .exact_solver import _exit_distribution, _green_table, build_system, green_operator
from .lattice import build_region
from .reporting import config_hash, read_json, write_csv, write_json, write_plotdata


class ConfigError(ValueError):
    pass


_REQUIRED = object()


def _get(cfg: dict, key: str, convert=lambda value: value, default=_REQUIRED):
    """convert(cfg[key]), or default where the key is absent.  A missing key
    without a default, or a value that convert rejects with a TypeError or
    ValueError, is a ConfigError naming the key."""
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"config is missing required key {key!r}")
        return default
    try:
        return convert(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r} has an invalid value {cfg[key]!r}: {exc}") \
            from None


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error in {path} at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}")
    return _object(f"config {path}", cfg)


def _object(what: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _descriptor(what: str, spec, build):
    """build(spec) for a law or region descriptor; a descriptor that is not
    a JSON object, or lacks a key, is a ConfigError."""
    _object(f"{what} descriptor", spec)
    try:
        return build(spec)
    except KeyError as exc:
        raise ConfigError(f"{what} descriptor is missing required key {exc.args[0]!r}") from None


def _law(cfg: dict):
    law = _descriptor("law", _get(cfg, "law"), law_from_dict)
    if law.d < 2:
        raise ConfigError("model requires d >= 2")
    return law


def _region(cfg: dict, d: int):
    return _descriptor("region", _get(cfg, "region"),
                       lambda spec: build_region(spec["kind"], spec, d))


class _Run:
    """Collects report payload and tables for one experiment run."""

    def __init__(self, kind: str, cfg: dict, seed: int, out_dir: str):
        self.kind = kind
        self.cfg = cfg
        self.seed = seed
        self.out_dir = out_dir
        self.hash = config_hash({**cfg, "seed": seed})
        self.report = {
            "experiment": kind,
            "seed": seed,
            "config_hash": self.hash,
        }
        self.meta = f"config_hash={self.hash} seed={seed}"

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def plotdata(self, name: str, xs, ys):
        write_plotdata(self.path(name), xs, ys, meta=self.meta)

    def finish(self) -> str:
        path = self.path("report.json")
        write_json(path, self.report)
        return path


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def _run_moments(run: _Run):
    law = _law(run.cfg)
    mom = law_moments(law)
    run.report["law"] = law.to_dict()
    run.report["moments"] = mom.to_dict()
    if "rho" in run.cfg:
        rep = check_k_conditions(law, _get(run.cfg, "rho", float),
                                 _get(run.cfg, "eps0", float, 0.5))
        run.report["k_conditions"] = rep.to_dict()


def _run_green(run: _Run):
    law = _law(run.cfg)
    region = _region(run.cfg, law.d)
    x = _get(run.cfg, "source", tuple, (0,) * law.d)
    tol = _get(run.cfg, "tol", float, 1e-10)
    env_seed = _get(run.cfg, "env_seed", int, run.seed)
    from .env_model import sample_environment
    env = sample_environment(law, seed=env_seed)
    system = build_system(env, region)
    table = _green_table(system, x, tol, "auto")
    table.to_csv(run.path("green_row.csv"), meta=run.meta)
    dist = _exit_distribution(system, region, table)
    dist.to_csv(run.path("exit_distribution.csv"), meta=run.meta)
    ones = np.ones(region.interior_count())
    run.report.update({
        "law": law.to_dict(),
        "region": region.descriptor(),
        "source": list(x),
        "env_seed": env_seed,
        "green_at_source": table.value_at(x),
        "green_total": table.total(),
        "achieved_tol": table.achieved_tol,
        "exit_total_mass": dist.total(),
        "frontal_mass": dist.frontal_mass() if region.has_frontal else None,
        "green_operator_ones": green_operator(env, region, ones, x, tol=tol),
    })


def _run_kalikow_drift(run: _Run):
    law = _law(run.cfg)
    region = _region(run.cfg, law.d)
    x = _get(run.cfg, "x", tuple, (0,) * law.d)
    y = _get(run.cfg, "y", tuple, (0,) * law.d)
    n_env = _get(run.cfg, "n_env", int, 2000)
    method = run.cfg.get("method", "auto")
    kenv = kal.kalikow_environment(law, region, x, n_env=n_env,
                                   seed=run.seed, method=method)
    rep_def = kenv.drift_report(y)
    rep_form = kal.kalikow_drift_formula(law, region, x, y, n_env=n_env,
                                         seed=run.seed + 1, method=method)
    kenv.to_csv(run.path("kalikow_environment.csv"), meta=run.meta)
    run.report.update({
        "law": law.to_dict(),
        "region": region.descriptor(),
        "x": list(x), "y": list(y), "n_env": n_env,
        "definition_route": rep_def.to_dict(),
        "formula_route": rep_form.to_dict(),
        "routes_agree_within_3se": bool(
            abs(rep_def.drift_e1 - rep_form.drift_e1)
            <= 3 * float(np.hypot(rep_def.se[0], rep_form.se[0])) + 1e-9),
    })


def _eps_k_family(cfg: dict) -> kal.EpsKFamilySpec:
    fam = _object("family", cfg.get("family", {}))
    return kal.EpsKFamilySpec(
        box_k_max=_get(fam, "box_k_max", int, 3),
        slab_L_max=_get(fam, "slab_L_max", int, 4),
        halfspace_N_max=_get(fam, "halfspace_N_max", int, 8),
        n_clusters=_get(fam, "n_clusters", int, 15),
        cluster_size_cap=_get(fam, "cluster_size_cap", int, 20),
        cluster_seed=_get(fam, "cluster_seed", int, 12345),
    )


def _run_eps_k(run: _Run):
    law = _law(run.cfg)
    n_env = _get(run.cfg, "n_env", int, 800)
    report = kal.estimate_eps_k(law, _eps_k_family(run.cfg),
                                n_env=n_env, seed=run.seed)
    report.to_csv(run.path("eps_k_sets.csv"), meta=run.meta)
    run.report.update({"law": law.to_dict(), "eps_k": report.to_dict()})


def _run_theorem2(run: _Run):
    law = _law(run.cfg)
    mom = law_moments(law)
    threshold = 4 * law.d * mom.sigma2 * (1 + 9 * mom.eps)
    n_env = _get(run.cfg, "n_env", int, 800)
    probe = kal.estimate_eps_k(law, _eps_k_family(run.cfg),
                               n_env=n_env, seed=run.seed)
    probe.to_csv(run.path("eps_k_sets.csv"), meta=run.meta)
    run.report.update({
        "law": law.to_dict(),
        "moments": mom.to_dict(),
        "drift_threshold": threshold,
        "drift_exceeds_threshold": bool(mom.lam > threshold),
        "eps_k": probe.to_dict(),
        "verdict": probe.verdict,
    })


def _run_theorem3(run: _Run):
    law = _law(run.cfg)
    report = kal.theorem3_experiment(
        law, _get(run.cfg, "rho", float),
        N_list=_get(run.cfg, "N_list", tuple, (10, 20, 30)),
        n_env=_get(run.cfg, "n_env", int, 4000),
        seed=run.seed,
        eps0=_get(run.cfg, "eps0", float, 0.5),
        force=_get(run.cfg, "force", bool, False),
    )
    report.to_csv(run.path("halfspace_drift.csv"), meta=run.meta)
    run.report.update({"law": law.to_dict(), "theorem3": report.to_dict()})


def _run_condition_p(run: _Run):
    law = _law(run.cfg)
    Ms = _get(run.cfg, "M_list", lambda v: [int(M) for M in v or ()], None) \
        or [_get(run.cfg, "M", int)]
    n_per_site = _get(run.cfg, "n_per_site", int, 10000)
    site_cap = _get(run.cfg, "site_cap", int, 64)
    reports = []
    for j, M in enumerate(Ms):
        rep = bal.condition_p_probe(law, M, n_per_site=n_per_site,
                                    site_cap=site_cap,
                                    seed=run.seed if len(Ms) == 1 else run.seed + j)
        reports.append(rep)
        suffix = "" if len(Ms) == 1 else f"_M{M}"
        rep.to_csv(run.path(f"condition_p_starts{suffix}.csv"), meta=run.meta)
    run.plotdata("exit_probability_vs_M.txt",
                 [r.M for r in reports], [r.sup_estimate for r in reports])
    run.report.update({
        "law": law.to_dict(),
        "probes": [r.to_dict() for r in reports],
    })


def _run_prop31(run: _Run):
    law = _law(run.cfg)
    stats = bal.mean_drift_green_check(
        law, _get(run.cfg, "L", int), _get(run.cfg, "W", int),
        _get(run.cfg, "n_env", int, 500), seed=run.seed)
    if stats.distribution is not None:
        stats.distribution.to_csv(run.path("drift_green_samples.csv"), meta=run.meta)
    run.report.update({"law": law.to_dict(), "drift_green": stats.to_dict()})


def _run_fluctuations(run: _Run):
    base = _object("law descriptor", _get(run.cfg, "law"))
    if base.get("family") != "signed_axis_kick":
        raise ConfigError("fluctuation scans sweep the signed_axis_kick amplitude")
    d = _get(base, "d", int)
    shift = _get(base, "lambda_shift", float, 0.0)
    amplitudes = _get(run.cfg, "amplitudes", lambda v: [float(a) for a in v])
    scan = bal.fluctuation_scan(
        lambda a: SignedAxisKickLaw(d, a, shift), amplitudes,
        _get(run.cfg, "L", int), _get(run.cfg, "W", int),
        _get(run.cfg, "n_env", int, 2000), _get(run.cfg, "alpha", float, 2.0 / 3.0),
        seed=run.seed)
    scan.to_csv(run.path("fluctuation_scan.csv"), meta=run.meta)
    run.plotdata("variance_vs_amplitude.txt",
                 [r.amplitude for r in scan.rows], [r.variance for r in scan.rows])
    run.report.update({"fluctuations": scan.to_dict()})


def _run_rho(run: _Run):
    law = _law(run.cfg)
    # absent or null: derived from the law
    scales = {key: _get(run.cfg, key, lambda v: v if v is None else int(v), None)
              for key in ("L", "lateral_cap", "subgrid_halfwidth", "slab_W")}
    stats = bal.rho_statistics(
        law, _get(run.cfg, "theta", float), _get(run.cfg, "eta", float),
        _get(run.cfg, "n_env", int, 100), seed=run.seed, **scales,
        allow_subsample=_get(run.cfg, "allow_subsample", bool, True))
    stats.to_csv(run.path("rho_samples.csv"), meta=run.meta)
    run.report.update({"law": law.to_dict(), "rho": stats.to_dict()})


def _run_velocity(run: _Run):
    law = _law(run.cfg)
    est = mc.estimate_velocity(law, _get(run.cfg, "n_steps", int),
                               _get(run.cfg, "n_walks", int), seed=run.seed)
    mom = law_moments(law)
    b2_radius = (4 * law.d + 1) * mom.sigma2
    run.report.update({
        "law": law.to_dict(),
        "velocity": est.to_dict(),
        "lambda": mom.lam,
        "b2_radius": b2_radius,
        "within_b2_bound": bool(abs(est.mean - mom.lam) <= b2_radius + 4 * est.se),
    })


def _run_freedman(run: _Run):
    points = _get(run.cfg, "points", list, [])
    bounds = []
    for p in points:
        p = _object("freedman point", p)
        row = {k: _get(p, k, float) for k in ("u", "b", "sum_v2")}
        bounds.append({**row, "bound": bal.freedman_bound(**row)})
    if bounds:
        write_csv(run.path("freedman_bounds.csv"), list(bounds[0]),
                  [row.values() for row in bounds], meta=run.meta)
    run.report["bounds"] = bounds
    tail = run.cfg.get("tail_test")
    if tail:
        tail = _object("tail_test", tail)
        rep = bal.martingale_tail_test(
            tail.get("increment", "plusminus"), _get(tail, "n", int),
            _get(tail, "u_grid", lambda v: [float(u) for u in v]), _get(tail, "n_paths", int),
            seed=run.seed, b=_get(tail, "b", float, 1.0))
        rep.to_csv(run.path("martingale_tails.csv"), meta=run.meta)
        run.report["tail_test"] = rep.to_dict()


_RUNNERS = {
    "moments": _run_moments,
    "green": _run_green,
    "kalikow-drift": _run_kalikow_drift,
    "eps-k": _run_eps_k,
    "theorem2": _run_theorem2,
    "theorem3": _run_theorem3,
    "condition-p": _run_condition_p,
    "prop31": _run_prop31,
    "fluctuations": _run_fluctuations,
    "rho": _run_rho,
    "velocity": _run_velocity,
    "freedman": _run_freedman,
}
EXPERIMENTS = tuple(_RUNNERS)


def run(kind: str, config_path: str, seed: int | None = None,
        out_dir: str | None = None) -> str:
    """Execute one experiment; returns the report path."""
    cfg = _load_config(config_path)
    declared = cfg.get("experiment")
    if declared is not None and declared != kind:
        raise ConfigError(
            f"config declares experiment {declared!r} but {kind!r} was requested")
    use_seed = int(seed) if seed is not None else _get(cfg, "seed", int, 0)
    use_out = out_dir or cfg.get("out") or os.path.join("out", kind)
    runner = _RUNNERS[kind]
    r = _Run(kind, cfg, use_seed, use_out)
    runner(r)
    return r.finish()


# ---------------------------------------------------------------------------
# Summary
# ---------------------------------------------------------------------------


def _summary_line(report: dict) -> str:
    kind = report.get("experiment", "?")
    if kind == "moments":
        m = report["moments"]
        return (f"eps={m['eps']:.6g} sigma2={m['sigma2']:.6g} "
                f"lambda={m['lambda']:.6g}")
    if kind == "green":
        return (f"g(x,x)={report['green_at_source']:.9g} "
                f"sum={report['green_total']:.9g} "
                f"frontal={report['frontal_mass']}")
    if kind == "kalikow-drift":
        a = report["definition_route"]["drift"][0]
        b = report["formula_route"]["drift"][0]
        agree = "agree" if report["routes_agree_within_3se"] else "DISAGREE"
        return f"drift.e1 definition={a:.6g} formula={b:.6g} ({agree})"
    if kind in ("eps-k", "theorem2"):
        probe = report["eps_k"]
        line = (f"min drift.e1 LCB={probe['global_min_lcb']:.6g} over "
                f"{len(probe['sets'])} sets -> {probe['verdict']}")
        if kind == "theorem2":
            m = report["moments"]
            line = (f"lambda={m['lambda']:.4g} vs 4*d*sigma2*(1+9*eps)="
                    f"{report['drift_threshold']:.4g} -> "
                    f"Kalikow evidence: "
                    f"{'positive' if report['verdict'] == 'positive-evidence' else report['verdict']}"
                    f" | {line}")
        return line
    if kind == "theorem3":
        t = report["theorem3"]
        rows = t["rows"]
        last = {r["sign"]: r for r in rows if r["N"] == max(x["N"] for x in rows)}
        return (f"drift.e1 U+={last[1]['drift'][0]:+.3e} "
                f"U-={last[-1]['drift'][0]:+.3e} -> {t['verdict']}")
    if kind == "condition-p":
        parts = []
        for p in report["probes"]:
            parts.append(
                f"M={p['M']}: sup={p['sup_estimate']:.4g} vs threshold "
                f"M^-{p['threshold_exponent']} -> {p['verdict']}"
                f" (log_M0={p['log_m0']:.4f}, below M0: {p['below_m0']})")
        return "; ".join(parts)
    if kind == "prop31":
        g = report["drift_green"]
        ok = "holds" if g["bound_holds_with_ci"] else "FAILS"
        return (f"mean={g['mean']:.4g} lower_cb={g['lower_cb']:.4g} vs "
                f"bound={g['bound']:.4g} -> {ok}")
    if kind == "fluctuations":
        f = report["fluctuations"]
        return (f"variance slope={f['slope']:.3f} ratios="
                f"{[round(r, 2) for r in f['ratios']]} c_alpha={f['c_alpha']:.4g}")
    if kind == "rho":
        r = report["rho"]
        return (f"L={r['L']} M={r['M']} lambda0={r['lambda0']:.4g} "
                f"q_mean={r['q_mean']:.4g} rho_hat_max={r['rho_hat_max']:.4g} "
                f"p_hat={r['p_hat']:.4g}")
    if kind == "velocity":
        v = report["velocity"]
        ok = "within" if report["within_b2_bound"] else "OUTSIDE"
        return (f"v.e1={v['mean']:.6g} (se {v['se']:.2g}) vs lambda="
                f"{report['lambda']:.6g}, {ok} drift+variance bound")
    if kind == "freedman":
        n = len(report.get("bounds", []))
        tail = report.get("tail_test")
        msg = f"{n} bound value(s)"
        if tail:
            msg += f"; tails within bound: {tail['all_within']}"
        return msg
    return "(no summary)"


def emit_summary(report_paths: list[str], stream=None) -> None:
    """Print a one-line verdict per report file."""
    stream = stream or sys.stdout
    if not report_paths:
        raise ConfigError("no report files given")
    rows = []
    for path in report_paths:
        try:
            report = read_json(path)
        except FileNotFoundError:
            raise ConfigError(f"report file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"corrupt report file {path}: {exc.msg}")
        rows.append((report.get("experiment", "?"), report.get("seed", "?"),
                     report.get("config_hash", "?"), _summary_line(report)))
    width = max(len(r[0]) for r in rows)
    for kind, seed, hsh, line in rows:
        stream.write(f"{kind:<{width}}  seed={seed}  cfg={hsh}  {line}\n")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwre-lab",
        description="Random-walk-in-random-environment numerical laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENTS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    s = sub.add_parser("summary", help="summarize report files")
    s.add_argument("reports", nargs="+", help="report.json paths")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "summary":
            emit_summary(args.reports)
        else:
            path = run(args.command, args.config, seed=args.seed, out_dir=args.out)
            print(f"report written to {path}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
