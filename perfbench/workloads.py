"""The four closed-loop workloads and their output checks.

Each workload is a sequence of batches; a batch is one call (or a fixed
pair of calls) into public entry points with fresh seeds derived from the
workload seed.  `run` holds only calls into the program and is what the
benchmark times; `check` inspects the outputs afterwards and returns a
digest used to compare repeated runs of the same batch.

Tolerances are pinned here or in references.json and never calibrated at
run time.  Statistical checks compare an estimate with a pinned reference
mean using a pinned per-sample standard deviation, so a walker or solver
with a different random-number layout still passes when it is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import rwre_lab as rl
from rwre_lab import ballisticity as bal
from rwre_lab import cli
from rwre_lab import exact_solver as es
from rwre_lab import kalikow as kal
from rwre_lab import monte_carlo as mc

Z = 6.0  # standard errors allowed by every statistical check


def derive_seed(*parts) -> int:
    """A 62-bit seed that depends only on its parts."""
    h = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(h[:8], "little") >> 2


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Checker:
    """Collects failed output checks as readable strings."""

    def __init__(self):
        self.problems: list[str] = []
        self.notes: dict[str, int] = {}

    def true(self, what: str, ok) -> bool:
        if not ok:
            self.problems.append(what)
        return bool(ok)

    def close(self, what: str, got, want, abs_tol: float = 0.0, rel_tol: float = 0.0) -> bool:
        got, want = float(got), float(want)
        ok = math.isfinite(got) and abs(got - want) <= abs_tol + rel_tol * abs(want)
        return self.true(f"{what}: {got!r} vs reference {want!r}", ok)

    def within(self, what: str, got, mean: float, sd: float, n: int, ref_se: float = 0.0) -> bool:
        """|got - mean| <= Z * sqrt(sd^2 / n + ref_se^2)."""
        allowed = Z * math.sqrt(sd * sd / n + ref_se * ref_se)
        got = float(got)
        ok = math.isfinite(got) and abs(got - mean) <= allowed
        return self.true(f"{what}: {got!r} vs {mean!r} +- {allowed:.3g}", ok)


# ---------------------------------------------------------------------------


class HalfSpaceD2:
    """Criterion-5 shape: Kalikow drift at the origin of six half-spaces."""

    name = "halfspace-d2"
    exact_solves = True  # the traced run requires every solve certified
    N_LIST = (10, 20, 30)
    # Each call also builds six region patterns and solves six SSRW reference
    # systems; 40 environments keep that fixed work near 2 % of a batch.
    N_ENV = 40
    RHO = 0.5

    def __init__(self, ref: dict, out_dir: str):
        self.ref = ref
        self.law = rl.SignedAxisKickLaw(2, 0.05, lambda_shift=1e-5)
        self.units = self.N_ENV * 2 * len(self.N_LIST)  # environment x region

    def run(self, seed: int):
        return kal.theorem3_experiment(self.law, self.RHO, N_list=self.N_LIST,
                                       n_env=self.N_ENV, seed=seed)

    @staticmethod
    def summary(rep) -> list:
        return [{"sign": r.sign, "N": r.N, "n_sites": r.n_sites,
                 "drift": [float(v) for v in r.drift], "se": [float(v) for v in r.se],
                 "den_mean": r.den_mean, "g0_origin": r.g0_origin} for r in rep.rows]

    def check(self, rep, chk: Checker) -> str:
        rows = self.summary(rep)
        layout = [(s, N) for s in (1, -1) for N in self.N_LIST]
        if not chk.true("row layout", [(r["sign"], r["N"]) for r in rows] == layout):
            return digest(rows)
        for r, ref in zip(rows, self.ref["stats"]):
            tag = f"U{'+' if r['sign'] > 0 else '-'} N={r['N']}"
            chk.true(f"{tag} n_sites {r['n_sites']}", r["n_sites"] == ref["n_sites"])
            chk.close(f"{tag} g0_origin", r["g0_origin"], ref["g0_origin"],
                      rel_tol=self.ref["tol"]["rel"])
            for k in range(2):
                chk.within(f"{tag} drift[{k}]", r["drift"][k], ref["drift"][k],
                           ref["sd"][k], self.N_ENV, ref["se"][k])
        return digest(rows)

    def check_reference(self, rep, chk: Checker) -> None:
        tol = self.ref["tol"]
        for r, want in zip(self.summary(rep), self.ref["canary"]["rows"]):
            tag = f"reference batch U{'+' if r['sign'] > 0 else '-'} N={r['N']}"
            for key in ("den_mean", "g0_origin"):
                chk.close(f"{tag} {key}", r[key], want[key], rel_tol=tol["rel"])
            for key in ("drift", "se"):
                for k in range(2):
                    chk.close(f"{tag} {key}[{k}]", r[key][k], want[key][k], abs_tol=tol["abs"])


class SlabD3:
    """Criterion-6 shape: mean slab drift operator, d=3, n=33800 per system."""

    name = "slab-d3"
    exact_solves = True
    L, W = 4, 32
    N_ENV = 16  # the per-call 33800-site pattern build stays near 3 % of a batch

    def __init__(self, ref: dict, out_dir: str):
        self.ref = ref
        self.law = rl.SignedAxisKickLaw(3, 0.005, lambda_shift=0.05)
        self.units = self.N_ENV  # environments

    def run(self, seed: int):
        return bal.mean_drift_green_check(self.law, self.L, self.W, self.N_ENV, seed)

    def check(self, stats, chk: Checker) -> str:
        samples = [float(v) for v in stats.distribution.samples]
        chk.true(f"sample count {len(samples)}", len(samples) == self.N_ENV)
        chk.true("samples finite", all(math.isfinite(v) for v in samples))
        chk.close("bound (2/5) d lambda L^2", stats.bound, 0.96, abs_tol=1e-12)
        st = self.ref["stats"]
        chk.within("mean drift operator", stats.mean, st["mean"], st["sd"], self.N_ENV, st["se"])
        return digest(samples)

    def check_reference(self, stats, chk: Checker) -> None:
        want = self.ref["canary"]["samples"]
        got = list(stats.distribution.samples)
        if chk.true("reference batch sample count", len(got) == len(want)):
            for i, (g, w) in enumerate(zip(got, want)):
                chk.close(f"reference batch sample {i}", g, w, abs_tol=self.ref["tol"]["abs"])


class AnnealedWalks:
    """Criteria 9-10 shape: annealed walks, one fresh environment per walk."""

    name = "annealed-walks"
    M_KICK = 3
    N_PER_SITE = 10
    KICK_VELOCITY = (500, 8)      # steps, walks
    PM_VELOCITY = (2000, 200)
    N_SHIFTED = 400

    def __init__(self, ref: dict, out_dir: str):
        self.ref = ref
        self.kick = rl.SignedAxisKickLaw(2, 0.02, lambda_shift=0.03)
        self.pm = rl.PointMassLaw([0.30, 0.20, 0.25, 0.25])
        self.shifted = rl.build_shifted_law(rl.ssrw_law(2), 0.1)
        self.box2 = rl.BallisticityBox(2, 2)
        self.n_starts = 1 + rl.BallisticityBox(self.M_KICK, 2).star_array().shape[0]
        self.units = (self.n_starts * self.N_PER_SITE + self.KICK_VELOCITY[1]
                      + self.PM_VELOCITY[1] + self.N_SHIFTED)  # walks
        # exact references for the two deterministic legs
        w = self.pm.weights
        self.pm_velocity = float(w[0] - w[1])
        self.pm_step_sd = math.sqrt(w[0] + w[1] - self.pm_velocity ** 2)
        env = rl.sample_environment(self.shifted, seed=0)
        dist = es.exit_distribution(env, self.box2, (0, 0), tol=1e-12)
        self.shifted_exact = dist.class_mass(rl.ExitClass.OTHER)

    def check_setup(self, chk: Checker) -> None:
        chk.close("shifted-SSRW non-frontal exit probability (exact solve)",
                  self.shifted_exact, self.ref["shifted_exact"], abs_tol=1e-9)

    def run(self, seed: int):
        return {
            "probe": bal.condition_p_probe(self.kick, self.M_KICK, n_per_site=self.N_PER_SITE,
                                           seed=derive_seed(seed, "probe")),
            "kick_velocity": mc.estimate_velocity(self.kick, *self.KICK_VELOCITY,
                                                  seed=derive_seed(seed, "kick")),
            "pm_velocity": mc.estimate_velocity(self.pm, *self.PM_VELOCITY,
                                                seed=derive_seed(seed, "pm")),
            "shifted_exit": mc.annealed_event_probability(
                self.shifted, self.box2, (0, 0), mc.EVENT_EXIT_NOT_FRONTAL,
                self.N_SHIFTED, derive_seed(seed, "shifted")),
        }

    def check(self, out: dict, chk: Checker) -> str:
        probe = out["probe"]
        st = self.ref["stats"]
        starts = probe.starts
        chk.true(f"probe start count {len(starts)}", len(starts) == self.n_starts)
        chk.true("probe walks per start", all(s.n == self.N_PER_SITE for s in starts))
        chk.close("log M0(d=2)", probe.log_m0_value, 134.5928, abs_tol=1e-3)
        chk.true("probe below M0", probe.below_m0)
        chk.true("threshold exponent 15d+5", probe.threshold_exponent == 35)
        ps = st["probe_star"]
        star_mean = sum(s.p_hat for s in starts[1:]) / (len(starts) - 1)
        chk.within("kick non-frontal exit, core", star_mean, ps["p"],
                   math.sqrt(ps["p"] * (1 - ps["p"])), (len(starts) - 1) * self.N_PER_SITE,
                   ps["se"])
        kv = st["kick_velocity"]
        chk.within("kick velocity", out["kick_velocity"].mean, kv["mean"], kv["sd"],
                   self.KICK_VELOCITY[1], kv["se"])
        n_steps, n_walks = self.PM_VELOCITY
        chk.within("point-mass velocity vs mean drift", out["pm_velocity"].mean,
                   self.pm_velocity, self.pm_step_sd, n_steps * n_walks)
        p = self.shifted_exact
        chk.within("shifted-SSRW non-frontal exit vs exact", out["shifted_exit"].mean, p,
                   math.sqrt(p * (1 - p)), self.N_SHIFTED)
        return digest({
            "probe": [[list(s.site), s.p_hat, s.hits] for s in starts],
            **{k: [out[k].mean, out[k].se, out[k].n]
               for k in ("kick_velocity", "pm_velocity", "shifted_exit")},
        })

    def check_reference(self, out: dict, chk: Checker) -> None:
        """Walk estimates depend on the walker's random-number layout: no stored values."""


def multi_kick_law(d: int = 2, amplitudes=(0.01, 0.02, 0.03, 0.04), shift: float = 0.03) -> dict:
    """Config for a 16-atom signed-axis kick law with four amplitudes.

    Sixteen atoms put every set of the default eps-k family (five or more
    sites) above the enumeration cap, so every set is estimated from
    n_env sampled environments and the batch cost follows n_env.
    """
    labels = [f"{'+' if k % 2 == 0 else '-'}e{k // 2 + 1}" for k in range(2 * d)]
    support = []
    for a in amplitudes:
        for k in range(2 * d):
            w = [1.0 / (2 * d)] * (2 * d)
            w[k] += a
            w[k ^ 1] -= a
            w[0] += shift / 2
            w[1] -= shift / 2
            support.append({"probability": 1.0 / (len(amplitudes) * 2 * d),
                            "weights": dict(zip(labels, w))})
    return {"family": "empirical", "d": d, "support": support}


class CliKalikow:
    """CLI experiments kalikow-drift (both routes) and eps-k, writing files."""

    name = "cli-kalikow"
    KD_ENV = 400
    EK_ENV = 20
    N_SETS = 50  # size of the default eps-k family in d=2

    def __init__(self, ref: dict, out_dir: str):
        self.ref = ref
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.kd_config = os.path.join(out_dir, "kalikow-drift.json")
        self.ek_config = os.path.join(out_dir, "eps-k.json")
        with open(self.kd_config, "w") as fh:
            json.dump({"experiment": "kalikow-drift",
                       "law": {"family": "signed_axis_kick", "d": 2, "a": 0.05},
                       "region": {"kind": "box", "lo": [-2, -2], "hi": [2, 2]},
                       "method": "mc", "n_env": self.KD_ENV}, fh)
        with open(self.ek_config, "w") as fh:
            json.dump({"experiment": "eps-k", "law": multi_kick_law(),
                       "n_env": self.EK_ENV}, fh)
        self.kd_out = os.path.join(out_dir, "kalikow-drift")
        self.ek_out = os.path.join(out_dir, "eps-k")
        # environment x region evaluations asked for: two routes, one set family
        self.units = 2 * self.KD_ENV + self.N_SETS * self.EK_ENV

    def run(self, seed: int):
        cli.run("kalikow-drift", self.kd_config, seed=seed, out_dir=self.kd_out)
        cli.run("eps-k", self.ek_config, seed=seed, out_dir=self.ek_out)

    def read_outputs(self) -> dict:
        files = {}
        for sub in (self.kd_out, self.ek_out):
            for name in sorted(os.listdir(sub)):
                with open(os.path.join(sub, name), "rb") as fh:
                    files[f"{os.path.basename(sub)}/{name}"] = fh.read()
        return files

    @staticmethod
    def _csv_rows(data: bytes) -> list[list[str]]:
        lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
        return [ln.split(",") for ln in lines[1:]]

    def check(self, _, chk: Checker) -> str:
        files = self.read_outputs()
        kd = json.loads(files["kalikow-drift/report.json"])
        a, b = kd["definition_route"], kd["formula_route"]
        chk.true("kalikow-drift n_env", kd["n_env"] == self.KD_ENV)
        chk.true("route labels", a["route"] == "definition" and b["route"] == "formula")
        combined = math.hypot(a["se"][0], b["se"][0])
        chk.true(f"routes agree within {Z:g} SE: {a['drift'][0]!r} vs {b['drift'][0]!r}",
                 abs(a["drift"][0] - b["drift"][0]) <= Z * combined)
        if not kd["routes_agree_within_3se"]:
            chk.notes["routes_3se_disagreements"] = chk.notes.get("routes_3se_disagreements", 0) + 1
        rows = self._csv_rows(files["kalikow-drift/kalikow_environment.csv"])
        chk.true(f"kalikow_environment rows {len(rows)}", len(rows) == 25)
        worst = max(abs(sum(float(x) for x in r[2::2]) - 1.0) for r in rows)
        chk.true(f"auxiliary weights sum to 1 (worst {worst:.2e})", worst <= 1e-9)

        ek = json.loads(files["eps-k/report.json"])["eps_k"]
        sets = ek["sets"]
        chk.true("eps-k family", [(s["label"], s["n_sites"]) for s in sets]
                 == [tuple(x) for x in self.ref["family"]])
        chk.true("eps-k values finite and ordered", all(
            math.isfinite(s["min_lcb"]) and s["min_lcb"] <= s["min_estimate"] <= s["min_ucb"]
            for s in sets))
        if all(s["min_lcb"] > 0 for s in sets):
            verdict = "positive-evidence"
        elif any(s["min_ucb"] < 0 for s in sets):
            verdict = "negative-evidence"
        else:
            verdict = "inconclusive"
        chk.true(f"eps-k verdict {ek['verdict']} matches its sets", ek["verdict"] == verdict)
        chk.true("eps_k_sets.csv rows",
                 len(self._csv_rows(files["eps-k/eps_k_sets.csv"])) == len(sets))
        return digest({k: hashlib.sha256(v).hexdigest() for k, v in files.items()})

    def check_reference(self, _, chk: Checker) -> None:
        files = self.read_outputs()
        tol = self.ref["tol"]["abs"]
        want = self.ref["canary"]
        kd = json.loads(files["kalikow-drift/report.json"])
        for route in ("definition_route", "formula_route"):
            for key in ("drift", "se"):
                for k in range(2):
                    chk.close(f"reference batch {route} {key}[{k}]", kd[route][key][k],
                              want[route][key][k], abs_tol=tol)
        sets = json.loads(files["eps-k/report.json"])["eps_k"]["sets"]
        for s, w in zip(sets, want["sets"]):
            for key in ("min_lcb", "min_estimate", "min_ucb"):
                chk.close(f"reference batch {s['label']} {key}", s[key], w[key], abs_tol=tol)


WORKLOADS = {cls.name: cls for cls in (HalfSpaceD2, SlabD3, AnnealedWalks, CliKalikow)}
