"""Kalikow's auxiliary walk, its drift, and the drift-infimum probes.

The auxiliary environment on a finite region B seen from a base point x is
the ratio of environment averages

    w_B^x(y, e) = E[ g_B(x, y, w) w(y, e) ] / E[ g_B(x, y, w) ],

computed here by two independent routes:

* the definition route: Green's-function rows per environment, averaged;
* the formula route: the hitting-time representation, averaging
  w(y,e)/S(y) against 1/S(y) where S(y) = sum_e w(y,e) f(y, y+e, w) and
  f(y, z, w) = P_z(exit before hitting y) / P_x(hit y before exit);
  exterior z contribute f with the exit probability equal to one.  Every
  hitting probability comes from one Green inverse G per environment,
  through the ratio identity P_z(hit y before exit) = G[z, y] / G[y, y].

For finite-support laws on small regions both routes are evaluated exactly
by enumerating every environment restricted to B (the Green's function
depends on the environment only through its restriction to B).  Larger
problems are estimated by Monte Carlo over environments with exact
per-environment solves; ratio estimators share environments between
numerator and denominator and report delta-method standard errors.  Both
routes and the half-space experiment get sampled Green data from
`exact_solver.sampled_solves`, and enumerated environments come in its
batches (`batch_slices`); every solve and certificate is `solve_batch`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import rng
from .env_model import (
    EnvironmentLaw,
    check_k_conditions,
    direction_labels,
    directions,
    law_moments,
    sample_environment,
    ssrw_law,
)
from .exact_solver import (
    batch_size,
    batch_slices,
    green_row,
    region_pattern,
    sampled_solves,
    solve_batch,
)
from .lattice import BoxRegion, HalfSpaceTrunc, Region, SiteSetRegion, SlabRegion
from .reporting import write_csv, write_site_csv

ENUMERATION_CAP = 10 ** 6
DEFAULT_Z = 3.0


class EnumerationBlowupError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Accumulator shared by both routes and both evaluation modes
# ---------------------------------------------------------------------------


class _RatioAccumulator:
    """Pooled weighted moments for ratio estimators over (site, column) cells.

    Per site the columns are the 2d numerators num[y, e], the d drift
    numerators and, last, the denominator den[y].  Each batch is centred on
    its first sample and merged with the pairwise update of Chan, Golub &
    LeVeque, so identical samples give co-moments of exactly 0.  Only each
    column's own co-moment and its co-moment with the denominator are kept:
    the delta-method errors need no cross-column covariances.
    """

    def __init__(self, n_sites: int, d: int):
        self.num_cols = slice(0, 2 * d)
        self.drift_cols = slice(2 * d, 3 * d)
        self.w_total = 0.0
        self.n_samples = 0
        # an empty accumulator merges exactly: the first batch's moments
        # come through the update unchanged
        self.mean, self.m2, self.c_den = np.zeros((3, n_sites, 3 * d + 1))

    def add(self, num, den, weights=None, drift_num=None):
        """num: (B, n, 2d); den: (B, n); weights: (B,) combo probabilities."""
        if drift_num is None:
            drift_num = num[:, :, 0::2] - num[:, :, 1::2]
        x = np.concatenate([num, drift_num, den[:, :, None]], axis=2)
        w = np.ones(x.shape[0]) if weights is None else weights
        w_b = float(w.sum())
        dev = x - x[0]
        shift = np.einsum("b,bsk->sk", w, dev) / w_b
        dev -= shift
        mean = x[0] + shift
        m2 = np.einsum("b,bsk->sk", w, dev * dev)
        c_den = np.einsum("b,bsk->sk", w, dev * dev[:, :, -1:])
        w_all = self.w_total + w_b
        delta = mean - self.mean
        f = self.w_total * w_b / w_all
        self.m2 = self.m2 + m2 + delta * delta * f
        self.c_den = self.c_den + c_den + delta * delta[:, -1:] * f
        self.mean = self.mean + delta * (w_b / w_all)
        self.w_total = w_all
        self.n_samples += x.shape[0]

    @property
    def den(self) -> np.ndarray:
        return self.mean[:, -1]

    def ratio(self, cols: slice) -> tuple[np.ndarray, np.ndarray]:
        """mean(G)/mean(D) for the columns G, with delta-method SEs."""
        d_bar = self.mean[:, -1:]
        r = self.mean[:, cols] / d_bar
        if self.n_samples < 2:
            return r, np.full_like(r, np.nan)
        resid = self.m2[:, cols] - 2 * r * self.c_den[:, cols] + r * r * self.m2[:, -1:]
        resid = np.maximum(0.0, resid / self.w_total)
        return r, np.sqrt(resid / self.n_samples) / np.abs(d_bar)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class KalikowEnv:
    """Auxiliary-walk environment estimates on a region, seen from x."""

    x: tuple
    region: Region
    sites: np.ndarray
    ratios: np.ndarray
    ratio_se: np.ndarray
    drift_vectors: np.ndarray
    drift_se: np.ndarray
    den: np.ndarray
    n: int
    seed: int | None
    route: str
    exact: bool
    notice: str | None = None

    def site_index(self, y) -> int:
        match = np.all(self.sites == np.asarray(y, dtype=np.int64), axis=1)
        idx = np.nonzero(match)[0]
        if idx.size == 0:
            raise KeyError(f"site {tuple(y)} not in region")
        return int(idx[0])

    def ratio(self, y, e_index: int) -> float:
        return float(self.ratios[self.site_index(y), e_index])

    def drift(self, y) -> np.ndarray:
        return self.drift_vectors[self.site_index(y)]

    def drift_report(self, y, z: float = DEFAULT_Z) -> "KalikowDriftReport":
        i = self.site_index(y)
        return KalikowDriftReport(
            y=tuple(int(c) for c in y),
            drift=self.drift_vectors[i].copy(),
            se=self.drift_se[i].copy(),
            n=self.n, seed=self.seed, route=self.route, exact=self.exact, z=z,
        )

    def to_csv(self, path, meta: str | None = None) -> None:
        columns = {}
        for e, lbl in enumerate(direction_labels(self.sites.shape[1])):
            columns[f"w({lbl})"] = self.ratios[:, e].tolist()
            columns[f"se({lbl})"] = self.ratio_se[:, e].tolist()
        write_site_csv(path, "y", self.sites, columns, meta)


@dataclass
class KalikowDriftReport:
    """Drift of the auxiliary walk at one site, with per-component intervals."""

    y: tuple
    drift: np.ndarray
    se: np.ndarray
    n: int
    seed: int | None
    route: str
    exact: bool
    z: float = DEFAULT_Z

    @property
    def drift_e1(self) -> float:
        return float(self.drift[0])

    def to_dict(self) -> dict:
        return {
            "y": list(self.y),
            "drift": [float(v) for v in self.drift],
            "se": [float(v) for v in self.se],
            "n": self.n,
            "route": self.route,
            "exact": self.exact,
            "z": self.z,
        }


# ---------------------------------------------------------------------------
# One batched path: environments -> per-environment Green data
# ---------------------------------------------------------------------------


def _site_atom_tables(law: EnvironmentLaw, sites: np.ndarray):
    if law.homogeneous:
        return [law.support()] * len(sites)
    return [tuple(np.asarray(a) for a in law.site_support(tuple(int(c) for c in s)))
            for s in sites]


def _enumeration_size(tables) -> int:
    total = 1
    for probs, _ in tables:
        total *= len(probs)
        if total > 10 * ENUMERATION_CAP:
            return total
    return total


def _green_batches(law, pattern, src: int | None, tol: float, env_seeds=None):
    """Yield (weights, green, probabilities) over batches of environments.

    env_seeds None enumerates every environment restricted to the region
    with its probability, in the `batch_slices` of its combinations;
    otherwise one environment is sampled per seed (`sampled_solves`) and
    probabilities is None.  green holds the certified Green rows g(src, .),
    or the whole inverses G when src is None (`solve_batch`).  A failed
    sampled environment raises FunctionalEvaluationError with its seed; a
    failed enumerated one, BatchSolveError with its batch index.
    """
    rows = src is not None
    b = np.eye(1, pattern.n, src)[0] if rows else None
    if env_seeds is not None:
        for (weights, green), in sampled_solves(law, env_seeds, [(pattern, b, "l1", rows)], tol):
            yield weights, green, None
        return
    tables = _site_atom_tables(law, pattern.interior)
    counts = [len(p) for p, _ in tables]
    for part in batch_slices(math.prod(counts), batch_size(pattern, inverses=not rows)):
        combo = np.unravel_index(np.arange(part.start, part.stop), counts)
        weights = np.empty((len(combo[0]), pattern.n, 2 * pattern.d))
        probs = np.ones(len(combo[0]))
        for i, (p, vecs) in enumerate(tables):
            weights[:, i, :] = vecs[combo[i]]
            probs *= p[combo[i]]
        yield weights, solve_batch(pattern, weights, b, tol, transpose=rows), probs


def _formula_samples(G: np.ndarray, weights: np.ndarray, pattern, src: int):
    """Per-environment formula-route samples from the Green inverses G.

    Returns (num, den) with num[b, y, e] = w(y,e)/S(y) and den[b, y] = 1/S(y),
    where S(y) = sum_e w(y,e) f(y, y+e) and P_z(hit y) = G[z, y] / G[y, y].
    """
    nbr = pattern.nbr
    g_yy = np.diagonal(G, axis1=1, axis2=2)
    hit_from_x = G[:, src, :] / g_yy
    y = np.broadcast_to(np.arange(pattern.n)[:, None], nbr.shape)
    hit_from_nbr = G[:, np.maximum(nbr, 0), y] / g_yy[:, :, None]
    exit_first = np.where(nbr >= 0, 1.0 - hit_from_nbr, 1.0)
    den = hit_from_x / np.einsum("bye,bye->by", weights, exit_first)
    return weights * den[:, :, None], den


# ---------------------------------------------------------------------------
# Main estimators
# ---------------------------------------------------------------------------


def kalikow_environment(law: EnvironmentLaw, region: Region, x,
                        n_env: int = 2000, seed: int = 0,
                        method: str = "auto", route: str = "definition",
                        enumeration_cap: int = ENUMERATION_CAP,
                        tol: float = 1e-10) -> KalikowEnv:
    """Estimate the auxiliary-walk environment on a finite region.

    method "exact" enumerates every environment restricted to the region
    (finite-support laws only), "mc" samples environments; "auto" prefers
    exact and falls back to Monte Carlo when the enumeration would exceed
    enumeration_cap combinations.  route is "definition" or "formula".
    """
    if method not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown method {method!r}; expected 'auto', 'exact' or 'mc'")
    if route not in ("definition", "formula"):
        raise ValueError(f"unknown route {route!r}; expected 'definition' or 'formula'")
    pattern = region_pattern(region)
    src = pattern.source_index(x)
    total = _enumeration_size(_site_atom_tables(law, pattern.interior))
    notice = None
    if method == "auto":
        if total <= enumeration_cap:
            method = "exact"
        else:
            method = "mc"
            notice = (f"enumeration of {total} environment combinations exceeds "
                      f"cap {enumeration_cap}; falling back to Monte Carlo")
    elif method == "exact" and total > enumeration_cap:
        raise EnumerationBlowupError(
            f"{total} combinations exceed enumeration cap {enumeration_cap}")
    if method == "mc" and n_env < 1:
        raise ValueError(f"Monte Carlo needs n_env >= 1, got {n_env}")

    exact = method == "exact"
    env_seeds = None if exact else rng.child_seed(seed, np.arange(n_env)).tolist()
    acc = _RatioAccumulator(pattern.n, pattern.d)
    green_src = src if route == "definition" else None
    for weights, green, probs in _green_batches(law, pattern, green_src, tol, env_seeds):
        if route == "definition":
            acc.add(green[:, :, None] * weights, green, weights=probs)
        else:
            acc.add(*_formula_samples(green, weights, pattern, src), weights=probs)

    if np.any(acc.den <= 0):
        raise RuntimeError(
            "nonpositive Green denominator encountered; uniform ellipticity "
            "should make every E[g] strictly positive")
    ratios, ratio_se = acc.ratio(acc.num_cols)
    drift, drift_se = acc.ratio(acc.drift_cols)
    if exact:
        ratio_se, drift_se = np.zeros_like(ratio_se), np.zeros_like(drift_se)
    return KalikowEnv(
        x=tuple(int(c) for c in x), region=region, sites=pattern.interior,
        ratios=ratios, ratio_se=ratio_se, drift_vectors=drift, drift_se=drift_se,
        den=acc.den, n=acc.n_samples, seed=None if exact else seed,
        route=route, exact=exact, notice=notice,
    )


def kalikow_drift(law: EnvironmentLaw, region: Region, x, y,
                  n_env: int = 2000, seed: int = 0, method: str = "auto",
                  z: float = DEFAULT_Z, tol: float = 1e-10) -> KalikowDriftReport:
    """Auxiliary-walk drift at y via the definition (Green's row) route."""
    kenv = kalikow_environment(law, region, x, n_env=n_env, seed=seed,
                               method=method, route="definition", tol=tol)
    return kenv.drift_report(y, z)


def kalikow_drift_formula(law: EnvironmentLaw, region: Region, x, y,
                          n_env: int = 2000, seed: int = 0, method: str = "auto",
                          z: float = DEFAULT_Z, tol: float = 1e-10) -> KalikowDriftReport:
    """Auxiliary-walk drift at y via the hitting-time formula route."""
    kenv = kalikow_environment(law, region, x, n_env=n_env, seed=seed,
                               method=method, route="formula", tol=tol)
    return kenv.drift_report(y, z)


# ---------------------------------------------------------------------------
# Families of test sets for the drift-infimum probe
# ---------------------------------------------------------------------------


@dataclass
class EpsKFamilySpec:
    """Generator for the finite connected sets scanned by the infimum probe.

    Default family (about 50 sets for d=2): axis-translated centered boxes,
    thin slabs, half-space truncations of both signs, and random connected
    clusters grown from the origin.
    """

    box_k_max: int = 3
    slab_L_max: int = 4
    halfspace_N_max: int = 8
    n_clusters: int = 15
    cluster_size_cap: int = 20
    cluster_seed: int = 12345

    def regions(self, d: int) -> list[tuple[str, Region]]:
        out: list[tuple[str, Region]] = []
        for k in range(1, self.box_k_max + 1):
            for t in range(-k, k + 1):
                lo = [t - k] + [-k] * (d - 1)
                hi = [t + k] + [k] * (d - 1)
                out.append((f"box[k={k},t={t}]", BoxRegion(lo, hi)))
        for L in range(1, self.slab_L_max + 1):
            out.append((f"slab[L={L}]", SlabRegion(L, max(L, 2 * L), d)))
        for N in range(1, self.halfspace_N_max + 1):
            out.append((f"halfspace[+,N={N}]", HalfSpaceTrunc(1, N, d)))
            out.append((f"halfspace[-,N={N}]", HalfSpaceTrunc(-1, N, d)))
        for i in range(self.n_clusters):
            sites = _grow_cluster(d, rng.child_seed(self.cluster_seed, i), self.cluster_size_cap)
            out.append((f"cluster[{i},size={len(sites)}]", SiteSetRegion(sites, d)))
        return out


@functools.lru_cache(maxsize=256)
def _grow_cluster(d: int, seed: int, size_cap: int) -> tuple[tuple, ...]:
    """A random connected cluster of 5 to size_cap sites grown from the origin,
    sorted; a pure function of its arguments, so each cluster grows once."""
    gen = rng.stream_generator(seed)
    target = int(gen.integers(5, size_cap + 1))
    dirs = [tuple(int(c) for c in v) for v in directions(d)]
    cluster = {(0,) * d}
    frontier = set()
    for v in dirs:
        frontier.add(v)
    while len(cluster) < target and frontier:
        pick = sorted(frontier)[int(gen.integers(0, len(frontier)))]
        cluster.add(pick)
        frontier.discard(pick)
        for v in dirs:
            nb = tuple(p + s for p, s in zip(pick, v))
            if nb not in cluster:
                frontier.add(nb)
    return tuple(sorted(cluster))


@dataclass
class EpsKSetResult:
    label: str
    n_sites: int
    min_lcb: float
    min_ucb: float
    min_estimate: float
    argmin_site: tuple
    exact: bool


@dataclass
class EpsKReport:
    """Evidence about the drift infimum over a family of finite sets.

    This is a probe of finitely many sets out of an infinite family:
    positive evidence is not a certification of the infimum.
    """

    sets: list[EpsKSetResult]
    global_min_lcb: float
    global_min_estimate: float
    verdict: str
    n_env: int
    seed: int
    z: float
    disclaimer: str = ("evidence only: the drift infimum ranges over infinitely "
                       "many connected sets, of which this probe scans a finite family")

    def to_dict(self) -> dict:
        return {**vars(self), "sets": [{**vars(s), "argmin_site": list(s.argmin_site)}
                                       for s in self.sets]}

    def to_csv(self, path, meta: str | None = None) -> None:
        """One row per set; the argmin site's coordinates joined by spaces."""
        write_csv(path, [f.name for f in fields(EpsKSetResult)],
                  [{**vars(s), "argmin_site": " ".join(map(str, s.argmin_site))}.values()
                   for s in self.sets], meta=meta)


def estimate_eps_k(law: EnvironmentLaw, family_spec: EpsKFamilySpec | None = None,
                   n_env: int = 800, seed: int = 0, z: float = DEFAULT_Z,
                   tol: float = 1e-10) -> EpsKReport:
    """Scan a family of finite connected sets for the minimal drift along e1.

    For every set the minimum over its sites of the drift's lower confidence
    bound is recorded; the verdict is positive-evidence only when every
    per-set bound is positive.
    """
    if not law.homogeneous:
        raise ValueError("the drift-infimum probe needs a homogeneous law")
    spec = family_spec if family_spec is not None else EpsKFamilySpec()
    d = law.d
    origin = (0,) * d
    results: list[EpsKSetResult] = []
    for i, (label, region) in enumerate(spec.regions(d)):
        kenv = kalikow_environment(law, region, origin,
                                   n_env=n_env, seed=rng.child_seed(seed, i),
                                   method="auto", route="definition", tol=tol)
        drift_e1 = kenv.drift_vectors[:, 0]
        se = kenv.drift_se[:, 0]
        lcb = drift_e1 - z * se
        ucb = drift_e1 + z * se
        j = int(np.argmin(lcb))
        results.append(EpsKSetResult(
            label=label, n_sites=kenv.sites.shape[0],
            min_lcb=float(lcb[j]), min_ucb=float(np.min(ucb)),
            min_estimate=float(np.min(drift_e1)),
            argmin_site=tuple(int(c) for c in kenv.sites[j]),
            exact=kenv.exact,
        ))
    min_lcb = min(r.min_lcb for r in results)
    min_est = min(r.min_estimate for r in results)
    if all(r.min_lcb > 0 for r in results):
        verdict = "positive-evidence"
    elif any(r.min_ucb < 0 for r in results):
        verdict = "negative-evidence"
    else:
        verdict = "inconclusive"
    return EpsKReport(
        sets=results, global_min_lcb=float(min_lcb),
        global_min_estimate=float(min_est), verdict=verdict,
        n_env=n_env, seed=seed, z=z,
    )


# ---------------------------------------------------------------------------
# Half-space drift-sign experiment
# ---------------------------------------------------------------------------


@dataclass
class HalfSpaceDriftRow:
    sign: int
    N: int
    n_sites: int
    drift: np.ndarray
    se: np.ndarray
    den_mean: float
    g0_origin: float


@dataclass
class Theorem3Report:
    """Drift signs of the auxiliary walk on truncated half-spaces."""

    rows: list[HalfSpaceDriftRow]
    N_list: list[int]
    n_env: int
    seed: int
    z: float
    verdict: str
    stabilized: dict
    k_report: dict
    warning: str | None = None

    def row(self, sign: int, N: int) -> HalfSpaceDriftRow:
        for r in self.rows:
            if r.sign == sign and r.N == N:
                return r
        raise KeyError((sign, N))

    def to_dict(self) -> dict:
        return {**vars(self), "rows": [
            {**vars(r), "drift": [float(v) for v in r.drift], "se": [float(v) for v in r.se]}
            for r in self.rows]}

    def to_csv(self, path, meta: str | None = None) -> None:
        """One row per (sign, N): the e1 drift and its standard error, then
        the other components' drifts, then their standard errors."""
        d = len(self.rows[0].drift)
        write_csv(path, ["sign", "N", "n_sites", "drift_e1", "se_e1"]
                  + [f"{q}_e{k}" for q in ("drift", "se") for k in range(2, d + 1)],
                  [[r.sign, r.N, r.n_sites]
                   + np.r_[r.drift[0], r.se[0], r.drift[1:], r.se[1:]].tolist()
                   for r in self.rows], meta=meta)


def theorem3_experiment(law: EnvironmentLaw, rho: float,
                        N_list=(10, 20, 30), n_env: int = 10000, seed: int = 0,
                        eps0: float = 0.5, z: float = DEFAULT_Z,
                        force: bool = False, tol: float = 1e-9) -> Theorem3Report:
    """Estimate the auxiliary-walk drift at the origin of both half-spaces.

    Uses the definition route with the mean-zero control variate
    g0(0,0) * (centered drift at the origin) on the e1 component.  The
    verdict is failure evidence only when, at the largest stabilized
    truncation, the positive half-space drift's lower bound and the
    negative half-space drift's upper bound exclude zero with opposite
    signs, and perpendicular components stay within z standard errors of 0.
    """
    if n_env < 1:
        raise ValueError(f"the half-space experiment needs n_env >= 1, got {n_env}")
    if len(N_list) < 1:
        raise ValueError("the half-space experiment needs at least one truncation in N_list")
    k_report = check_k_conditions(law, rho, eps0)
    warning = None
    if not k_report.all_pass:
        failed = [e.name for e in k_report.entries if not e.passed]
        if not force:
            raise ValueError(
                f"structural conditions failed: {failed}; pass force=True to override")
        warning = f"structural conditions failed: {failed} (forced run)"

    d = law.d
    origin = (0,) * d
    mean_w = law_moments(law).mean
    ssrw_env = sample_environment(ssrw_law(d), seed=0)
    env_seeds = rng.child_seed(seed, np.arange(n_env)).tolist()
    regions = [HalfSpaceTrunc(sign, int(N), d) for sign in (1, -1) for N in N_list]
    patterns = [region_pattern(region) for region in regions]
    srcs = [pattern.source_index(origin) for pattern in patterns]
    # SSRW Green value at the origin, the control variate's scale
    g0_origins = [float(green_row(ssrw_env, region, origin, tol=min(tol, 1e-12)).values[src])
                  for region, src in zip(regions, srcs)]
    accs = [_RatioAccumulator(1, d) for _ in regions]
    problems = [(p, np.eye(1, p.n, src)[0], "l1", True) for p, src in zip(patterns, srcs)]
    for batch in sampled_solves(law, env_seeds, problems, tol):
        for (weights, g), src, g0_origin, acc in zip(batch, srcs, g0_origins, accs):
            g00, w0 = g[:, src, None], weights[:, src]
            # mean-zero companion: the same centered-drift variate scaled
            # by the deterministic unperturbed Green value
            c = w0 - mean_w
            cv = g0_origin * (c[:, 0::2] - c[:, 1::2])
            drift_num = g00 * (w0[:, 0::2] - w0[:, 1::2]) - cv
            acc.add((g00 * w0)[:, None], g00, drift_num=drift_num[:, None])
    rows: list[HalfSpaceDriftRow] = []
    for region, g0_origin, acc in zip(regions, g0_origins, accs):
        drift, se = acc.ratio(acc.drift_cols)
        rows.append(HalfSpaceDriftRow(
            sign=region.sign, N=region.N, n_sites=region.interior_count(),
            drift=drift[0], se=se[0], den_mean=float(acc.den[0]),
            g0_origin=g0_origin,
        ))

    # stabilization across the last two truncations, per sign
    stabilized = {}
    for sign in (1, -1):
        sign_rows = [r for r in rows if r.sign == sign]
        if len(sign_rows) < 2:
            stabilized[sign] = True
            continue
        a, b_ = sign_rows[-2], sign_rows[-1]
        gap = abs(a.drift[0] - b_.drift[0])
        combined = math.hypot(a.se[0], b_.se[0])
        # absolute floor guards zero-variance (deterministic) environments
        stabilized[sign] = bool(gap <= z * combined + 1e-9)

    final_pos = [r for r in rows if r.sign == 1][-1]
    final_neg = [r for r in rows if r.sign == -1][-1]
    pos_lcb = final_pos.drift[0] - z * final_pos.se[0]
    neg_ucb = final_neg.drift[0] + z * final_neg.se[0]
    if not (stabilized[1] and stabilized[-1]):
        verdict = "inconclusive"
    elif pos_lcb > 0 and neg_ucb < 0:
        verdict = "kalikow-fails-evidence"
    elif pos_lcb > 0 and final_neg.drift[0] - z * final_neg.se[0] > 0:
        verdict = "no-failure-evidence"
    else:
        verdict = "inconclusive"

    return Theorem3Report(
        rows=rows, N_list=[int(N) for N in N_list], n_env=n_env, seed=seed,
        z=z, verdict=verdict,
        stabilized={str(k): v for k, v in stabilized.items()},
        k_report=k_report.to_dict(), warning=warning,
    )
