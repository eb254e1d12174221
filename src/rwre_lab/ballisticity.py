"""Ballisticity probes: polynomial exit-decay condition, slab drift-operator
estimates, fluctuation scaling, martingale tail bounds, and the derived
renormalization quantities.

The polynomial condition requires box scales beyond any computation (its
minimal scale has logarithm above 130 for d >= 2), so the probe reports
informal verdicts at small scales, always prints the unreachable threshold
scale, and compares probabilities in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import rng
from .env_model import EnvironmentLaw, law_moments
from .exact_solver import (
    build_system,
    region_pattern,
    sampled_solves,
    solve_green_operator,
)
from .lattice import BallisticityBox, CorollaryBox, SlabRegion
from .monte_carlo import (
    EmpiricalDistribution,
    ExitRegion,
    MCEstimate,
    annealed_walks,
)
from .reporting import write_csv, write_site_csv

DEFAULT_Z = 3.0


class SizeError(ValueError):
    """A derived region is too large and subsampling was not permitted."""


# ---------------------------------------------------------------------------
# Scale constants
# ---------------------------------------------------------------------------


def log_m0(d: int) -> float:
    """Natural log of the minimal scale for the polynomial condition.

    Returns 100 + 4 d (log kappa)^2 with the ellipticity floor kappa=1/(4d);
    the scale itself is never exponentiated.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    return 100.0 + 4.0 * d * math.log(1.0 / (4.0 * d)) ** 2


def c_alpha_L(d: int, alpha: float, L: int) -> tuple[float, str]:
    """Fluctuation budget scale in L for a given interpolation exponent alpha.

    Cases: L^(1 + 2(1-a)/(2-a)) for d <= 3, L^(4(1-a)/(2-a)) for d = 4, and
    1 for d >= 5 with alpha >= 4/5.  Dimension 2 is reported with the d=3
    expression (no separate case exists for it).
    """
    if not 0 <= alpha < 1:
        raise ValueError("alpha must lie in [0, 1)")
    if d <= 3:
        case = "d<=3 (d=3 expression)" if d < 3 else "d=3"
        return float(L ** (1 + 2 * (1 - alpha) / (2 - alpha))), case
    if d == 4:
        return float(L ** (4 * (1 - alpha) / (2 - alpha))), "d=4"
    if alpha < 0.8:
        raise ValueError("for d >= 5 the budget is only defined for alpha >= 4/5")
    return 1.0, "d>=5"


# ---------------------------------------------------------------------------
# Freedman-type martingale bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreedmanParams:
    """Tail-bound inputs: deviation u, increment bound b, variance budget."""

    u: float
    b: float
    sum_v2: float

    def __post_init__(self):
        if self.u < 0:
            raise ValueError("u must be >= 0")
        if self.b <= 0:
            raise ValueError("increment bound b must be > 0")
        if self.sum_v2 < 0:
            raise ValueError("variance budget must be >= 0")


def freedman_bound(params: FreedmanParams | None = None, *, u: float | None = None,
                   b: float | None = None, sum_v2: float | None = None) -> float:
    """exp(-u^2 / (2 (sum_v2 + u b / 3))), the variance-aware tail bound."""
    if params is None:
        params = FreedmanParams(u=u, b=b, sum_v2=sum_v2)
    if params.u == 0:
        return 1.0
    return math.exp(-params.u ** 2 / (2.0 * (params.sum_v2 + params.u * params.b / 3.0)))


_INCREMENTS = ("plusminus", "uniform", "lazy")


@dataclass
class MartingaleTailRow:
    u: float
    bound: float
    upper_freq: float
    lower_freq: float
    se_upper: float
    se_lower: float
    within_bound: bool


@dataclass
class MartingaleTailReport:
    increment: str
    n_steps: int
    n_paths: int
    b: float
    step_v2: float
    seed: int
    rows: list[MartingaleTailRow] = field(default_factory=list)

    @property
    def all_within(self) -> bool:
        return all(r.within_bound for r in self.rows)

    def to_dict(self) -> dict:
        return {**vars(self), "all_within": self.all_within,
                "rows": [vars(r) for r in self.rows]}

    def to_csv(self, path, meta: str | None = None) -> None:
        write_csv(path, [f.name for f in fields(MartingaleTailRow)],
                  [vars(r).values() for r in self.rows], meta=meta)


def martingale_tail_test(increment: str, n: int, u_grid, n_paths: int, seed: int,
                         b: float = 1.0, q: float = 0.5,
                         z: float = DEFAULT_Z) -> MartingaleTailReport:
    """Empirical two-sided tails of bounded-increment martingales vs the bound.

    Final-value tails after n steps stand in for the limiting excursions.
    Increment families: "plusminus" (fair +-b), "uniform" (U[-b, b]),
    "lazy" (+-b each with probability q/2).
    """
    if increment not in _INCREMENTS:
        raise ValueError(f"increment must be one of {_INCREMENTS}")
    if n_paths < 1:
        raise ValueError(f"the tail test needs n_paths >= 1, got {n_paths}")
    if increment == "plusminus":
        step_v2 = b * b
    elif increment == "uniform":
        step_v2 = b * b / 3.0
    else:
        step_v2 = q * b * b
    gen = rng.stream_generator(seed)
    u_grid = [float(u) for u in u_grid]
    upper = np.zeros(len(u_grid), dtype=np.int64)
    lower = np.zeros(len(u_grid), dtype=np.int64)
    chunk = max(1, int(2e6) // max(1, n))
    done = 0
    while done < n_paths:
        m = min(chunk, n_paths - done)
        if increment == "plusminus":
            finals = b * (2.0 * gen.integers(0, 2, size=(m, n)) - 1.0).sum(axis=1)
        elif increment == "uniform":
            finals = (gen.random((m, n)) * 2.0 - 1.0).sum(axis=1) * b
        else:
            u01 = gen.random((m, n))
            steps = np.where(u01 < q / 2, -b, np.where(u01 < q, b, 0.0))
            finals = steps.sum(axis=1)
        for i, u in enumerate(u_grid):
            upper[i] += int((finals > u).sum())
            lower[i] += int((finals < -u).sum())
        done += m

    report = MartingaleTailReport(increment=increment, n_steps=n, n_paths=n_paths,
                                  b=b, step_v2=step_v2, seed=seed)
    budget = n * step_v2
    for i, u in enumerate(u_grid):
        bound = freedman_bound(FreedmanParams(u=u, b=b, sum_v2=budget))
        fu = upper[i] / n_paths
        fl = lower[i] / n_paths
        se_u = math.sqrt(max(fu * (1 - fu), 1.0 / n_paths) / n_paths)
        se_l = math.sqrt(max(fl * (1 - fl), 1.0 / n_paths) / n_paths)
        ok = fu <= bound + z * se_u and fl <= bound + z * se_l
        report.rows.append(MartingaleTailRow(
            u=u, bound=bound, upper_freq=fu, lower_freq=fl,
            se_upper=se_u, se_lower=se_l, within_bound=ok,
        ))
    return report


# ---------------------------------------------------------------------------
# Polynomial condition probe
# ---------------------------------------------------------------------------


@dataclass
class ConditionPStart:
    site: tuple
    p_hat: float
    se: float
    n: int
    hits: int


@dataclass
class ConditionPReport:
    """Informal exit-decay probe on the scale-M ballisticity box.

    Starts scanned are the origin (the canonical translation-reduction
    start) plus the middle-frontal core, possibly subsampled with declared
    coverage.  The verdict compares point estimates against the polynomial
    threshold in log space; below_m0 records that the probed scale sits
    under the theory's minimal scale, which desk-scale runs always do.
    """

    M: int
    d: int
    starts: list[ConditionPStart]
    sup_estimate: float
    sup_upper_ci: float
    log_threshold: float
    threshold_exponent: int
    log_m0_value: float
    below_m0: bool
    verdict: str
    n_per_site: int
    star_total: int
    star_scanned: int
    seed: int

    def to_dict(self) -> dict:
        out = {k: v for k, v in vars(self).items() if k not in ("starts", "log_m0_value")}
        return {**out, "log_m0": self.log_m0_value,
                "starts": [{**vars(s), "site": list(s.site)} for s in self.starts]}

    def to_csv(self, path, meta: str | None = None) -> None:
        write_site_csv(path, "x", [s.site for s in self.starts],
                       {k: [getattr(s, k) for s in self.starts]
                        for k in ("p_hat", "se", "n", "hits")}, meta)


def _upper_bounds(hits: np.ndarray, n: int, level: float) -> np.ndarray:
    """Exact (Clopper-Pearson) upper confidence bounds at 1 - level on the
    success probabilities of binomial counts hits out of n, one beta
    quantile call over all counts below n; 1.0 where hits == n.  The
    quantile is the inverse regularized incomplete beta function, which is
    what scipy.stats.beta.ppf evaluates."""
    from scipy.special import betaincinv

    bounds = np.ones(len(hits))
    below = hits < n
    bounds[below] = betaincinv(hits[below] + 1, n - hits[below], 1.0 - level)
    return bounds


def condition_p_probe(law: EnvironmentLaw, M: int, n_per_site: int = 10000,
                      site_cap: int = 64, seed: int = 0,
                      alpha: float = 0.0013) -> ConditionPReport:
    """Monte Carlo probe of the non-frontal exit probability at scale M.

    p_hat per start estimates P(exit not through the frontal side); the
    verdict is "fail" when the sup of the point estimates exceeds
    M^-(15d+5) and "pass-informal" otherwise (confidence intervals cannot
    certify thresholds this small, hence informal).
    """
    if M < 2:
        raise ValueError("probe needs M >= 2")
    if n_per_site < 1:
        raise ValueError(f"the probe needs n_per_site >= 1, got {n_per_site}")
    if not law.homogeneous:
        raise ValueError("the probe needs a homogeneous law")
    d = law.d
    region = BallisticityBox(M, d)
    star = region.star_array()
    star_total = star.shape[0]
    if star_total > site_cap:
        pick = np.linspace(0, star_total - 1, site_cap).round().astype(int)
        star = star[np.unique(pick)]
    starts = np.vstack([np.zeros((1, d), dtype=np.int64), star])

    # every walk of every start in one walker call, split per start afterwards
    finals = annealed_walks(law, np.repeat(starts, n_per_site, axis=0),
                            ExitRegion(region), seed)
    nonfrontal = (finals[:, 0] < region.frontal_min).reshape(len(starts), n_per_site)
    rows: list[ConditionPStart] = []
    for start, row in zip(starts, nonfrontal):
        est = MCEstimate.from_samples(row.astype(np.float64), seed)
        rows.append(ConditionPStart(site=tuple(start.tolist()), p_hat=est.mean,
                                    se=est.se, n=est.n, hits=int(row.sum())))

    sup_estimate = max(r.p_hat for r in rows)
    # Bonferroni-corrected exact upper confidence bounds per start
    hits = nonfrontal.sum(axis=1)
    sup_upper = float(_upper_bounds(hits, n_per_site, alpha / len(rows)).max())

    exponent = 15 * d + 5
    log_threshold = -exponent * math.log(M)
    log_sup = math.log(sup_estimate) if sup_estimate > 0 else -math.inf
    verdict = "fail" if log_sup > log_threshold else "pass-informal"
    lm0 = log_m0(d)
    return ConditionPReport(
        M=M, d=d, starts=rows, sup_estimate=sup_estimate, sup_upper_ci=sup_upper,
        log_threshold=log_threshold, threshold_exponent=exponent,
        log_m0_value=lm0, below_m0=math.log(M) < lm0, verdict=verdict,
        n_per_site=n_per_site, star_total=star_total, star_scanned=len(rows) - 1,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Slab drift-operator statistics
# ---------------------------------------------------------------------------


def drift_green_origin(env, region, tol: float = 1e-10) -> float:
    """Green operator applied to the local e1-drift, evaluated at the origin."""
    system = build_system(env, region)
    u = solve_green_operator(system, system.drift_field(), tol)
    return float(u[system.pattern.source_index((0,) * region.d)])


def _drift_field(pattern, weights: np.ndarray) -> np.ndarray:
    """Local drift along e1 at every site of a (B, n, 2d) weight block."""
    return weights[:, :, 0] - weights[:, :, 1]


def _drift_origin_samples(law: EnvironmentLaw, region, n_env: int, seed: int,
                          tol: float) -> EmpiricalDistribution:
    """`drift_green_origin` for the environments of seeds
    rng.child_seed(seed, i), i < n_env, solved in batches."""
    pattern = region_pattern(region)
    origin = pattern.source_index((0,) * pattern.d)
    env_seeds = rng.child_seed(seed, np.arange(n_env)).tolist()
    samples = []
    for (w, u), in sampled_solves(law, env_seeds, [(pattern, _drift_field, "linf", False)], tol):
        # a copy, and no block held into the next batch's solve (a held d=3
        # slab block made each solve about 15 % slower)
        samples.append(u[:, origin].copy())
        del w, u
    return EmpiricalDistribution(np.concatenate(samples), env_seeds, seed)


@dataclass
class DriftGreenStats:
    """Across-environment statistics of the slab drift operator at the origin."""

    L: int
    W: int
    d: int
    n_env: int
    mean: float
    variance: float
    se: float
    bound: float
    lower_cb: float
    bound_holds_with_ci: bool
    eps_L: float
    eps_L_warning: bool
    seed: int
    distribution: EmpiricalDistribution | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "distribution"}


def mean_drift_green_check(law: EnvironmentLaw, L: int, W: int, n_env: int,
                           seed: int, z: float = DEFAULT_Z,
                           tol: float = 1e-10) -> DriftGreenStats:
    """Mean of the exact slab drift operator vs the (2/5) d lambda L^2 bound.

    Requires a positive average drift; warns when eps * L leaves the small
    perturbation regime (>= 3/4).
    """
    if n_env < 1:
        raise ValueError(f"the slab drift-operator check needs n_env >= 1, got {n_env}")
    mom = law_moments(law)
    if mom.lam <= 0:
        raise ValueError(f"positive average drift required, got lambda={mom.lam:.3g}")
    d = law.d
    dist = _drift_origin_samples(law, SlabRegion(L, W, d), n_env, seed, tol)
    bound = 0.4 * d * mom.lam * L * L
    lower_cb = dist.mean - z * dist.se
    return DriftGreenStats(
        L=L, W=W, d=d, n_env=n_env, mean=dist.mean, variance=dist.variance,
        se=dist.se, bound=bound, lower_cb=lower_cb,
        bound_holds_with_ci=bool(lower_cb >= bound),
        eps_L=mom.eps * L, eps_L_warning=bool(mom.eps * L >= 0.75),
        seed=seed, distribution=dist,
    )


@dataclass
class FluctuationRow:
    amplitude: float
    sigma2: float
    mean: float
    variance: float
    n_env: int


@dataclass
class FluctuationScanReport:
    """Variance of the slab drift operator as the disorder amplitude grows."""

    L: int
    W: int
    d: int
    alpha: float
    c_alpha: float
    c_alpha_case: str
    rows: list[FluctuationRow]
    slope: float
    ratios: list[float]
    seed: int

    def to_dict(self) -> dict:
        return {**vars(self), "rows": [vars(r) for r in self.rows]}

    def to_csv(self, path, meta: str | None = None) -> None:
        write_csv(path, [f.name for f in fields(FluctuationRow)],
                  [vars(r).values() for r in self.rows], meta=meta)


def fluctuation_scan(law_family, amplitudes, L: int, W: int, n_env: int,
                     alpha: float, seed: int,
                     tol: float = 1e-10) -> FluctuationScanReport:
    """Scan the drift-operator variance across disorder amplitudes.

    law_family maps an amplitude a to a law whose environment variance is
    proportional to a^2; the report includes the log-log slope of variance
    against amplitude and consecutive variance ratios. A row with zero
    variance (a deterministic law) makes the slope NaN, and the ratio whose
    denominator is that row NaN as well.
    """
    if n_env < 1:
        raise ValueError(f"the fluctuation scan needs n_env >= 1, got {n_env}")
    amplitudes = [float(a) for a in amplitudes]
    if len(amplitudes) < 2:
        raise ValueError(f"the fluctuation scan needs two amplitudes or more, got {amplitudes}")
    if any(b <= a for a, b in zip(amplitudes, amplitudes[1:])):
        raise ValueError("amplitudes must be strictly increasing")
    first_law = law_family(amplitudes[0])
    d = first_law.d
    region = SlabRegion(L, W, d)
    rows: list[FluctuationRow] = []
    for i, a in enumerate(amplitudes):
        law = law_family(a)
        mom = law_moments(law)
        dist = _drift_origin_samples(law, region, n_env, rng.child_seed(seed, i), tol)
        rows.append(FluctuationRow(
            amplitude=a, sigma2=mom.sigma2, mean=dist.mean,
            variance=dist.variance, n_env=n_env))
    variances = np.array([r.variance for r in rows])
    if np.all(variances > 0):
        slope = float(np.polyfit(np.log(amplitudes), np.log(variances), 1)[0])
    else:
        slope = math.nan
    ratios = [float(b.variance / a.variance) if a.variance > 0 else math.nan
              for a, b in zip(rows, rows[1:])]
    c_val, case = c_alpha_L(d, alpha, L)
    return FluctuationScanReport(
        L=L, W=W, d=d, alpha=alpha, c_alpha=c_val, c_alpha_case=case,
        rows=rows, slope=slope, ratios=ratios, seed=seed,
    )


# ---------------------------------------------------------------------------
# Renormalization-scale statistics
# ---------------------------------------------------------------------------


def _nonfrontal_exit_field(pattern, weights: np.ndarray) -> np.ndarray:
    """The one-step probability of leaving the region through a non-frontal
    boundary site, at every interior site of a (B, n, 2d) weight block;
    (I - P)^-1 of it is P_y(first exit is not through the frontal side)."""
    field = np.zeros(weights.shape[:2])
    for e in range(2 * pattern.d):
        targets = pattern.interior[:, 0] + pattern.dirs[e, 0]
        idx = np.nonzero((pattern.nbr[:, e] < 0)
                         & (targets < pattern.region.frontal_min))[0]
        field[:, idx] += weights[:, idx, e]
    return field


@dataclass
class RhoStats:
    """Quantities feeding the renormalization step at derived scales L, M."""

    theta: float
    eta: float
    L: int
    M: int
    lambda0: float
    d: int
    n_env: int
    seed: int
    q_samples: np.ndarray
    rho_samples: np.ndarray
    sqrt_rho_estimate: MCEstimate
    rho_hat_samples: np.ndarray
    rho_hat_max: float
    p_hat: float
    p_indicator_se: float
    g_origin_samples: np.ndarray
    g_threshold: float
    lateral_half_width: int
    lateral_capped: bool
    subgrid_halfwidth: int
    slab_W: int
    eps_L: float

    def to_dict(self) -> dict:
        arrays = ("q_samples", "rho_samples", "rho_hat_samples", "g_origin_samples",
                  "sqrt_rho_estimate")
        return {**{k: v for k, v in vars(self).items() if k not in arrays},
                "q_mean": float(self.q_samples.mean()),
                "rho_mean": float(self.rho_samples.mean()),
                "sqrt_rho": self.sqrt_rho_estimate.to_dict()}

    def to_csv(self, path, meta: str | None = None) -> None:
        """One row per environment sample."""
        samples = np.column_stack([self.q_samples, self.rho_samples,
                                   self.rho_hat_samples, self.g_origin_samples])
        write_csv(path, ["index", "q_B", "rho_B", "rho_hat", "g_drift_origin"],
                  [[i, *row] for i, row in enumerate(samples.tolist())], meta=meta)


def rho_statistics(law: EnvironmentLaw, theta: float, eta: float, n_env: int,
                   seed: int, L: int | None = None,
                   lateral_cap: int | None = None,
                   subgrid_halfwidth: int | None = None,
                   slab_W: int | None = None,
                   allow_subsample: bool = True,
                   size_limit: int = 200_000,
                   tol: float = 1e-10) -> RhoStats:
    """Sample the exit-ratio and drift-operator quantities at derived scales.

    L defaults to 2 * floor(theta / eps) and M to L^4.  The long box's
    lateral half-width and the hyperplane subgrid for the sup are truncated
    to declared values; truncation never happens silently.
    """
    if n_env < 1:
        raise ValueError(f"rho statistics need n_env >= 1, got {n_env}")
    mom = law_moments(law)
    if L is None:
        if mom.eps <= 0:
            raise ValueError("law has eps=0; pass an explicit L to probe it")
        L = 2 * int(math.floor(theta / mom.eps))
    if L < 2:
        raise ValueError(f"derived L={L} is below 2; increase theta")
    M = L ** 4
    d = law.d
    lambda0 = max(mom.sigma2 ** 0.5 * mom.eps ** (1.5 - eta), mom.eps ** (3.0 - eta))

    # long box, lateral width capped to keep the solve feasible
    if lateral_cap is None:
        full = int(math.ceil(M ** 3 / 4)) - 1
        per_axis = (size_limit / max(1, 2 * M - 1)) ** (1.0 / (d - 1))
        fit = max(2 * L, int((per_axis - 1) / 2))
        lateral_cap = min(full, fit)
        if lateral_cap < full and not allow_subsample:
            raise SizeError(
                f"long box with M={M} needs lateral subsampling; "
                "pass allow_subsample=True or an explicit lateral_cap")
    box = CorollaryBox(M, d, lateral_cap=lateral_cap)
    if box.interior_count() > 4 * size_limit:
        raise SizeError(
            f"long box at M={M} has {box.interior_count()} sites even after "
            "lateral capping; reduce theta")

    slab_W = 4 * L * L if slab_W is None else int(slab_W)
    sub_hw = 2 * L if subgrid_halfwidth is None else int(subgrid_halfwidth)
    box_pat, slab_pat = region_pattern(box), region_pattern(SlabRegion(L, slab_W, d))
    box_origin, slab_origin = (p.source_index((0,) * d) for p in (box_pat, slab_pat))
    on_plane = slab_pat.interior[:, 0] == 0
    lateral_ok = np.all(np.abs(slab_pat.interior[:, 1:]) <= sub_hw, axis=1)
    subgrid_idx = np.nonzero(on_plane & lateral_ok)[0]
    g_threshold = lambda0 * L + 4.0 / (L * L)

    q_parts, rho_hat_parts, g_parts = [], [], []
    env_seeds = rng.child_seed(seed, np.arange(n_env), 11).tolist()
    problems = [(box_pat, _nonfrontal_exit_field, "linf", False),
                (slab_pat, _drift_field, "linf", False)]
    for (_, h), (_, u) in sampled_solves(law, env_seeds, problems, tol):
        # copies: a view would keep the batch's whole solution alive
        q_parts.append(h[:, box_origin].copy())
        vals = u[:, subgrid_idx] / L
        rho_hat_parts.append(np.max((1.0 - vals) / (1.0 + vals), axis=1))
        g_parts.append(u[:, slab_origin].copy())
    rho_hat_samples, g_origin = np.concatenate(rho_hat_parts), np.concatenate(g_parts)

    q_samples = np.clip(np.concatenate(q_parts), 0.0, 1.0)
    rho_samples = q_samples / np.maximum(1.0 - q_samples, 1e-300)
    sqrt_rho = MCEstimate.from_samples(np.sqrt(rho_samples), seed)
    indicator = (g_origin <= g_threshold).astype(np.float64)
    ind_est = MCEstimate.from_samples(indicator, seed)
    p_hat = 1.0 - float(M) ** (2 * d) * ind_est.mean

    return RhoStats(
        theta=theta, eta=eta, L=L, M=M, lambda0=lambda0, d=d,
        n_env=n_env, seed=seed,
        q_samples=q_samples, rho_samples=rho_samples,
        sqrt_rho_estimate=sqrt_rho,
        rho_hat_samples=rho_hat_samples,
        rho_hat_max=float(rho_hat_samples.max()),
        p_hat=p_hat, p_indicator_se=ind_est.se,
        g_origin_samples=g_origin, g_threshold=g_threshold,
        lateral_half_width=box.lateral_half_width,
        lateral_capped=box.lateral_capped,
        subgrid_halfwidth=sub_hw, slab_W=slab_W,
        eps_L=mom.eps * L,
    )
