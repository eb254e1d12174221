"""Single-site environment laws and their exact scalar functionals.

An environment assigns to every lattice site a probability vector over the
2d signed unit steps.  Weight vectors are numpy arrays ordered as
[+e1, -e1, +e2, -e2, ...]; every built-in law has finite support, so all
moments (perturbation size eps, environment variance sigma2, average drift
lam) are computed exactly from the support table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import rng
from .lattice import BoxRegion, Region

WEIGHT_ATOL = 1e-12


class UnsupportedFamilyError(ValueError):
    """Operation requested on a law family that cannot support it."""


class InvalidShiftError(ValueError):
    """A drift shift pushed some support weight outside [0, 1]."""


def directions(d: int) -> np.ndarray:
    """The 2d signed unit vectors, ordered [+e1, -e1, +e2, -e2, ...]."""
    out = np.zeros((2 * d, d), dtype=np.int64)
    for i in range(d):
        out[2 * i, i] = 1
        out[2 * i + 1, i] = -1
    return out


def direction_labels(d: int) -> list[str]:
    return [f"{'+' if k % 2 == 0 else '-'}e{k // 2 + 1}" for k in range(2 * d)]


def validate_prob_vector(weights, d: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (2 * d,):
        raise ValueError(f"weight vector must have length {2 * d}, got shape {w.shape}")
    if np.any(w < -WEIGHT_ATOL) or np.any(w > 1 + WEIGHT_ATOL):
        raise ValueError(f"weights outside [0, 1]: {w}")
    if abs(w.sum() - 1.0) > WEIGHT_ATOL:
        raise ValueError(f"weights sum to {w.sum()!r}, expected 1")
    return w


def weight_map_to_array(mapping: dict, d: int) -> np.ndarray:
    labels = direction_labels(d)
    missing = [lbl for lbl in labels if lbl not in mapping]
    if missing:
        raise ValueError(f"weight map missing directions {missing}")
    return validate_prob_vector([float(mapping[lbl]) for lbl in labels], d)


def array_to_weight_map(w: np.ndarray, d: int) -> dict:
    return {lbl: float(x) for lbl, x in zip(direction_labels(d), w)}


def ssrw_weights(d: int) -> np.ndarray:
    return np.full(2 * d, 1.0 / (2 * d))


def _shift_e1(vecs: np.ndarray, lambda_shift: float) -> np.ndarray:
    """A copy of a support table with every vector shifted by (lambda_shift/2)(e . e1)."""
    out = vecs.copy()
    out[:, 0] += lambda_shift / 2.0
    out[:, 1] -= lambda_shift / 2.0
    return out


# ---------------------------------------------------------------------------
# Law families
# ---------------------------------------------------------------------------


class EnvironmentLaw:
    """Base class: a distribution over probability vectors, i.i.d. per site.

    A homogeneous law is its support table; each family builds it once
    through _set_support.
    """

    d: int
    family: str = "abstract"
    homogeneous: bool = True

    def _set_support(self, probs, vecs) -> None:
        """Validate and store the (probs, vectors) support table."""
        if self.d < 2:
            raise ValueError(f"model dimension must be >= 2, got {self.d}")
        probs = np.asarray(probs, dtype=np.float64)
        if abs(probs.sum() - 1.0) > WEIGHT_ATOL or np.any(probs < 0):
            raise ValueError("support probabilities must be nonnegative and sum to 1")
        self._probs = probs
        self._vecs = np.array([validate_prob_vector(v, self.d) for v in vecs])
        # random laws must stay in the small-perturbation range; point masses
        # are deterministic oracle environments and may sit outside it
        # (flagged through in_perturbation_range / degenerate)
        if len(probs) > 1 and self.eps >= 1.0:
            raise ValueError(f"perturbation size eps={self.eps:.6g} must be < 1")

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(probs, vectors) with probs shape (K,) and vectors shape (K, 2d)."""
        return self._probs, self._vecs

    def site_support(self, site) -> tuple[np.ndarray, np.ndarray]:
        return self.support()

    @property
    def eps(self) -> float:
        """4d times the largest support deviation from 1/(2d)."""
        probs, vecs = self.support()
        return float(4 * self.d * np.max(np.abs(vecs - 1.0 / (2 * self.d))))

    @property
    def degenerate(self) -> bool:
        """True when eps == 0 (exactly the unperturbed symmetric walk)."""
        return self.eps == 0.0

    @property
    def in_perturbation_range(self) -> bool:
        """True when 0 < eps < 1, the range the asymptotic results assume."""
        return 0.0 < self.eps < 1.0

    def to_dict(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.to_dict()})"


class PointMassLaw(EnvironmentLaw):
    """Deterministic environment: one fixed weight vector at every site."""

    family = "point_mass"

    def __init__(self, weights, d: int | None = None):
        self.d = d if d is not None else len(weights) // 2
        self._set_support([1.0], [weights])
        self.weights = self._vecs[0]

    def to_dict(self):
        return {
            "family": self.family,
            "d": self.d,
            "weights": array_to_weight_map(self.weights, self.d),
        }


def ssrw_law(d: int) -> PointMassLaw:
    return PointMassLaw(ssrw_weights(d), d)


class SignedAxisKickLaw(EnvironmentLaw):
    """Uniformly random signed-axis kick of amplitude a, plus a drift shift.

    One of the 2d signed axes (i, s) is chosen uniformly; the weight on
    s*e_i gains a and the weight on -s*e_i loses a.  Afterwards every
    vector is shifted by (lambda_shift/2) * (e . e1).
    """

    family = "signed_axis_kick"

    def __init__(self, d: int, a: float, lambda_shift: float = 0.0):
        if a < 0:
            raise ValueError(f"kick amplitude must be >= 0, got {a}")
        self.d = d
        self.a = float(a)
        self.lambda_shift = float(lambda_shift)
        vecs = np.tile(ssrw_weights(d), (2 * d, 1))
        k = np.arange(2 * d)
        vecs[k, k] += self.a  # the kicked direction k gains a,
        vecs[k, k ^ 1] -= self.a  # its opposite k ^ 1 loses a
        self._set_support(np.full(2 * d, 1.0 / (2 * d)),
                          _shift_e1(vecs, self.lambda_shift))

    def to_dict(self):
        return {
            "family": self.family,
            "d": self.d,
            "a": self.a,
            "lambda_shift": self.lambda_shift,
        }


class EmpiricalLaw(EnvironmentLaw):
    """Finite-support law given explicitly as (probability, weight vector) atoms."""

    family = "empirical"

    def __init__(self, atoms: Sequence[tuple[float, Iterable[float]]], d: int | None = None):
        if not atoms:
            raise ValueError("empirical law needs at least one support atom")
        self.d = d if d is not None else len(atoms[0][1]) // 2
        self._set_support([float(p) for p, _ in atoms], [w for _, w in atoms])

    def to_dict(self):
        return {
            "family": self.family,
            "d": self.d,
            "support": [
                {"probability": float(p), "weights": array_to_weight_map(v, self.d)}
                for p, v in zip(self._probs, self._vecs)
            ],
        }


class ShiftedLaw(EnvironmentLaw):
    """A base law with every support vector shifted by (lambda_shift/2)(e . e1)."""

    family = "shifted"

    def __init__(self, base: EnvironmentLaw, lambda_shift: float):
        if not base.homogeneous:
            raise UnsupportedFamilyError("cannot shift an inhomogeneous test law")
        self.base = base
        self.d = base.d
        self.lambda_shift = float(lambda_shift)
        probs, vecs = base.support()
        try:
            self._set_support(probs, _shift_e1(vecs, self.lambda_shift))
        except ValueError as exc:
            raise InvalidShiftError(f"shift {lambda_shift}: {exc}") from exc

    def to_dict(self):
        return {
            "family": self.family,
            "d": self.d,
            "lambda_shift": self.lambda_shift,
            "base": self.base.to_dict(),
        }


class InhomogeneousTestLaw(EnvironmentLaw):
    """Test-only law with a site-dependent marginal; rejected by theorem probes."""

    family = "inhomogeneous_test"
    homogeneous = False

    def __init__(self, site_map: dict, d: int, default: EnvironmentLaw | None = None):
        self.d = d
        self.site_map = {tuple(int(c) for c in s): law for s, law in site_map.items()}
        self.default = default if default is not None else ssrw_law(d)
        for law in self.site_map.values():
            if law.d != d:
                raise ValueError("site law dimension mismatch")

    def support(self):
        raise UnsupportedFamilyError("inhomogeneous test laws have no homogeneous support table")

    def site_support(self, site):
        law = self.site_map.get(tuple(int(c) for c in site), self.default)
        return law.support()

    def to_dict(self):
        raise UnsupportedFamilyError("inhomogeneous test laws are not serializable")


def law_from_dict(spec: dict) -> EnvironmentLaw:
    """Rebuild a law from its config descriptor."""
    family = spec.get("family")
    d = int(spec["d"])
    if family == "point_mass":
        return PointMassLaw(weight_map_to_array(spec["weights"], d), d)
    if family == "signed_axis_kick":
        return SignedAxisKickLaw(d, float(spec["a"]), float(spec.get("lambda_shift", 0.0)))
    if family == "empirical":
        atoms = [
            (atom["probability"], weight_map_to_array(atom["weights"], d))
            for atom in spec["support"]
        ]
        return EmpiricalLaw(atoms, d)
    if family == "shifted":
        return ShiftedLaw(law_from_dict(spec["base"]), float(spec["lambda_shift"]))
    raise ValueError(f"unknown law family {family!r}")


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LawMoments:
    """Exact scalar functionals of a homogeneous law.

    eps is 4d times the largest support deviation from 1/(2d); sigma2 the
    summed per-direction variance; lam the mean drift along e1; kappa the
    uniform ellipticity floor 1/(4d).
    """

    d: int
    eps: float
    sigma2: float
    lam: float
    mean: np.ndarray
    var: np.ndarray
    cov_axis: float
    kappa: float

    def to_dict(self) -> dict:
        labels = direction_labels(self.d)
        return {
            "d": self.d,
            "eps": self.eps,
            "sigma2": self.sigma2,
            "sigma": float(np.sqrt(self.sigma2)),
            "lambda": self.lam,
            "mean": {lbl: float(m) for lbl, m in zip(labels, self.mean)},
            "var": {lbl: float(v) for lbl, v in zip(labels, self.var)},
            "cov_axis": self.cov_axis,
            "kappa": self.kappa,
        }


def law_moments(law: EnvironmentLaw) -> LawMoments:
    """Exact moments from the (finite) support table of a homogeneous law."""
    if not law.homogeneous:
        raise UnsupportedFamilyError("law_moments requires a homogeneous law")
    probs, vecs = law.support()
    d = law.d
    mean = probs @ vecs
    centered = vecs - mean
    var = probs @ (centered ** 2)
    cov_axis = float(probs @ (centered[:, 0] * centered[:, 1]))
    return LawMoments(
        d=d, eps=law.eps, sigma2=float(var.sum()), lam=float(mean[0] - mean[1]),
        mean=mean, var=var, cov_axis=cov_axis, kappa=1.0 / (4 * d),
    )


def build_shifted_law(base: EnvironmentLaw, lambda_shift: float) -> ShiftedLaw:
    """Add a deterministic drift lambda_shift along e1 to a homogeneous law."""
    return ShiftedLaw(base, lambda_shift)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


class EnvironmentRealization:
    """One sampled environment, lazily extendable to any site.

    The weight vector at a site is a pure function of (seed, coordinates),
    so query order never matters and disjoint sites can be realized in
    parallel.  A realization is a batch of one in `sample_weights`.
    """

    def __init__(self, law: EnvironmentLaw, seed: int):
        self.law = law
        self.d = law.d
        self.seed = int(seed)

    def weights(self, site) -> np.ndarray:
        """The weight vector at one site: one row of weights_block."""
        return self.weights_block(np.asarray([site]))[0]

    def weights_block(self, coords) -> np.ndarray:
        """Vectorized weights for an (N, d) coordinate array."""
        return sample_weights(self.law, coords, [self.seed])[0]


# Uniforms per atom from which counting the cdf thresholds each uniform
# passes (K - 1 vectorized comparisons) beats a binary search per uniform;
# measured crossover on a 2-vCPU host, K = 2 to 256.
_COUNT_PER_ATOM = 256


def _atom_index(cdf: np.ndarray, u) -> np.ndarray:
    """The atom each uniform u picks against the cumulative probabilities cdf:
    min(searchsorted(cdf, u, "right"), K - 1) for K atoms, in u's shape.

    Large blocks count the thresholds each uniform reaches, small ones (or
    more than 256 atoms, past uint8 indices) search; both give that index.
    """
    K = len(cdf)
    if K <= 256 and u.size >= _COUNT_PER_ATOM * K:
        idx = np.zeros(u.shape, dtype=np.uint8)
        for c in cdf[:-1]:
            idx += u >= c
        return idx
    return np.minimum(np.searchsorted(cdf, u, side="right"), K - 1)


def _draw(cdf: np.ndarray, vecs: np.ndarray, u) -> np.ndarray:
    """The rows of vecs (one per atom) that uniforms u pick: row _atom_index(cdf, u)."""
    return np.take(vecs, _atom_index(cdf, u), axis=0)


def sample_environment(law: EnvironmentLaw, seed: int = 0) -> EnvironmentRealization:
    """Draw an i.i.d. environment; its sites are sampled lazily, on demand."""
    return EnvironmentRealization(law, seed)


def sample_weights(law: EnvironmentLaw, sites, env_seeds) -> np.ndarray:
    """One sampled environment per seed on the sites, as a (B, N, 2d) block whose
    row b is the environment of seed env_seeds[b], from one hash of all (seed, site) pairs.

    sites is an (N, d) integer array, or a finite Region whose interior is
    sampled in enumeration order; a box (slabs and half-spaces too) hashes
    over the open mesh of its axes (`rng.site_hash`), and an unbounded slab
    raises its RegionError.  Site j of environment b takes the atom whose
    cumulative probability first exceeds the uniform site_uniforms(seed, site)
    (the last atom when none does).
    """
    seeds = rng._u64(env_seeds)
    if isinstance(sites, BoxRegion) and sites.enumerable:
        n = sites.interior_count()
        coords = np.ix_(*map(np.arange, sites.lo, sites.hi + 1))
        words = seeds.reshape(-1, *[1] * sites.d)
    else:
        if isinstance(sites, Region):
            sites = sites.interior_array()
        coords = np.asarray(sites, dtype=np.int64).reshape(len(sites), law.d)
        n, words = len(coords), seeds[:, None]
    if not law.homogeneous:
        u = rng.site_uniforms(words, coords).reshape(len(seeds), n)
        block = np.empty(u.shape + (2 * law.d,))
        for j, site in enumerate(sites.interior_array() if isinstance(sites, Region) else coords):
            probs, vecs = law.site_support(site)
            block[:, j] = _draw(np.cumsum(probs), vecs, u[:, j])
        return block
    probs, vecs = law.support()
    if len(probs) == 1:
        return np.broadcast_to(vecs[0], (len(seeds), n, 2 * law.d)).copy()
    return _draw(np.cumsum(probs), vecs, rng.site_uniforms(words, coords).reshape(len(seeds), n))


# ---------------------------------------------------------------------------
# Structural symmetry conditions
# ---------------------------------------------------------------------------


@dataclass
class KConditionEntry:
    name: str
    passed: bool
    margin: float | None
    detail: str


@dataclass
class KConditionReport:
    """Per-condition verdicts for the no-positive-drift construction hypotheses."""

    rho: float
    eps0: float
    entries: list[KConditionEntry] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, name: str) -> KConditionEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "eps0": self.eps0,
            "all_pass": self.all_pass,
            "conditions": [
                {"name": e.name, "passed": e.passed, "margin": e.margin, "detail": e.detail}
                for e in self.entries
            ],
        }


_REL_TOL = 1e-12


def _pooled(probs: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The support table with equal atoms merged: sorted atoms and their masses."""
    atoms, inverse = np.unique(vecs, axis=0, return_inverse=True)
    return atoms, np.bincount(inverse.reshape(-1), weights=probs, minlength=len(atoms))


def _e1_fixing_generators(d: int):
    """(name, column permutation) for generators of the isometries fixing e1:
    the flip of e2 and the swaps of neighbouring perpendicular axes."""
    flip = np.arange(2 * d)
    flip[[2, 3]] = [3, 2]
    yield "the flip of e2", flip
    for i in range(1, d - 1):
        swap = np.arange(2 * d)
        swap[2 * i:2 * i + 4] = [2 * i + 2, 2 * i + 3, 2 * i, 2 * i + 1]
        yield f"the swap of e{i + 1} and e{i + 2}", swap


def _k2_symmetry(law: EnvironmentLaw) -> tuple[bool, str]:
    """Is the law invariant under the lattice isometries fixing e1?

    Exact on the support table: each generator permutes the weight columns,
    and the pooled table must come back with the same atoms and masses.
    """
    probs, vecs = law.support()
    atoms, masses = _pooled(probs, vecs)
    for name, perm in _e1_fixing_generators(law.d):
        moved, moved_masses = _pooled(probs, vecs[:, perm])
        if not (np.array_equal(moved, atoms)
                and np.max(np.abs(moved_masses - masses)) <= _REL_TOL):
            return False, f"support table is not invariant under {name}"
    return True, ("support table is invariant under the flip of e2 and the swaps "
                  "of neighbouring perpendicular axes")


def check_k_conditions(law: EnvironmentLaw, rho: float, eps0: float) -> KConditionReport:
    """Check the five structural hypotheses used by the drift-sign experiments.

    K1 bounds eps; K2 is the e1-fixing symmetry of the law; K3 equates the
    two axis variances; K4 lower-bounds Var(e1) - Cov(e1,-e1) by rho*sigma2;
    K5 demands rho*sigma2 > 32 d^2 lambda >= 0.
    """
    if not law.homogeneous:
        raise UnsupportedFamilyError("K conditions require a homogeneous law")
    if not (0 < rho <= 1):
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    mom = law_moments(law)
    d = law.d
    tol = _REL_TOL * max(1.0, mom.sigma2)

    report = KConditionReport(rho=rho, eps0=eps0)

    report.entries.append(KConditionEntry(
        "K1", mom.eps <= eps0, eps0 - mom.eps, f"eps={mom.eps:.6g} vs eps0={eps0:.6g}"))

    sym_ok, sym_detail = _k2_symmetry(law)
    report.entries.append(KConditionEntry("K2", sym_ok, None, sym_detail))

    var_gap = float(mom.var[0] - mom.var[1])
    report.entries.append(KConditionEntry(
        "K3", abs(var_gap) <= tol, -abs(var_gap),
        f"Var(+e1)={mom.var[0]:.6g}, Var(-e1)={mom.var[1]:.6g}"))

    k4_lhs = float(mom.var[0] - mom.cov_axis)
    k4_margin = k4_lhs - rho * mom.sigma2
    report.entries.append(KConditionEntry(
        "K4", k4_margin >= -tol and rho * mom.sigma2 > 0, k4_margin,
        f"Var(+e1)-Cov={k4_lhs:.6g} vs rho*sigma2={rho * mom.sigma2:.6g}"))

    k5_margin = rho * mom.sigma2 - 32 * d * d * mom.lam
    report.entries.append(KConditionEntry(
        "K5", mom.lam >= -tol and k5_margin > 0, k5_margin,
        f"rho*sigma2={rho * mom.sigma2:.6g} vs 32*d^2*lambda={32 * d * d * mom.lam:.6g}"))

    return report
