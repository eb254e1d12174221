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


def _apply_axis_shift(w: np.ndarray, lambda_shift: float) -> np.ndarray:
    out = w.astype(np.float64).copy()
    out[0] += lambda_shift / 2.0
    out[1] -= lambda_shift / 2.0
    return out


# ---------------------------------------------------------------------------
# Law families
# ---------------------------------------------------------------------------


class EnvironmentLaw:
    """Base class: a distribution over probability vectors, i.i.d. per site."""

    d: int
    family: str = "abstract"
    homogeneous: bool = True

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(probs, vectors) with probs shape (K,) and vectors shape (K, 2d)."""
        raise NotImplementedError

    def site_support(self, site) -> tuple[np.ndarray, np.ndarray]:
        return self.support()

    @property
    def degenerate(self) -> bool:
        """True when eps == 0 (exactly the unperturbed symmetric walk)."""
        probs, vecs = self.support()
        return bool(np.max(np.abs(vecs - 1.0 / (2 * self.d))) == 0.0)

    @property
    def in_perturbation_range(self) -> bool:
        """True when 0 < eps < 1, the range the asymptotic results assume."""
        probs, vecs = self.support()
        eps = 4 * self.d * np.max(np.abs(vecs - 1.0 / (2 * self.d)))
        return bool(0.0 < eps < 1.0)

    def _validate(self) -> None:
        if self.d < 2:
            raise ValueError(f"model dimension must be >= 2, got {self.d}")
        probs, vecs = self.support()
        if abs(probs.sum() - 1.0) > WEIGHT_ATOL or np.any(probs < 0):
            raise ValueError("support probabilities must be nonnegative and sum to 1")
        for v in vecs:
            validate_prob_vector(v, self.d)
        # random laws must stay in the small-perturbation range; point masses
        # are deterministic oracle environments and may sit outside it
        # (flagged through in_perturbation_range / degenerate)
        if len(probs) > 1:
            eps = 4 * self.d * np.max(np.abs(vecs - 1.0 / (2 * self.d)))
            if eps >= 1.0:
                raise ValueError(f"perturbation size eps={eps:.6g} must be < 1")

    def to_dict(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.to_dict()})"


class PointMassLaw(EnvironmentLaw):
    """Deterministic environment: one fixed weight vector at every site."""

    family = "point_mass"

    def __init__(self, weights, d: int | None = None):
        w = np.asarray(weights, dtype=np.float64)
        self.d = d if d is not None else w.shape[0] // 2
        self.weights = validate_prob_vector(w, self.d)
        self._validate()

    def support(self):
        return np.array([1.0]), self.weights[None, :]

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
        self._validate()

    def support(self):
        d, a = self.d, self.a
        base = ssrw_weights(d)
        vecs = np.tile(base, (2 * d, 1))
        for k in range(2 * d):
            anti = k + 1 if k % 2 == 0 else k - 1
            vecs[k, k] += a
            vecs[k, anti] -= a
        vecs[:, 0] += self.lambda_shift / 2.0
        vecs[:, 1] -= self.lambda_shift / 2.0
        probs = np.full(2 * d, 1.0 / (2 * d))
        return probs, vecs

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
        first = np.asarray(atoms[0][1], dtype=np.float64)
        self.d = d if d is not None else first.shape[0] // 2
        self._probs = np.array([float(p) for p, _ in atoms])
        self._vecs = np.array([validate_prob_vector(w, self.d) for _, w in atoms])
        self._validate()

    def support(self):
        return self._probs, self._vecs

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
        for v in vecs:
            shifted = _apply_axis_shift(v, self.lambda_shift)
            if shifted[0] < -WEIGHT_ATOL or shifted[0] > 1 + WEIGHT_ATOL \
                    or shifted[1] < -WEIGHT_ATOL or shifted[1] > 1 + WEIGHT_ATOL:
                raise InvalidShiftError(
                    f"shift {lambda_shift} pushes support point "
                    f"{array_to_weight_map(v, self.d)} outside [0, 1]"
                )
        self._validate()

    def support(self):
        probs, vecs = self.base.support()
        shifted = vecs.copy()
        shifted[:, 0] += self.lambda_shift / 2.0
        shifted[:, 1] -= self.lambda_shift / 2.0
        return probs, shifted

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
        raise UnsupportedFamilyError(
            "inhomogeneous test laws have no homogeneous support table"
        )

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
    eps = float(4 * d * np.max(np.abs(vecs - 1.0 / (2 * d))))
    return LawMoments(
        d=d, eps=eps, sigma2=float(var.sum()), lam=float(mean[0] - mean[1]),
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
    parallel.  Scalar lookups are cached for walk loops.
    """

    def __init__(self, law: EnvironmentLaw, seed: int):
        self.law = law
        self.d = law.d
        self.seed = int(seed)
        self._cache: dict[tuple, np.ndarray] = {}
        if law.homogeneous:
            probs, vecs = law.support()
            self._cum = np.cumsum(probs)
            self._vecs = vecs
            self._constant = vecs[0] if len(probs) == 1 else None
        else:
            self._cum = None
            self._vecs = None
            self._constant = None

    @property
    def is_constant(self) -> bool:
        return self._constant is not None

    def weights(self, site) -> np.ndarray:
        key = tuple(int(c) for c in site)
        if self._constant is not None:
            return self._constant
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if self._cum is not None:
            u = float(rng.site_uniforms(self.seed, np.array(key, dtype=np.int64)))
            w = self._vecs[int(np.searchsorted(self._cum, u, side="right").clip(0, len(self._cum) - 1))]
        else:
            probs, vecs = self.law.site_support(key)
            u = float(rng.site_uniforms(self.seed, np.array(key, dtype=np.int64)))
            w = vecs[int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, len(probs) - 1))]
        self._cache[key] = w
        return w

    def weights_block(self, coords) -> np.ndarray:
        """Vectorized weights for an (N, d) coordinate array."""
        coords = np.asarray(coords, dtype=np.int64)
        if self._constant is not None:
            return np.broadcast_to(self._constant, (coords.shape[0], 2 * self.d)).copy()
        if self._cum is not None:
            u = rng.site_uniforms(self.seed, coords)
            idx = np.searchsorted(self._cum, u, side="right")
            np.clip(idx, 0, len(self._cum) - 1, out=idx)
            return self._vecs[idx]
        return np.array([self.weights(site) for site in coords])


def sample_environment(law: EnvironmentLaw, region=None, seed: int = 0) -> EnvironmentRealization:
    """Draw an i.i.d. environment; `region` is advisory (sampling is lazy)."""
    return EnvironmentRealization(law, seed)


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
    symmetry_status: str = "structural"

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
            "symmetry_status": self.symmetry_status,
            "conditions": [
                {"name": e.name, "passed": e.passed, "margin": e.margin, "detail": e.detail}
                for e in self.entries
            ],
        }


_REL_TOL = 1e-12


def _axis_symmetry_status(law: EnvironmentLaw) -> tuple[bool | None, str]:
    """Is the law invariant under lattice isometries fixing e1?

    Structural for the built-in families; for generic empirical laws the
    answer falls back to exact moment-symmetry tests and may stay
    undetermined.
    """
    if isinstance(law, SignedAxisKickLaw):
        return True, "structural: signed-axis kick is invariant under signed axis permutations"
    if isinstance(law, ShiftedLaw):
        ok, why = _axis_symmetry_status(law.base)
        return ok, f"shift preserves e1-fixing symmetry; base: {why}"
    mom = law_moments(law)
    mean, var = mom.mean, mom.var
    perp_means = np.concatenate([mean[2::2], mean[3::2]])
    perp_vars = np.concatenate([var[2::2], var[3::2]])
    scale = max(1.0, float(np.max(np.abs(mean))))
    mean_ok = perp_means.size == 0 or np.ptp(perp_means) <= _REL_TOL * scale
    var_ok = perp_vars.size == 0 or np.ptp(perp_vars) <= _REL_TOL * max(1.0, float(np.max(var)))
    if isinstance(law, PointMassLaw):
        w = law.weights
        ok = np.ptp(w[2:]) <= _REL_TOL if w.size > 2 else True
        return bool(ok), "structural: point mass checked componentwise"
    if mean_ok and var_ok:
        return None, "undetermined: moment-symmetry tests passed (means/variances equal across perpendicular directions)"
    return False, "moment-symmetry test failed across perpendicular directions"


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

    sym_ok, sym_detail = _axis_symmetry_status(law)
    report.symmetry_status = "undetermined" if sym_ok is None else "structural"
    report.entries.append(KConditionEntry(
        "K2", sym_ok is not False, None, sym_detail))

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
