"""Exact quenched computations on finite regions.

Every solve takes a `QuenchedSystem`, a region's `RegionPattern` plus one
environment's (n, 2d) weights on its interior, and reduces to x = b + A x
with A = P or P^T; each path derives what it needs from the weights.  Mass
stepping outside is killed, which makes the spectral radius of A strictly
less than one, so the fixed point exists and the Neumann iterates
x_k = sum_{j<k} A^j b increase monotonically to it when b >= 0.

Every solve, of one environment or of a batch of B, is one call of
`_solve`: x_k = b_k + A_k x_k for a (B, n, 2d) weight block, by one path,
then one certificate.  All paths but lockstep (offset slices of a box)
share one operator: P and P^T are applied from the weights and the
neighbour table (`_batch_residual`: per direction, one gather through
`RegionPattern.nbr_pad`), and no sparse matrix is built.  scipy is
imported by the paths that call it (scipy.linalg for band LU,
scipy.sparse.linalg for BiCGSTAB), so dense, lockstep and Neumann runs
load none of it.  The paths:

* "lockstep" - preconditioned Richardson x <- x + M r, r = b - x + A x, for
               all B environments together, with M = (I - P_bar)^-1 (or
               (I - P_bar^T)^-1 for A = P^T) for the constant kernel P_bar
               averaged from the batch's weights by direction, applied to
               the (B, *shape) block as per-axis dense sine transforms
               (DST-I matrices with the symmetrizing scaling folded in)
               through BLAS matmuls in O(n sum_i m_i); A x is 2d offset
               slices of the weights.  A run that fails falls back once,
               whole, to the path of `_direct_or_krylov`.  Boxes only.
* "dense"    - stacked LU on I - A_k assembled from the weights
               (`_dense_batch`), _DENSE_SLICE entries at a time; the path of
               small systems and of whole inverses.
* "banded"   - LAPACK band LU (gbsv) on a box region, its unknowns reordered
               so the shortest axis runs fastest; the band array is filled
               straight from the weights.
* "krylov"   - BiCGSTAB on (I - A), preconditioned on boxes by the same
               mean-kernel inverse; boxes whose axis matrices exceed
               MEMORY_BUDGET go without.
* "neumann"  - the certificate's polish alone, from zero.

Band LU and BiCGSTAB solve one environment at a time on
`deterministic_map`, and a failure there raises BatchSolveError naming it.
A lockstep or banded request off a box, or an unknown path, raises
ValueError before any environment is solved.

Lockstep applies M in float32 where its scaling fits float32's mantissa;
a float32 run that stalls is re-run with the float64 M, and x and the
residuals stay float64.  BiCGSTAB always applies the float64 M.
SolveInfo.iterations counts M applies of both precisions (lockstep),
BiCGSTAB iterations and Neumann steps, the polish's included.

Every path's x goes through one certificate, `_certify_batch`: the
residual r = b + A x - x is recomputed in float64 from the returned x, and
each environment's norm of it (l1 or sup) is held to its tolerance.
Environments within it come back untouched; the others are polished by
the fixed-point iteration x <- x + r, and the lowest-index environment
that cannot be mended raises BatchSolveError once the rest have finished.

One rule picks the path of one environment and of a batch of B alike,
`auto_method(pattern, B)`: lockstep on a box wherever its modelled cost
per call (`_cost_us`: a fixed cost, then per environment and unknown the
work of its M applies) is below that of the path `_direct_or_krylov`
would take at that B, and that path otherwise: dense LU up to
DENSE_CUTOFF unknowns (a fixed cost, then the n^2 entries of each
system), banded above it on boxes whose band half-width b satisfies
b * b <= n and whose (3b + 1) x n band array fits MEMORY_BUDGET (n b^2
work per environment), and Krylov everywhere else (site sets, and thin
boxes beyond the band budget), which lockstep always beats where it has
an M.  A single solve takes band LU only at under half lockstep's cost,
for band LU's first call loads scipy.linalg.  So single solves keep band
LU on elongated d=2 boxes and dense LU on small ones, while their batches
go lockstep once B spreads its fixed cost.

Public quantities solve on one `build_system` result through
`solve_green_row`, `solve_green_operator` or `solve_hitting`, each a
`solve_fixed_point` call (`_solve` of one environment, plus its SolveInfo);
a hitting solve skips lockstep, which stalls on the absorbing site.
Statistics over environments (Kalikow rows and inverses, half-space rows,
slab drift, fluctuation and rho operators) go through `sampled_solves`:
one batch rule (`batch_slices`), one sampling per batch, and one
`solve_batch` call per region's (B, n, 2d) weight block, with a (B, n) or
shared (n,) right-hand side, or b None for the whole inverses, each
residual held to tol scaled by max(1, ||b_k||_inf) (`_scaled_tol`).
Region patterns are kept across calls, keyed by region descriptor.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .env_model import EnvironmentLaw, EnvironmentRealization, directions, sample_weights
from .lattice import BoxRegion, ExitClass, Region, RegionError
from .monte_carlo import FunctionalEvaluationError
from .runtime import deterministic_map

DEFAULT_TOL = 1e-10
DENSE_CUTOFF = 600
MAX_ITER = 500_000
# float64 entries (about 48 MB) that one band array, one batch of dense
# systems or one box's preconditioner axis matrices may hold
MEMORY_BUDGET = 6_000_000


class SolverConvergenceError(RuntimeError):
    """Fixed-point iteration failed to converge (broken substochasticity?)."""


class BatchSolveError(SolverConvergenceError):
    """The solve or certificate of one environment of a batch failed; index
    is its place in the batch, and a failed solve is the exception's cause."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


# ---------------------------------------------------------------------------
# System assembly
# ---------------------------------------------------------------------------


class RegionPattern:
    """Region-static sparsity structure shared by all environments."""

    def __init__(self, region: Region):
        if not region.enumerable:
            raise RegionError("exact solves need an enumerable (finite) region")
        self.region = region
        self.d = region.d
        self.dirs = directions(region.d)
        self.interior = region.interior_array()
        self.n = self.interior.shape[0]
        nbr = np.empty((self.n, 2 * self.d), dtype=np.int64)
        for e in range(2 * self.d):
            nbr[:, e] = region.index_block(self.interior + self.dirs[e])
        self.nbr = nbr
        self.inside_mask = nbr.ravel() >= 0
        # steps in each direction (index into dirs) that stay in the region
        self.dir_counts = self.inside_mask.reshape(self.n, 2 * self.d).sum(axis=0)

    @cached_property
    def shape(self) -> tuple[int, ...] | None:
        """Side lengths of a box region, whose interior enumeration is the
        C order of this shape; None when the region is not a box."""
        if not isinstance(self.region, BoxRegion):
            return None
        return tuple(int(m) for m in self.region.hi - self.region.lo + 1)

    @property
    def band_width(self) -> int | None:
        """Band half-width of I - P with the shortest box axis fastest.

        Stepping along the longest (slowest) axis moves n / max(shape)
        places; None when the region is not a box.
        """
        return None if self.shape is None else self.n // max(self.shape)

    @cached_property
    def band_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(perm, pos, pos_t) for banded solves on a box.

        perm[k] is the interior index of the k-th unknown in band order
        (longest axis slowest, shortest fastest).  pos[k] is the flat
        position of the k-th inside step, weights.ravel()[inside_mask][k],
        in the (2b + 1, n) LAPACK band array of I - P; pos_t is the same
        for I - P^T.
        """
        axes = np.argsort(-np.asarray(self.shape), kind="stable")
        perm = np.arange(self.n).reshape(self.shape).transpose(axes).ravel()
        inv = np.empty_like(perm)
        inv[perm] = np.arange(self.n)
        rows = inv[np.repeat(np.arange(self.n), 2 * self.d)[self.inside_mask]]
        cols = inv[self.nbr.ravel()[self.inside_mask]]
        b = self.band_width
        return perm, (b + rows - cols) * self.n + cols, (b + cols - rows) * self.n + rows

    def source_index(self, site) -> int:
        """Index of an interior site in the pattern's enumeration."""
        idx = int(self.region.index_block(np.asarray([site], dtype=np.int64))[0])
        if idx < 0:
            raise ValueError(f"site {tuple(site)} is not interior to the region")
        return idx

    @cached_property
    def nbr_pad(self) -> np.ndarray:
        """The neighbour table as (2d, n) gather indices, one contiguous row
        per direction, with every step out of the region (-1) sent to n:
        the index of one zero pad entry after the n interior values."""
        return np.ascontiguousarray(np.where(self.nbr >= 0, self.nbr, self.n).T)

    @cached_property
    def inside(self) -> np.ndarray:
        """(2d, n) mask of the steps that stay in the region, one contiguous
        row per direction."""
        return np.ascontiguousarray((self.nbr >= 0).T)


# patterns kept across calls, keyed by region descriptor, least recently used
# first; their neighbour tables together hold at most MEMORY_BUDGET entries
# (twice that with their padded copies, `nbr_pad`)
_PATTERNS: dict[str, RegionPattern] = {}
_PATTERNS_LOCK = threading.Lock()


def region_pattern(region: Region) -> RegionPattern:
    """The region's pattern, built once per region descriptor and kept
    while the cache's bound allows."""
    key = repr(region.descriptor())
    with _PATTERNS_LOCK:
        pat = _PATTERNS.pop(key, None) or RegionPattern(region)
        _PATTERNS[key] = pat
        while sum(p.nbr.size for p in _PATTERNS.values()) > MEMORY_BUDGET:
            del _PATTERNS[next(iter(_PATTERNS))]
    return pat


@dataclass(eq=False)
class QuenchedSystem:
    """One environment's (n, 2d) weights on a region's pattern: P steps from
    interior site y to pattern.nbr[y, e] with weight weights[y, e]."""

    pattern: RegionPattern
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.pattern.n

    def drift_field(self) -> np.ndarray:
        """Local drift along e1 at every interior site."""
        return self.weights[:, 0] - self.weights[:, 1]


def build_system(env: EnvironmentRealization, region: Region) -> QuenchedSystem:
    """The environment's weights on the region's pattern."""
    if env.d != region.d:
        raise ValueError("environment and region dimensions differ")
    pattern = region_pattern(region)
    return QuenchedSystem(pattern, env.weights_block(pattern.interior))


# ---------------------------------------------------------------------------
# Core solves for x = b + A x
# ---------------------------------------------------------------------------


@dataclass
class SolveInfo:
    l1_residual: float
    sup_residual: float
    iterations: int
    method: str


def _norm(r, kind):
    if kind == "l1":
        return float(np.abs(r).sum())
    return float(np.abs(r).max(initial=0.0))


# DST-I matrices by length, least recently used first; their m^2 entries
# (float64 plus float32 copies) together stay within MEMORY_BUDGET // 2
_DST: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_DST_LOCK = threading.Lock()


def _dst1_matrices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m x m orthonormal DST-I matrix sqrt(2/(m+1)) sin(pi k j/(m+1)),
    which is symmetric and its own inverse, in float64 and float32; kept
    across calls.  k j is reduced mod 2(m+1) in integers, so every sine
    argument lies in [0, 2 pi)."""
    with _DST_LOCK:
        mats = _DST.pop(m, None)
        if mats is None:
            kj = np.outer(np.arange(1, m + 1), np.arange(1, m + 1)) % (2 * (m + 1))
            S = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi / (m + 1) * kj)
            mats = S, S.astype(np.float32)
            for M in mats:  # shared by every caller
                M.flags.writeable = False
        _DST[m] = mats
        while sum(k * k for k in _DST) > MEMORY_BUDGET // 2:
            del _DST[next(iter(_DST))]
    return mats


def _mode_products(y, mats, shape):
    """Multiply the C-ordered array y of the given shape by mats[i] along
    every axis i, as BLAS matmuls; returns a new array."""
    for i, (F, m) in enumerate(zip(mats, shape)):
        post = math.prod(shape[i + 1:])
        if post == 1:
            y = y.reshape(-1, m) @ F.T
        else:
            y = F @ y.reshape(-1, m, post)
    return y


def _mean_kernel_factors(p, shape):
    """(double, single) factors (forward, back, inv_spectrum) of (I - P_bar)^-1
    on a box of the given shape, where P_bar steps in direction e with
    probability p[e], in float64 and float32; or None.

    On a box with killing, I - P_bar is a Kronecker sum of tridiagonal
    Toeplitz operators.  Scaling axis i by r_i^x_i, r_i = sqrt(p(-e_i) /
    p(+e_i)), makes each one symmetric, and the orthonormal DST-I matrix
    S_i of its length m_i diagonalizes it.  The inverse is then the forward
    mode products S_i diag(r_i^-x) along every axis, a division by
    1 - sum_i 2 sqrt(p(+e_i) p(-e_i)) cos(pi k_i / (m_i + 1)) > 0, and the
    back mode products diag(r_i^x) S_i: dense per-axis sine transforms run
    as BLAS matmuls in O(n sum_i m_i) flops, whatever the factors of m_i + 1.

    None where the 2 sum_i m_i^2 entries of the axis matrices exceed
    MEMORY_BUDGET, where the spectrum is not positive, or where the scaling
    overflows float64: a zero mean entry makes it infinite, and a drift too
    strong for the box spreads it over more than 2^53.  single is None
    where the scaling spreads over more than float32's 2^24.  The float32
    axis matrices add half the float64 ones' bytes to the budget's.

    M only has to contract: lockstep keeps x, the residual and every
    certificate in float64 and applies M in float32 where it can, which
    halves the bytes its matmuls move (iterative refinement with a
    low-precision inner solve).
    """
    if 2 * sum(m * m for m in shape) > MEMORY_BUDGET:
        return None
    log_r = np.zeros(len(shape))
    spectrum = np.ones(shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, m in enumerate(shape):
            if m == 1:
                continue  # no steps along this axis
            log_r[i] = 0.5 * np.log(p[2 * i + 1] / p[2 * i])
            k = np.arange(1.0, m + 1).reshape([-1 if j == i else 1 for j in range(len(shape))])
            spectrum -= 2.0 * np.sqrt(p[2 * i] * p[2 * i + 1]) * np.cos(np.pi * k / (m + 1))
        # the scaling's log range: sum_i max_x |log r_i^x| on centred x
        span = float(np.dot((np.asarray(shape) - 1) / 2, np.abs(log_r)))
    # each transform adds values across the scaling's whole range, so a
    # range beyond float64's 53-bit (float32's 24-bit) precision loses the
    # small side
    if not (2.0 * span <= 53 * np.log(2.0) and np.all(spectrum > 0)):
        return None
    inv_spectrum = 1.0 / spectrum
    double = [], [], inv_spectrum
    single = [], [], inv_spectrum.astype(np.float32)
    for m, lr in zip(shape, log_r):
        S, S32 = _dst1_matrices(m)
        scale = np.exp((np.arange(1.0, m + 1) - (m + 1) / 2) * lr)
        scale32 = scale.astype(np.float32)
        double[0].append(S / scale)
        double[1].append(scale[:, None] * S)
        single[0].append(S32 / scale32)
        single[1].append(scale32[:, None] * S32)
    return double, (single if 2.0 * span <= 24 * np.log(2.0) else None)


# largest residual entry that a float32 M takes: it leaves 2^64 of float32's
# range for the scaling (at most 2^12), the sine transforms' sums and the
# inverse spectrum
_SINGLE_RANGE = 2.0 ** 64


def _apply_mean_kernel(factors, v):
    """(I - P_bar)^-1 from one precision of `_mean_kernel_factors` applied
    along the trailing axes of v, C-ordered with shape (..., *shape): one
    BLAS matmul per axis for all leading indices.  v is cast to the factors'
    precision, and so is the result, a correction for a float64 caller to
    add; a float32 cast needs max |v| <= _SINGLE_RANGE."""
    forward, back, inv_spectrum = factors
    shape = inv_spectrum.shape
    y = _mode_products(v.astype(inv_spectrum.dtype, copy=False), forward, shape)
    y = y.reshape(v.shape)
    y *= inv_spectrum
    return _mode_products(y, back, shape).reshape(v.shape)


def _mean_kernel(pattern: RegionPattern, weights: np.ndarray, transpose: bool):
    """(w, factors) for a (B, n, 2d) weight block on a box: w holds the
    weights by direction, 0 on the steps out of the box, as (2d, B, n), and
    factors are `_mean_kernel_factors` of (I - P_bar)^-1, or (I - P_bar^T)^-1
    with transpose, where P_bar steps along e with the block's mean weight
    on the inside steps along e."""
    B, nd = weights.shape[0], 2 * pattern.d
    w = np.empty((nd, B, pattern.n))
    for e in range(nd):
        np.multiply(weights[:, :, e], pattern.inside[e], out=w[e])
    p = np.array([w[e].sum() for e in range(nd)]) / (B * np.maximum(pattern.dir_counts, 1))
    # P^T steps back along each direction of P
    return w, _mean_kernel_factors(p[np.arange(nd) ^ 1] if transpose else p, pattern.shape)


def _mean_kernel_inverse(system: QuenchedSystem, transpose: bool):
    """(I - P_bar)^-1 as a float64 LinearOperator, or (I - P_bar^T)^-1 with
    transpose, for the system's mean kernel (`_mean_kernel`); None off boxes
    and wherever `_mean_kernel_factors` gives None."""
    import scipy.sparse.linalg as spla

    pattern, shape = system.pattern, system.pattern.shape
    if shape is None:
        return None
    factors = _mean_kernel(pattern, system.weights[None], transpose)[1]
    if factors is None:
        return None
    double = factors[0]
    return spla.LinearOperator(
        (system.n, system.n), dtype=np.float64,
        matvec=lambda v: _apply_mean_kernel(double, v.reshape(shape)).ravel())


def _krylov_solve(system: QuenchedSystem, b, tol, transpose: bool):
    """BiCGSTAB on I - P, or I - P^T with transpose, preconditioned by the
    mean-kernel inverse; returns (x, iterations).  v - A v is the negated
    residual of v for a zero right-hand side (`_batch_residual` of one)."""
    import scipy.sparse.linalg as spla

    n = b.shape[0]
    pattern, weights, zero = system.pattern, system.weights[None], np.zeros((1, n))
    S = spla.LinearOperator(
        (n, n), dtype=np.float64,
        matvec=lambda v: -_batch_residual(pattern, weights, zero, v[None], transpose).ravel())
    its = 0

    def count(_):
        nonlocal its
        its += 1

    x, _ = spla.bicgstab(S, b, rtol=1e-14, atol=tol / max(1.0, np.sqrt(n)),
                         maxiter=max(200, int(4 * np.sqrt(n)) + 50),
                         M=_mean_kernel_inverse(system, transpose), callback=count)
    return x, its


def _dense_batch(pattern: RegionPattern, weights: np.ndarray, b, transpose: bool) -> np.ndarray:
    """x_k = (I - A_k)^-1 b_k for every environment k of a (B, n, 2d) weight
    block by one stacked dense LU, uncertified; A_k is P_k, or P_k^T with
    transpose.  b is (B, n), or None for the whole inverses (B, n, n)."""
    B, n = weights.shape[:2]
    # I - P assembled in place, one (B, n, n) array
    eye_minus_a = np.zeros((B, n, n))
    keep = pattern.inside_mask
    rows = np.repeat(np.arange(n), 2 * pattern.d)[keep]
    eye_minus_a[:, rows, pattern.nbr.ravel()[keep]] = weights.reshape(B, -1)[:, keep]
    np.subtract(np.eye(n), eye_minus_a, out=eye_minus_a)
    if transpose:
        eye_minus_a = eye_minus_a.transpose(0, 2, 1)
    if b is None:
        return np.linalg.inv(eye_minus_a)
    return np.linalg.solve(eye_minus_a, b[:, :, None])[:, :, 0]


def _banded_solve(system: QuenchedSystem, b, transpose: bool):
    """Band LU on I - P, or I - P^T with transpose."""
    from scipy.linalg import solve_banded

    pattern = system.pattern
    w, n = pattern.band_width, pattern.n
    perm, pos, pos_t = pattern.band_order
    ab = np.zeros((2 * w + 1) * n)
    ab[w * n:(w + 1) * n] = 1.0
    ab[pos_t if transpose else pos] = -system.weights.ravel()[pattern.inside_mask]
    y = solve_banded((w, w), ab.reshape(2 * w + 1, n), b[perm],
                     overwrite_ab=True, overwrite_b=True, check_finite=False)
    x = np.empty(n)
    x[perm] = y
    return x


def _direct_or_krylov(pattern: RegionPattern) -> str:
    """The path without lockstep: dense LU up to DENSE_CUTOFF unknowns;
    above it band LU on a box whose band half-width b has b^2 <= n and
    whose (3b + 1) x n band array fits MEMORY_BUDGET, else Krylov."""
    n, w = pattern.n, pattern.band_width
    if n <= DENSE_CUTOFF:
        return "dense"
    if w is not None and w * w <= n and (3 * w + 1) * n <= MEMORY_BUDGET:
        return "banded"
    return "krylov"


def _cost_us(pattern: RegionPattern, B: int, method: str) -> float:
    """Microseconds of one `solve_batch` call of B environments on a box,
    solve and certificate, by path; Krylov is not modelled (inf).

    Fitted to a recorded table of every path's time per environment on d=2
    and d=3 boxes (kick laws, 7 to 17 M applies per lockstep run, one BLAS
    thread, on a 2-vCPU Intel Xeon virtual machine):
    * lockstep - a fixed cost per call (the mean kernel, and the numpy calls
      of about a dozen iterations), and per environment one small matmul
      per leading index of every sine transform but the last axis's, plus
      the sweeps and transforms per unknown, which grow with the sides;
    * stacked dense LU - a fixed cost per call, and per entry of each
      I - A_k (assembly, LAPACK's copies and the factorization at these
      n), dearer once a slice of _DENSE_SLICE entries outgrows a core's
      cache (2^17 entries);
    * band LU - per unknown, and per unknown and squared half-width b^2.
    Lockstep is inf where its M's axis matrices exceed MEMORY_BUDGET, for
    `_mean_kernel_factors` gives none there.
    """
    n, shape = pattern.n, pattern.shape
    if method == "lockstep":
        if 2 * sum(m * m for m in shape) > MEMORY_BUDGET:
            return math.inf
        small = sum(math.prod(shape[:i]) for i in range(len(shape) - 1))
        return 450.0 + B * (0.9 * small + n * (0.13 + 0.0006 * sum(shape)))
    if method == "dense":
        entries = min(B, max(1, _DENSE_SLICE // (n * n))) * n * n
        return 65.0 + B * n * n * (0.0105 if entries <= 1 << 17 else 0.0135)
    if method == "banded":
        return B * n * (0.23 + 0.00057 * pattern.band_width ** 2)
    return math.inf


def auto_method(pattern: RegionPattern, B: int = 1) -> str:
    """The path of B environments' systems on the pattern, solved together:
    "lockstep" on a box where its modelled cost (`_cost_us`) is below that
    of the path `_direct_or_krylov` names, which it is otherwise.  A single
    solve takes band LU only where that costs under half as much: its first
    call in a process loads scipy.linalg (0.2 s and 26 MB), which a batch
    spreads over its environments and a single solve seldom repays."""
    method = _direct_or_krylov(pattern)
    if pattern.shape is None:
        return method
    alt = _cost_us(pattern, B, method) * (2 if B == 1 and method == "banded" else 1)
    return "lockstep" if _cost_us(pattern, B, "lockstep") < alt else method


def solve_fixed_point(system: QuenchedSystem, b, tol, norm="l1", method="auto",
                      transpose=False):
    """Solve x = b + A x to a certified residual tolerance, where A is the
    system's P, or P^T with transpose: `_solve` of a batch of one.

    Returns (x, SolveInfo); the reported residual norms are recomputed
    exactly from the returned solution, and a NaN residual counts as above
    tol.  SolveInfo.method names the path that produced x (a failed
    lockstep's fallback), and iterations count the lockstep's M applies too.
    """
    if method == "auto":
        method = auto_method(system.pattern)
    x, r, its, method = _solve(system.pattern, system.weights[None], b[None],
                               np.array([tol]), norm, transpose, method)
    r = r[0, :, 0]
    return x[0], SolveInfo(_norm(r, "l1"), _norm(r, "linf"), int(its[0]), method)


# ---------------------------------------------------------------------------
# Solves on a built system
# ---------------------------------------------------------------------------


def solve_green_row(system: QuenchedSystem, src: int, tol: float = DEFAULT_TOL,
                    method: str = "auto") -> tuple[np.ndarray, SolveInfo]:
    """Green row g(src, .) from the row identity g = delta_src + g P.

    The l1 norm of the residual is driven below tol, which also bounds the
    sup-norm defect.
    """
    return solve_fixed_point(system, np.eye(1, system.n, src)[0], tol, norm="l1",
                             method=method, transpose=True)


# B n unknowns per lockstep or per-environment batch: its dozen (B, n)
# arrays, or its (B, n, 2d) weight block, then take a few MB, which keeps
# each elementwise sweep near a core's cache (on a d=2 half-space N=30,
# lockstep batches of 10-34 took half the time per environment of batches
# of 200)
_LOCKSTEP_UNKNOWNS = 1 << 16
# float64 entries (8 MB) of I - A_k blocks per stacked dense LU call; a
# whole batch's (B, n, n) block would set the peak memory of a (B, n) solve
_DENSE_SLICE = 1 << 20
# lockstep iterations before a batch falls back; about where one band LU per
# environment of a d=2 half-space N=20-30 becomes cheaper
_LOCKSTEP_MAX_ITER = 60


def _scaled_tol(tol, b):
    """tol * max(1, ||b_k||_inf) for each right-hand side b_k along b's last
    axis; tol itself for b None (the identity)."""
    if b is None:
        return tol
    return tol * np.fmax(1.0, np.abs(b).max(axis=-1, initial=0.0))


def batch_size(pattern: RegionPattern, inverses: bool = False) -> int:
    """Environments per `solve_batch` call, by the path `auto_method`
    gives a batch of _LOCKSTEP_UNKNOWNS unknowns: lockstep and
    per-environment batches hold that many unknowns, stacked dense ones,
    and whole inverses, B n^2 <= MEMORY_BUDGET entries (the size of B
    whole inverses).  It never depends on the worker count, since callers
    that merge per batch would then follow it."""
    n = pattern.n
    size = int(np.clip(_LOCKSTEP_UNKNOWNS // n, 1, 4096))
    if inverses or auto_method(pattern, size) == "dense":
        return int(np.clip(MEMORY_BUDGET // (n * n), 1, 4096))
    return size


def batch_slices(n: int, size: int) -> list[slice]:
    """range(n) in the fewest consecutive slices none longer than size,
    whose lengths differ by at most one: no batch is a small remainder."""
    k = -(-n // size)
    return [slice(i * n // k, (i + 1) * n // k) for i in range(k)]


def sampled_solves(law: EnvironmentLaw, env_seeds, problems, tol: float = DEFAULT_TOL):
    """Per batch of env_seeds, an iterator of (weights, x) over the problems
    (pattern, b, norm, transpose), each solved by `solve_batch` when reached;
    b may also be a function of (pattern, weights).  The batches are the
    `batch_slices` at the problems' smallest `batch_size`.  Each is sampled
    once (`sample_weights`), on each region or, when it has fewer sites, on
    the smallest box holding them all (a weight depends only on (seed,
    site), so the bits are the same).  A failed solve raises
    FunctionalEvaluationError with its environment's seed."""
    patterns = [p for p, *_ in problems]
    size = min(batch_size(p, inverses=b is None) for p, b, *_ in problems)
    box, gathers = None, [None] * len(problems)
    if len(problems) > 1:  # no box holds one region in fewer sites
        lo = np.min([p.interior.min(axis=0) for p in patterns], axis=0)
        hi = np.max([p.interior.max(axis=0) for p in patterns], axis=0)
        if np.prod(hi - lo + 1) < sum(p.n for p in patterns):
            box = BoxRegion(lo, hi)
            gathers = [box.index_block(p.interior) for p in patterns]

    def solved(seeds):
        union = None if box is None else sample_weights(law, box, seeds)
        for (pattern, b, norm, transpose), gather in zip(problems, gathers):
            w = sample_weights(law, pattern.region, seeds) if gather is None else union[:, gather]
            try:
                x = solve_batch(pattern, w, b(pattern, w) if callable(b) else b, tol, norm,
                                transpose)
            except BatchSolveError as exc:
                raise FunctionalEvaluationError(str(exc), seeds[exc.index]) from exc
            yield w, x

    for part in batch_slices(len(env_seeds), size):
        yield solved(env_seeds[part])


def _lockstep(pattern: RegionPattern, weights: np.ndarray, b: np.ndarray,
              tols: np.ndarray, norm: str = "l1", transpose: bool = True):
    """x_k = b_k + A_k x_k for every environment of a batch on a box, with
    A_k = P_k^T (Green rows) or P_k without transpose (operators), by
    preconditioned Richardson, all environments in lockstep: x <- x + M r,
    r = b - x + A x, with M = (I - P_bar^T)^-1, or (I - P_bar)^-1, for the
    batch's mean kernel P_bar, until every environment's residual in the
    given norm (l1 or sup) is at most its tol.

    x, r and the stopping test are float64; M is applied in float32 where
    `_mean_kernel_factors` gives float32 factors and no entry of r exceeds
    _SINGLE_RANGE (the worst residual bounds them), else in float64.  A
    run fails when an iteration does not shrink the worst residual, or
    after _LOCKSTEP_MAX_ITER iterations; a failed float32 run is re-run
    whole with the float64 M.  Returns (x, applies): x is (B, n), or None
    when M does not exist or the float64 run fails, and applies counts the
    M applications of both precisions."""
    B, n = weights.shape[:2]
    shape, nd, size = pattern.shape, 2 * pattern.d, B * n
    w, factors = _mean_kernel(pattern, weights, transpose)
    if factors is None:
        return None, 0
    w = w.reshape(nd, size)
    # a step along e is a fixed offset in the flat C order of the whole
    # batch; P^T x moves x[y] w[y, e] from y to y + e, and P x gathers
    # w[y, e] x[y + e] into y.  A step out of the box has weight 0, so no
    # offset slice carries mass into another line or environment
    moves = []
    for e in range(nd):
        offset = math.prod(shape[e // 2 + 1:])
        frm, to = slice(0, size - offset), slice(offset, size)
        if e % 2:
            frm, to = to, frm
        # (target, source, weights) of one slice-wise update r[target] += w x[source]
        moves.append((to, frm, w[e, frm]) if transpose else (frm, to, w[e, frm]))
    b_flat = np.empty(size)
    b_flat.reshape(B, n)[:] = b
    applies = 0

    def richardson(factors, limit):
        nonlocal applies
        x, buf = np.zeros((2, size))
        r = b_flat.copy()
        worst = np.inf
        for _ in range(_LOCKSTEP_MAX_ITER):
            x += _apply_mean_kernel(factors, r.reshape(B, *shape)).ravel()
            applies += 1
            np.subtract(b_flat, x, out=r)
            for target, source, wv in moves:
                r[target] += np.multiply(wv, x[source], out=buf[:wv.size])
            res = np.abs(r, out=buf).reshape(B, n)
            res = res.sum(axis=1) if norm == "l1" else res.max(axis=1)
            if (res <= tols).all():
                return x.reshape(B, n)
            last, worst = worst, float(res.max())
            # stagnation (NaN fails too), or a residual beyond M's range
            if not worst < min(last, limit):
                return None
        return None

    double, single = factors
    x = None
    if single is not None and np.abs(b_flat).max(initial=0.0) <= _SINGLE_RANGE:
        x = richardson(single, _SINGLE_RANGE)
    if x is None:
        x = richardson(double, np.inf)
    return x, applies


def _batch_residual(pattern: RegionPattern, weights: np.ndarray, b, x: np.ndarray,
                    transpose: bool) -> np.ndarray:
    """b + A x - x for a `solve_batch` result x, as (B, n, c): c = 1 for
    x (B, n), and c = n for whole inverses x (B, n, n) with b None (the
    identity).  A x comes from the weights and the neighbour table, never
    from a factored matrix: per direction, one gather through
    `RegionPattern.nbr_pad` of a copy with one zero pad row."""
    B, n = weights.shape[:2]
    cols = x.reshape(B, n, -1)
    r = (np.eye(n) if b is None else b[:, :, None]) - cols
    pad = np.zeros((B, n + 1, cols.shape[2]))
    step = np.empty_like(r)
    if not transpose:
        pad[:, :n] = cols
    for e in range(2 * pattern.d):
        w = weights[:, :, e, None]
        if transpose:
            # P^T x at z takes w[y, e] x[y] from the one y with nbr[y, e] = z,
            # which is z's neighbour the other way, nbr[z, e ^ 1]
            np.multiply(w, cols, out=pad[:, :n])
            r += np.take(pad, pattern.nbr_pad[e ^ 1], axis=1, out=step, mode="clip")
        else:
            # P x at y takes w[y, e] x[nbr[y, e]]
            np.take(pad, pattern.nbr_pad[e], axis=1, out=step, mode="clip")
            r += np.multiply(w, step, out=step)
    return r


# A converging fixed-point iteration keeps setting new minima of its
# residual, though not at every step.  In the norm that A contracts (linf
# for P, l1 for P^T) r_k = A^k r_0 never grows, but it holds still, to
# rounding, until the walk from the worst site is killed with a probability
# above rounding: about d D^2 / 74 steps for the symmetric walk at lattice
# distance D from the boundary (far fewer steps than the region has sites),
# and about L / v steps for a walk of speed v that must cross a length L.
# So the iteration stops as stalled only after max(n, _NEUMANN_STALL) steps
# without a new minimum, n the system's sites; the constant covers slow
# crossings of small regions.  A tol below the rounding floor then costs
# that window past the floor instead of MAX_ITER steps.
_NEUMANN_STALL = 1000


def _worst(r: np.ndarray, norm: str) -> np.ndarray:
    """Per environment, the norm (l1 or sup) of its worst column of the
    (B, n, c) absolute residual r."""
    return (r.sum(axis=1) if norm == "l1" else r.max(axis=1)).max(axis=1)


def _certify_batch(pattern: RegionPattern, weights: np.ndarray, b, x: np.ndarray,
                   tols, norm: str, transpose: bool):
    """Hold every environment of a batch result x (`_solve`) to its
    tolerance in tols (`_scaled_tol`): the norm (l1 or sup) of its residual
    b + A x - x (`_batch_residual`, so the certificate also checks the
    assembly).  Environments within it come back untouched.  The others are
    polished together by the plain fixed-point iteration x <- x + r, r
    recomputed from x at every step; one stops as failed at a non-finite
    residual, after MAX_ITER steps, or after max(n, _NEUMANN_STALL) steps
    without a new minimum of its residual (a tol below the rounding floor).

    Returns (x, |r|, steps): x the caller's array, or a polished copy, |r|
    the absolute values of its (B, n, c) residual and steps the polish
    steps per environment.  Once every environment has finished, the
    lowest-index one that failed raises BatchSolveError."""
    B = weights.shape[0]
    r = _batch_residual(pattern, weights, b, x, transpose)
    # in place: a fresh copy made a batch of 400 whole 5x5 inverses 7 % slower
    r = np.abs(r, out=r)
    res = _worst(r, norm)
    steps = np.zeros(B, dtype=np.int64)
    act = np.flatnonzero(~(res <= tols))
    if not act.size:
        return x, r, steps
    tols = np.broadcast_to(tols, (B,))
    x, window, failed = x.copy(), max(pattern.n, _NEUMANN_STALL), []
    best, best_it = np.full(B, np.inf), np.zeros(B, dtype=np.int64)
    # the environments still polished: their weights, b, x and norms, and
    # the signed residual of x once a step has needed it
    w_a, b_a = weights[act], None if b is None else b[act]
    x_a, res_a, r_a = x[act], res[act], None
    it = 0
    while True:
        done = res_a <= tols[act]
        better = res_a < best[act]
        best[act[better]], best_it[act[better]] = res_a[better], it
        stop = done | ~np.isfinite(res_a) | (it == MAX_ITER) | (it - best_it[act] == window)
        if stop.any():
            lost = stop & ~done
            failed += [(int(k), res_k, it) for k, res_k in zip(act[lost], res_a[lost])]
            x[act[stop]], steps[act[stop]] = x_a[stop], it
            if r_a is not None:
                r[act[stop]] = np.abs(r_a[stop])
            if stop.all():
                break
            keep = ~stop
            act, w_a, x_a, res_a = act[keep], w_a[keep], x_a[keep], res_a[keep]
            b_a = None if b_a is None else b_a[keep]
            r_a = None if r_a is None else r_a[keep]
        if r_a is None:
            r_a = _batch_residual(pattern, w_a, b_a, x_a, transpose)
        x_a += r_a.reshape(x_a.shape)
        it += 1
        r_a = _batch_residual(pattern, w_a, b_a, x_a, transpose)
        res_a = _worst(np.abs(r_a), norm)
    if failed:
        k, res_k, it = min(failed)
        raise BatchSolveError(f"fixed-point solve did not reach tol={tols[k]}: residual "
                              f"{res_k:.3e} after {it} iterations", k)
    return x, r, steps


def _solve(pattern: RegionPattern, weights: np.ndarray, b, tols, norm: str,
           transpose: bool, method: str):
    """x_k = b_k + A_k x_k for every environment k of a (B, n, 2d) weight
    block by one path, then `_certify_batch`; A_k is P_k, or P_k^T with
    transpose, and b is (B, n), or None for the whole inverses (dense
    only).  Returns (x, |r|, iterations, method): |r| the absolute residual
    of x, iterations per environment (M applies, BiCGSTAB iterations and polish
    steps), and method the path that produced x."""
    if method not in ("lockstep", "dense", "banded", "krylov", "neumann"):
        raise ValueError(f"unknown solve method {method!r}")
    if method in ("lockstep", "banded") and pattern.shape is None:
        raise ValueError(f"{method} solves need the pattern of a box region")
    B, n = weights.shape[:2]
    its = np.zeros(B, dtype=np.int64)
    if method == "lockstep":
        x, applies = _lockstep(pattern, weights, b, tols, norm, transpose)
        its += applies
        if x is None:
            method = _direct_or_krylov(pattern)
    if method == "dense":
        step = max(1, _DENSE_SLICE // (n * n))
        parts = [_dense_batch(pattern, weights[i:i + step],
                              None if b is None else b[i:i + step], transpose)
                 for i in range(0, B, step)]
        x = parts[0] if len(parts) == 1 else np.concatenate(parts)
    elif method in ("banded", "krylov"):
        def one(k: int):
            system = QuenchedSystem(pattern, weights[k])
            try:
                if method == "banded":
                    return _banded_solve(system, b[k], transpose), 0
                return _krylov_solve(system, b[k], tols[k], transpose)
            except Exception as exc:  # noqa: BLE001 - annotate with the environment
                raise BatchSolveError(str(exc), k) from exc

        solved, k_its = zip(*deterministic_map(one, range(B)))
        x = np.stack(solved)
        its += k_its
    elif method == "neumann":
        x = np.zeros(b.shape)  # the certificate's polish runs from zero
    x, r, polish = _certify_batch(pattern, weights, b, x, tols, norm, transpose)
    return x, r, its + polish, method


def solve_batch(pattern: RegionPattern, weights: np.ndarray, b,
                tol: float = DEFAULT_TOL, norm: str = "l1",
                transpose: bool = False) -> np.ndarray:
    """x_k = b_k + A_k x_k to a certified residual tolerance for every
    environment k whose weights on the pattern's interior are stacked in
    weights (B, n, 2d), with A_k = P_k, or P_k^T with transpose.

    b is (B, n), or (n,) shared by every environment, and x is (B, n); b
    None stands for the identity and gives the whole inverses (B, n, n),
    by stacked dense LU, refused above DENSE_CUTOFF.  Each residual is held
    to `_scaled_tol` in the given norm, on the path of `auto_method(pattern,
    B)` (module docstring).  A failed solve or certificate raises
    BatchSolveError naming the environment.
    """
    B, n = weights.shape[:2]
    if b is None:
        if n > DENSE_CUTOFF:
            raise ValueError(
                "whole Green inverses need dense LU and are only supported up to "
                f"DENSE_CUTOFF={DENSE_CUTOFF} interior sites")
        return _solve(pattern, weights, None, tol, norm, transpose, "dense")[0]
    b = np.asarray(b, dtype=np.float64)
    tols = np.broadcast_to(_scaled_tol(tol, b), (B,))
    b = np.broadcast_to(b, (B, n))
    if B == 1:
        # a batch of one stays a `solve_fixed_point` call: its SolveInfo is
        # what perfbench's traced runs read certified_frac from, and slab-d3
        # runs every environment at B = 1
        return solve_fixed_point(QuenchedSystem(pattern, weights[0]), b[0], tols[0], norm,
                                 transpose=transpose)[0][None]
    return _solve(pattern, weights, b, tols, norm, transpose, auto_method(pattern, B))[0]


def _as_field(f, system: QuenchedSystem) -> np.ndarray:
    if callable(f):
        vals = np.asarray(f(system.pattern.interior), dtype=np.float64)
    else:
        vals = np.asarray(f, dtype=np.float64)
    if vals.shape != (system.n,):
        raise ValueError(f"field must have shape ({system.n},), got {vals.shape}")
    return vals


def solve_green_operator(system: QuenchedSystem, f, tol: float = DEFAULT_TOL,
                         method: str = "auto") -> np.ndarray:
    """G[f] = sum_y g(., y) f(y) at every interior site, from u = f + P u.

    f may be a callable mapping an (N, d) site array to values, or an
    array aligned with the interior enumeration.
    """
    vals = _as_field(f, system)
    return solve_fixed_point(system, vals, _scaled_tol(tol, vals), norm="linf",
                             method=method)[0]


def solve_hitting(system: QuenchedSystem, y_idx: int, tol: float = DEFAULT_TOL,
                  method: str = "auto") -> np.ndarray:
    """h(z) = P_z(walk hits interior site y_idx before exiting), every z."""
    # absorb at the target: zero its row and the steps into it, which
    # become the source
    weights = system.weights.copy()
    z, e = np.nonzero(system.pattern.nbr == y_idx)
    b = np.zeros(system.n)
    b[z] = weights[z, e]
    b[y_idx] = 1.0
    weights[z, e] = 0.0
    weights[y_idx] = 0.0
    absorbing = QuenchedSystem(system.pattern, weights)
    # the absorbing site is a defect of order one that M spreads, so a
    # lockstep run stalls there (`_lockstep`) and auto skips it
    if method == "auto":
        method = _direct_or_krylov(system.pattern)
    return solve_fixed_point(absorbing, b, tol, norm="linf", method=method)[0]


# ---------------------------------------------------------------------------
# Green's function and derived quantities
# ---------------------------------------------------------------------------


@dataclass
class GreenTable:
    """Killed-walk Green's function row from one source site.

    values[i] is the expected number of visits to interior site sites[i]
    before exiting, starting from source.  achieved_tol is the certified
    sup-norm residual of the defining linear identity.
    """

    source: tuple
    sites: np.ndarray
    values: np.ndarray
    achieved_tol: float
    l1_residual: float
    iterations: int
    method: str

    def value_at(self, site) -> float:
        match = np.all(self.sites == np.asarray(site, dtype=np.int64), axis=1)
        idx = np.nonzero(match)[0]
        if idx.size == 0:
            raise KeyError(f"site {tuple(site)} not in table")
        return float(self.values[idx[0]])

    def total(self) -> float:
        return float(self.values.sum())

    def to_csv(self, path, meta: str | None = None) -> None:
        from .reporting import write_csv
        d = self.sites.shape[1]
        header = [f"y{k + 1}" for k in range(d)] + ["green_value"]
        rows = [list(map(int, s)) + [float(v)] for s, v in zip(self.sites, self.values)]
        write_csv(path, header, rows, meta=meta)


def _green_table(system: QuenchedSystem, x, tol: float, method: str) -> GreenTable:
    g, info = solve_green_row(system, system.pattern.source_index(x), tol, method)
    return GreenTable(
        source=tuple(int(c) for c in x),
        sites=system.pattern.interior,
        values=g,
        achieved_tol=info.sup_residual,
        l1_residual=info.l1_residual,
        iterations=info.iterations,
        method=info.method,
    )


def green_row(env: EnvironmentRealization, region: Region, x,
              tol: float = DEFAULT_TOL, method: str = "auto") -> GreenTable:
    """Green's function g(x, .) on the region interior for one environment."""
    return _green_table(build_system(env, region), x, tol, method)


def neumann_green_iterates(env: EnvironmentRealization, region: Region, x,
                           n_iters: int) -> list[np.ndarray]:
    """The first n_iters plain fixed-point iterates of the Green row solve,
    the "neumann" path's polish iterates from zero."""
    system = build_system(env, region)
    pattern, weights = system.pattern, system.weights[None]
    b = np.eye(1, system.n, pattern.source_index(x))
    out, g = [], np.zeros(system.n)
    for _ in range(n_iters):
        # a new array per iterate
        g = g + _batch_residual(pattern, weights, b, g[None], True)[0, :, 0]
        out.append(g)
    return out


def green_operator(env: EnvironmentRealization, region: Region, f, x,
                   tol: float = DEFAULT_TOL, method: str = "auto") -> float:
    """Green operator value sum_y g(x,y) f(y)."""
    system = build_system(env, region)
    return float(solve_green_operator(system, f, tol, method)[system.pattern.source_index(x)])


def hitting_probability_field(env: EnvironmentRealization, region: Region, y,
                              tol: float = DEFAULT_TOL, method: str = "auto") -> np.ndarray:
    """P_z(walk hits y before exiting), for every interior start z."""
    system = build_system(env, region)
    return solve_hitting(system, system.pattern.source_index(y), tol, method)


def hitting_probability(env: EnvironmentRealization, region: Region, z, y,
                        tol: float = DEFAULT_TOL, method: str = "auto") -> float:
    """P_z(hit y before the first exit)."""
    h = hitting_probability_field(env, region, y, tol, method)
    return float(h[region_pattern(region).source_index(z)])


def no_return_probability(env: EnvironmentRealization, region: Region, y,
                          tol: float = DEFAULT_TOL, method: str = "auto") -> float:
    """P_y(no return to y before exiting); exterior neighbors never return."""
    system = build_system(env, region)
    y_idx = system.pattern.source_index(y)
    h = solve_hitting(system, y_idx, tol, method)
    pat = system.pattern
    total = 0.0
    for e in range(2 * pat.d):
        j = pat.nbr[y_idx, e]
        h_nb = float(h[j]) if j >= 0 else 0.0
        total += system.weights[y_idx, e] * (1.0 - h_nb)
    return total


@dataclass
class ExitDistribution:
    """Exact law of the exit position from one start site."""

    start: tuple
    sites: np.ndarray
    masses: np.ndarray
    region: Region
    achieved_tol: float

    def total(self) -> float:
        return float(self.masses.sum())

    def class_mass(self, cls: ExitClass) -> float:
        frontal = np.array([self.region.is_frontal_site(s) for s in self.sites])
        sel = frontal if cls is ExitClass.FRONTAL else ~frontal
        return float(self.masses[sel].sum())

    def frontal_mass(self) -> float:
        return self.class_mass(ExitClass.FRONTAL)

    def to_csv(self, path, meta: str | None = None) -> None:
        from .reporting import write_csv
        d = self.sites.shape[1]
        header = [f"y{k + 1}" for k in range(d)] + ["probability"]
        rows = [list(map(int, s)) + [float(m)] for s, m in zip(self.sites, self.masses)]
        write_csv(path, header, rows, meta=meta)


def exit_distribution(env: EnvironmentRealization, region: Region, x,
                      tol: float = DEFAULT_TOL, method: str = "auto") -> ExitDistribution:
    """Distribution of the walk's position at its first exit from the region."""
    system = build_system(env, region)
    table = _green_table(system, x, tol, method)
    pat = system.pattern
    boundary = region.boundary_array()
    b_index = {tuple(s): i for i, s in enumerate(boundary)}
    masses = np.zeros(boundary.shape[0])
    g = table.values
    for e in range(2 * pat.d):
        outside = pat.nbr[:, e] < 0
        targets = pat.interior[outside] + pat.dirs[e]
        flow = g[outside] * system.weights[outside, e]
        for t, m in zip(targets, flow):
            masses[b_index[tuple(t)]] += m
    return ExitDistribution(
        start=tuple(int(c) for c in x),
        sites=boundary,
        masses=masses,
        region=region,
        achieved_tol=table.achieved_tol,
    )
