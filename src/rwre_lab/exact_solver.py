"""Exact quenched computations on finite regions.

Everything here reduces to substochastic linear systems x = b + A x, where
A is built from the environment weights restricted to the region interior
(mass stepping outside is killed).  Killing makes the spectral radius of A
strictly less than one, so the fixed point exists and the Neumann iterates
x_k = sum_{j<k} A^j b increase monotonically to it when b >= 0.

Four solve strategies share one exact certificate: after any solve the
residual r = b + A x - x is recomputed with a fresh matrix-vector product
in the region's own ordering, and its l1/sup norms are reported.

* "dense"   - LU on the assembled (I - A); reference path for small systems.
* "banded"  - LAPACK band LU (gbsv) on a box region, its unknowns reordered
              so the shortest axis runs fastest; the band array is filled
              straight from the region pattern's index arrays.
* "neumann" - the plain fixed-point iteration x += r, r = A r; it stops
              at once on a non-finite residual.
* "krylov"  - BiCGSTAB on (I - A), preconditioned on boxes by the
              mean-kernel DST inverse: (I - P_bar)^-1 for the constant kernel
              P_bar averaged from A by direction, applied in O(n log n) by a
              diagonal scaling that symmetrizes it and two DST-I transforms.
              SolveInfo.iterations counts its iterations plus polish steps.

Every path is held to the tolerance: a direct or Krylov solution whose
residual is above it is polished by Neumann steps from that solution, and
a solve still above it raises `SolverConvergenceError`.

The default ("auto") takes dense LU up to DENSE_CUTOFF unknowns.  Above it,
a box whose band half-width b satisfies b * b <= n and whose (3b + 1) x n
band array fits MEMORY_BUDGET gets the banded path (every d=2 box of
moderate size); everything else, every d=3 region included, gets Krylov.

Every public quantity builds its system once (`build_system`) and solves on
it through `solve_green_row`, `solve_green_operator` or `solve_hitting`;
callers that already hold a system call those directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dstn
from scipy.linalg import solve_banded

from .env_model import EnvironmentRealization, directions
from .lattice import BoxRegion, ExitClass, Region, RegionError

DEFAULT_TOL = 1e-10
DENSE_CUTOFF = 600
MAX_ITER = 500_000
# float64 entries (about 48 MB) that one band array or one batch of dense
# systems may hold
MEMORY_BUDGET = 6_000_000


class SolverConvergenceError(RuntimeError):
    """Fixed-point iteration failed to converge (broken substochasticity?)."""


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
        flat_rows = np.repeat(np.arange(self.n, dtype=np.int64), 2 * self.d)
        flat_cols = nbr.ravel()
        self.inside_mask = flat_cols >= 0
        rows = flat_rows[self.inside_mask]
        cols = flat_cols[self.inside_mask]
        order = np.lexsort((cols, rows))
        self._order = order
        self._indices = cols[order].astype(np.int32)
        counts = np.bincount(rows, minlength=self.n)
        self._indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)

    def matrix(self, weights: np.ndarray) -> sp.csr_matrix:
        data = weights.ravel()[self.inside_mask][self._order]
        return sp.csr_matrix((data, self._indices, self._indptr), shape=(self.n, self.n))

    @property
    def band_width(self) -> int | None:
        """Band half-width of I - P with the shortest box axis fastest.

        Stepping along the longest (slowest) axis moves n / max(shape)
        places; None when the region is not a box.
        """
        if not isinstance(self.region, BoxRegion):
            return None
        return self.n // int(np.max(self.region.hi - self.region.lo + 1))

    @cached_property
    def band_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(perm, pos, pos_t) for banded solves on a box.

        perm[k] is the interior index of the k-th unknown in band order
        (longest axis slowest, shortest fastest).  pos[k] is the flat
        position of the k-th stored entry of P (CSR order) in the
        (2b + 1, n) LAPACK band array of I - P; pos_t is the same for P.T,
        whose CSC view stores the same entries in the same order.
        """
        shape = self.region.hi - self.region.lo + 1
        axes = np.argsort(-shape, kind="stable")
        perm = np.arange(self.n).reshape(tuple(shape)).transpose(axes).ravel()
        inv = np.empty_like(perm)
        inv[perm] = np.arange(self.n)
        rows = inv[np.repeat(np.arange(self.n), np.diff(self._indptr))]
        cols = inv[self._indices]
        b = self.band_width
        return perm, (b + rows - cols) * self.n + cols, (b + cols - rows) * self.n + rows

    @cached_property
    def entry_dirs(self) -> np.ndarray:
        """Direction index (into dirs) of each stored entry of P, in CSR order."""
        return np.tile(np.arange(2 * self.d), self.n)[self.inside_mask][self._order]


def region_pattern(region: Region) -> RegionPattern:
    pat = getattr(region, "_solver_pattern", None)
    if pat is None:
        pat = RegionPattern(region)
        region._solver_pattern = pat
    return pat


class QuenchedSystem:
    """Environment weights bound to a region's sparsity pattern."""

    def __init__(self, env: EnvironmentRealization, region: Region):
        if env.d != region.d:
            raise ValueError("environment and region dimensions differ")
        self.pattern = region_pattern(region)
        self.region = region
        self.env = env
        self.weights = env.weights_block(self.pattern.interior)
        self._P = None

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def P(self) -> sp.csr_matrix:
        if self._P is None:
            self._P = self.pattern.matrix(self.weights)
        return self._P

    def drift_field(self) -> np.ndarray:
        """Local drift along e1 at every interior site."""
        return self.weights[:, 0] - self.weights[:, 1]

    def source_index(self, site) -> int:
        idx = int(self.region.index_block(np.asarray([site], dtype=np.int64))[0])
        if idx < 0:
            raise ValueError(f"site {tuple(site)} is not interior to the region")
        return idx


def build_system(env: EnvironmentRealization, region: Region) -> QuenchedSystem:
    return QuenchedSystem(env, region)


# ---------------------------------------------------------------------------
# Core solves for x = b + A x
# ---------------------------------------------------------------------------


@dataclass
class SolveInfo:
    l1_residual: float
    sup_residual: float
    iterations: int
    method: str


def _residual(A, b, x):
    return b + A @ x - x


def _norm(r, kind):
    if kind == "l1":
        return float(np.abs(r).sum())
    return float(np.abs(r).max(initial=0.0))


def _neumann_solve(A, b, tol, norm="l1", x0=None):
    """Plain fixed-point iteration x += r, r = A r from x0 (default 0);
    returns (x, r, iterations)."""
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = x0.copy()
        r = _residual(A, b, x)
    it = 0
    while not (res := _norm(r, norm)) <= tol:
        if not np.isfinite(res) or it == MAX_ITER:
            raise SolverConvergenceError(
                f"fixed-point solve did not reach tol={tol}: residual {res:.3e} "
                f"after {it} iterations")
        x += r
        r = A @ r
        it += 1
    return x, r, it


def _on_pattern(A, pattern) -> bool:
    """Whether A is a CSR or CSC matrix on the pattern's own index arrays:
    P, its CSC view P.T, or a copy of P with entries zeroed."""
    return (sp.issparse(A) and A.format in ("csr", "csc")
            and np.array_equal(A.indptr, pattern._indptr)
            and np.array_equal(A.indices, pattern._indices))


def _mean_kernel_inverse(A, pattern):
    """(I - P_bar)^-1 as a LinearOperator, where P_bar steps in each direction
    with the mean of A's entries in that direction, or None.

    On a box with killing, I - P_bar is a Kronecker sum of tridiagonal
    Toeplitz operators.  Scaling axis i by r_i^x_i, r_i = sqrt(p(-e_i) /
    p(+e_i)), makes each one symmetric; its sine eigenvectors make the
    inverse two orthonormal DST-I transforms around a division by
    1 - sum_i 2 sqrt(p(+e_i) p(-e_i)) cos(pi k_i / (m_i + 1)) > 0.  None
    off boxes, off the pattern's structure, where the spectrum is not
    positive, or where the scaling overflows float64: a zero mean entry
    makes it infinite, and a drift too strong for the box spreads it over
    more than 2^53.
    """
    if pattern is None or pattern.band_width is None or not _on_pattern(A, pattern):
        return None
    # A steps along the entry's direction of P; the CSC view P.T steps back
    dirs = pattern.entry_dirs if A.format == "csr" else pattern.entry_dirs ^ 1
    ndir = 2 * pattern.d
    p = np.bincount(dirs, weights=A.data, minlength=ndir) / np.maximum(
        np.bincount(dirs, minlength=ndir), 1)
    shape = tuple(pattern.region.hi - pattern.region.lo + 1)
    log_scale = np.zeros(shape)
    spectrum = np.ones(shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, m in enumerate(shape):
            if m == 1:
                continue  # no steps along this axis
            k = np.arange(1.0, m + 1).reshape([-1 if j == i else 1 for j in range(len(shape))])
            log_scale += (k - (m + 1) / 2) * (0.5 * np.log(p[2 * i + 1] / p[2 * i]))
            spectrum -= 2.0 * np.sqrt(p[2 * i] * p[2 * i + 1]) * np.cos(np.pi * k / (m + 1))
    # each transform adds values across the scaling's whole range, so a
    # range beyond float64's 53-bit precision loses the small side
    if not (2.0 * np.abs(log_scale).max() <= 53 * np.log(2.0) and np.all(spectrum > 0)):
        return None
    scale = np.exp(log_scale).ravel()
    unscale = 1.0 / scale
    inv_spectrum = 1.0 / spectrum

    def apply(v):
        y = dstn((unscale * v.ravel()).reshape(shape), type=1, norm="ortho",
                 overwrite_x=True)
        y *= inv_spectrum
        return scale * dstn(y, type=1, norm="ortho", overwrite_x=True).ravel()

    n = pattern.n
    return spla.LinearOperator((n, n), matvec=apply, dtype=np.float64)


def _krylov_solve(A, b, tol, pattern=None):
    """BiCGSTAB on I - A; returns (x, iterations)."""
    n = b.shape[0]
    S = sp.identity(n, format="csr") - A
    atol = tol / max(1.0, np.sqrt(n))
    its = 0

    def count(_):
        nonlocal its
        its += 1

    x, _ = spla.bicgstab(S, b, rtol=1e-14, atol=atol,
                         maxiter=max(200, int(4 * np.sqrt(n)) + 50),
                         M=_mean_kernel_inverse(A, pattern), callback=count)
    return x, its


def _dense_solve(A, b):
    n = b.shape[0]
    return np.linalg.solve(np.eye(n) - (A.toarray() if sp.issparse(A) else np.asarray(A)), b)


def _banded_solve(A, b, pattern):
    """Band LU on I - A, where A is P, P.T or P with entries zeroed."""
    w = None if pattern is None else pattern.band_width
    if w is None:
        raise ValueError("banded solves need the pattern of a box region")
    if not _on_pattern(A, pattern):
        raise ValueError("banded solves need A on the pattern's own sparsity structure")
    n = pattern.n
    perm, pos, pos_t = pattern.band_order
    ab = np.zeros((2 * w + 1) * n)
    ab[w * n:(w + 1) * n] = 1.0
    ab[pos if A.format == "csr" else pos_t] = -A.data
    y = solve_banded((w, w), ab.reshape(2 * w + 1, n), b[perm],
                     overwrite_ab=True, overwrite_b=True, check_finite=False)
    x = np.empty(n)
    x[perm] = y
    return x


def auto_method(n: int, pattern: RegionPattern | None = None) -> str:
    """The path method="auto" takes for n unknowns on the given pattern."""
    if n <= DENSE_CUTOFF:
        return "dense"
    w = None if pattern is None else pattern.band_width
    if w is not None and w * w <= n and (3 * w + 1) * n <= MEMORY_BUDGET:
        return "banded"
    return "krylov"


def solve_fixed_point(A, b, tol, norm="l1", method="auto", pattern=None):
    """Solve x = b + A x to a certified residual tolerance.

    pattern is the RegionPattern that A (P, P.T, or a copy of P with
    entries zeroed) was built on; the banded path needs it, and "auto"
    picks that path only when it is given.  Returns (x, SolveInfo); the
    reported residual norms are recomputed exactly from the returned
    solution, and a NaN residual counts as above tol.
    """
    n = b.shape[0]
    if method == "auto":
        method = auto_method(n, pattern)
    it = 0
    if method == "dense":
        x = _dense_solve(A, b)
    elif method == "banded":
        x = _banded_solve(A, b, pattern)
    elif method == "krylov":
        x, it = _krylov_solve(A, b, tol, pattern=pattern)
    elif method == "neumann":
        x, r, it = _neumann_solve(A, b, tol, norm=norm)
    else:
        raise ValueError(f"unknown solve method {method!r}")
    if method != "neumann":
        r = _residual(A, b, x)
        if not _norm(r, norm) <= tol:
            # polish with the certified fixed-point iteration
            x, r, polish = _neumann_solve(A, b, tol, norm=norm, x0=x)
            it += polish
    info = SolveInfo(
        l1_residual=float(np.abs(r).sum()),
        sup_residual=float(np.abs(r).max(initial=0.0)),
        iterations=it,
        method=method,
    )
    if not info.sup_residual <= tol:
        raise SolverConvergenceError(
            f"residual {info.sup_residual:.3e} above tolerance {tol}")
    return x, info


# ---------------------------------------------------------------------------
# Solves on a built system
# ---------------------------------------------------------------------------


def solve_green_row(system: QuenchedSystem, src: int, tol: float = DEFAULT_TOL,
                    method: str = "auto") -> tuple[np.ndarray, SolveInfo]:
    """Green row g(src, .) from the row identity g = delta_src + g P.

    The l1 norm of the residual is driven below tol, which also bounds the
    sup-norm defect.
    """
    b = np.zeros(system.n)
    b[src] = 1.0
    return solve_fixed_point(system.P.T, b, tol, norm="l1", method=method,
                             pattern=system.pattern)


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
    scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
    u, _ = solve_fixed_point(system.P, vals, tol * scale, norm="linf", method=method,
                             pattern=system.pattern)
    return u


def solve_hitting(system: QuenchedSystem, y_idx: int, tol: float = DEFAULT_TOL,
                  method: str = "auto") -> np.ndarray:
    """h(z) = P_z(walk hits interior site y_idx before exiting), every z."""
    A = system.P.tocsr(copy=True)
    b = np.asarray(A[:, y_idx].todense()).ravel()
    # absorb at the target: zero its row and column, feed the column as source
    A.data[A.indptr[y_idx]:A.indptr[y_idx + 1]] = 0.0
    A.data[A.indices == y_idx] = 0.0
    b[y_idx] = 1.0
    h, _ = solve_fixed_point(A, b, tol, norm="linf", method=method,
                             pattern=system.pattern)
    return h


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
    g, info = solve_green_row(system, system.source_index(x), tol, method)
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
    """The first n_iters plain fixed-point iterates of the Green row solve."""
    system = build_system(env, region)
    PT = system.P.T
    out = []
    g = np.zeros(system.n)
    r = np.zeros(system.n)
    r[system.source_index(x)] = 1.0
    for _ in range(n_iters):
        g = g + r
        r = PT @ r
        out.append(g.copy())
    return out


def green_operator_field(env: EnvironmentRealization, region: Region, f,
                         tol: float = DEFAULT_TOL, method: str = "auto") -> np.ndarray:
    """G[f] at every interior site: expected path sum of f before exit."""
    return solve_green_operator(build_system(env, region), f, tol, method)


def green_operator(env: EnvironmentRealization, region: Region, f, x,
                   tol: float = DEFAULT_TOL, method: str = "auto") -> float:
    """Green operator value sum_y g(x,y) f(y)."""
    system = build_system(env, region)
    return float(solve_green_operator(system, f, tol, method)[system.source_index(x)])


def hitting_probability_field(env: EnvironmentRealization, region: Region, y,
                              tol: float = DEFAULT_TOL, method: str = "auto") -> np.ndarray:
    """P_z(walk hits y before exiting), for every interior start z."""
    system = build_system(env, region)
    return solve_hitting(system, system.source_index(y), tol, method)


def hitting_probability(env: EnvironmentRealization, region: Region, z, y,
                        tol: float = DEFAULT_TOL, method: str = "auto") -> float:
    """P_z(hit y before the first exit)."""
    system = build_system(env, region)
    h = solve_hitting(system, system.source_index(y), tol, method)
    return float(h[system.source_index(z)])


def no_return_probability(env: EnvironmentRealization, region: Region, y,
                          tol: float = DEFAULT_TOL, method: str = "auto") -> float:
    """P_y(no return to y before exiting); exterior neighbors never return."""
    system = build_system(env, region)
    y_idx = system.source_index(y)
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
        if not np.any(outside):
            continue
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
