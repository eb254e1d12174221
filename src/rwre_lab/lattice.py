"""Lattice regions: construction, enumeration, and exit classification.

All bounded regions used by the experiments are axis-aligned integer boxes
(slabs, the ballisticity box with its middle-frontal core, the long
corollary box, truncated half-spaces); those get O(1) membership tests and
vectorized interior indexing.  Arbitrary finite site sets (grown clusters
for the drift-infimum probes) are supported through an explicit-set region.

The outer boundary of a region is the set of sites at l1-distance one from
the interior; for a box this is the union of its 2d faces (corners are at
distance two and excluded).  Regions with a distinguished frontal side
classify boundary sites as Frontal when the e1-coordinate reaches the
frontal threshold.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Sequence

import numpy as np


class ExitClass(Enum):
    FRONTAL = "frontal"
    OTHER = "other"


class RegionError(ValueError):
    pass


def _steps(d: int) -> np.ndarray:
    """The 2d unit steps +-e_k, as rows."""
    return np.vstack([np.eye(d, dtype=np.int64), -np.eye(d, dtype=np.int64)])


def _axes(coords) -> list[np.ndarray]:
    """The per-axis int64 coordinate arrays of an (..., d) array, or of a tuple
    of per-axis arrays, which need only broadcast against each other."""
    if isinstance(coords, tuple):
        return [np.asarray(a, dtype=np.int64) for a in coords]
    coords = np.asarray(coords, dtype=np.int64)
    return [coords[..., k] for k in range(coords.shape[-1])]


def _stacked(coords) -> np.ndarray:
    """coords as an (..., d) int64 array: a tuple of per-axis arrays is broadcast and stacked."""
    if isinstance(coords, tuple):
        return np.stack(np.broadcast_arrays(*_axes(coords)), axis=-1)
    return np.asarray(coords, dtype=np.int64)


class Region:
    """Common interface for lattice domains."""

    d: int
    kind: str = "abstract"
    frontal_min: int | None = None  # boundary site is Frontal iff y.e1 >= this

    @property
    def has_frontal(self) -> bool:
        return self.frontal_min is not None

    def contains(self, site) -> bool:
        raise NotImplementedError

    def contains_block(self, coords) -> np.ndarray:
        """Membership of each site of an (..., d) coordinate array, or of the
        broadcast of a tuple of d per-axis arrays (an open mesh); a region
        may answer a mesh in any shape that broadcasts against it."""
        coords = _stacked(coords)
        flat = coords.reshape(-1, self.d)
        return np.array([self.contains(c) for c in flat], dtype=bool).reshape(coords.shape[:-1])

    @property
    def enumerable(self) -> bool:
        return True

    def interior_count(self) -> int:
        raise NotImplementedError

    def interior_array(self) -> np.ndarray:
        """Interior sites as an (N, d) int64 array in lexicographic order."""
        raise NotImplementedError

    def index_block(self, coords) -> np.ndarray:
        """Interior index per coordinate row; -1 for sites outside the interior."""
        raise NotImplementedError

    def boundary_array(self) -> np.ndarray:
        """Outer boundary sites, lexicographically sorted."""
        interior = self.interior_array()
        near = {tuple(s) for s in (interior[:, None] + _steps(self.d)).reshape(-1, self.d)}
        out = sorted(near - {tuple(s) for s in interior})
        return np.array(out, dtype=np.int64).reshape(len(out), self.d)

    def is_frontal_site(self, site) -> bool:
        if self.frontal_min is None:
            raise RegionError(f"region kind {self.kind!r} has no frontal side")
        return int(site[0]) >= self.frontal_min

    def descriptor(self) -> dict:
        raise NotImplementedError


class BoxRegion(Region):
    """Product of per-axis inclusive integer intervals."""

    def __init__(self, lo: Sequence[int], hi: Sequence[int], kind: str = "box",
                 frontal_min: int | None = None):
        self.lo = np.asarray(lo, dtype=np.int64)
        self.hi = np.asarray(hi, dtype=np.int64)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise RegionError("lo and hi must be 1-d and of equal length")
        if np.any(self.hi < self.lo):
            raise RegionError(f"empty box: lo={self.lo.tolist()} hi={self.hi.tolist()}")
        self.d = int(self.lo.shape[0])
        self.kind = kind
        self.frontal_min = frontal_min
        self._shape = (self.hi - self.lo + 1).astype(np.int64)
        self._strides = np.ones(self.d, dtype=np.int64)
        for k in range(self.d - 2, -1, -1):
            self._strides[k] = self._strides[k + 1] * self._shape[k + 1]

    def contains(self, site) -> bool:
        return all(self.lo[k] <= int(site[k]) <= self.hi[k] for k in range(self.d))

    def contains_block(self, coords) -> np.ndarray:
        # one axis at a time: np.all over a short last axis costs several times
        # more, and an open mesh is never stacked
        axes = _axes(coords)
        inside = (axes[0] >= self.lo[0]) & (axes[0] <= self.hi[0])
        for k in range(1, self.d):
            inside = inside & (axes[k] >= self.lo[k]) & (axes[k] <= self.hi[k])
        return inside

    def interior_count(self) -> int:
        return int(np.prod(self._shape))

    def interior_array(self) -> np.ndarray:
        axes = [np.arange(self.lo[k], self.hi[k] + 1, dtype=np.int64) for k in range(self.d)]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=1)

    def index_block(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.int64)
        inside = self.contains_block(coords)
        idx = (coords - self.lo) @ self._strides
        idx[~inside] = -1
        return idx

    def boundary_array(self) -> np.ndarray:
        faces = []
        for k in range(self.d):
            for plane in (self.lo[k] - 1, self.hi[k] + 1):
                axes = [
                    np.arange(self.lo[j], self.hi[j] + 1, dtype=np.int64)
                    if j != k else np.array([plane], dtype=np.int64)
                    for j in range(self.d)
                ]
                grid = np.meshgrid(*axes, indexing="ij")
                faces.append(np.stack([g.ravel() for g in grid], axis=1))
        out = np.concatenate(faces, axis=0)
        order = np.lexsort(out.T[::-1])
        return out[order]

    def descriptor(self) -> dict:
        return {
            "kind": self.kind, "d": self.d,
            "lo": self.lo.tolist(), "hi": self.hi.tolist(),
            "frontal_min": self.frontal_min,
        }


class SlabRegion(BoxRegion):
    """{-L <= y.e1 < L}, truncated laterally to |y.ej| <= W when W is finite.

    Exact solves require the finite truncation; path simulation may run on
    the laterally unbounded slab (W=None) since environments are sampled
    lazily along the path.
    """

    def __init__(self, L: int, W: int | None, d: int):
        if L < 1:
            raise RegionError(f"slab half-width L must be >= 1, got {L}")
        self.L = int(L)
        self.W = None if W is None else int(W)
        if self.W is None:
            # unbounded laterally: membership-only region
            self.d = int(d)
            self.kind = "slab"
            self.frontal_min = self.L
            self._unbounded = True
            return
        if self.W < self.L:
            raise RegionError(f"slab truncation W={W} must be >= L={L}")
        self._unbounded = False
        lo = [-self.L] + [-self.W] * (d - 1)
        hi = [self.L - 1] + [self.W] * (d - 1)
        super().__init__(lo, hi, kind="slab", frontal_min=self.L)

    @property
    def enumerable(self) -> bool:
        return not self._unbounded

    def contains(self, site) -> bool:
        if self._unbounded:
            return -self.L <= int(site[0]) < self.L
        return super().contains(site)

    def contains_block(self, coords) -> np.ndarray:
        if self._unbounded:
            axis = _axes(coords)[0]  # on a mesh, the result broadcasts against it
            return (axis >= -self.L) & (axis < self.L)
        return super().contains_block(coords)

    def _require_bounded(self, what: str):
        if self._unbounded:
            raise RegionError(f"{what} requires a finite lateral truncation W")

    def interior_count(self) -> int:
        self._require_bounded("interior enumeration")
        return super().interior_count()

    def interior_array(self) -> np.ndarray:
        self._require_bounded("interior enumeration")
        return super().interior_array()

    def index_block(self, coords) -> np.ndarray:
        self._require_bounded("interior indexing")
        return super().index_block(coords)

    def boundary_array(self) -> np.ndarray:
        self._require_bounded("boundary enumeration")
        return super().boundary_array()

    def descriptor(self) -> dict:
        return {"kind": "slab", "d": self.d, "L": self.L, "W": self.W}


class BallisticityBox(BoxRegion):
    """{-M/2 < y.e1 < M, |y.ei| < 25 M^3 for i >= 2}, with frontal side y.e1 >= M.

    Integer bounds follow the literal strict inequalities.  The
    middle-frontal core has M/2 <= y.e1 < M and |y.ei| < M^3.
    """

    def __init__(self, M: int, d: int):
        if M < 2:
            raise RegionError(f"ballisticity box needs M >= 2, got {M}")
        self.M = int(M)
        lat = 25 * M ** 3 - 1
        lo = [math.floor(-M / 2) + 1] + [-lat] * (d - 1)
        hi = [M - 1] + [lat] * (d - 1)
        super().__init__(lo, hi, kind="ballisticity_box", frontal_min=M)

    def star_array(self) -> np.ndarray:
        """The middle-frontal core sites, lexicographically sorted."""
        M, d = self.M, self.d
        lat = M ** 3 - 1
        lo = [math.ceil(M / 2)] + [-lat] * (d - 1)
        hi = [M - 1] + [lat] * (d - 1)
        return BoxRegion(lo, hi).interior_array()

    def descriptor(self) -> dict:
        return {"kind": "ballisticity_box", "d": self.d, "M": self.M}


class CorollaryBox(BoxRegion):
    """(-M, M) x (-M^3/4, M^3/4)^(d-1), frontal side y.e1 >= M.

    lateral_cap optionally replaces the M^3/4 half-width by a smaller
    declared truncation for feasibility; the cap is recorded and must be
    declared by callers that use it.
    """

    def __init__(self, M: int, d: int, lateral_cap: int | None = None):
        if M < 2:
            raise RegionError(f"corollary box needs M >= 2, got {M}")
        self.M = int(M)
        full = int(math.ceil(M ** 3 / 4)) - 1
        lat = full if lateral_cap is None else min(full, int(lateral_cap))
        self.lateral_half_width = lat
        self.lateral_capped = lat < full
        lo = [-(M - 1)] + [-lat] * (d - 1)
        hi = [M - 1] + [lat] * (d - 1)
        super().__init__(lo, hi, kind="corollary_box", frontal_min=M)

    def descriptor(self) -> dict:
        return {
            "kind": "corollary_box", "d": self.d, "M": self.M,
            "lateral_half_width": self.lateral_half_width,
            "lateral_capped": self.lateral_capped,
        }


class HalfSpaceTrunc(BoxRegion):
    """Truncation of the half-space {sign * y.e1 >= 0} to depth and width N."""

    def __init__(self, sign: int, N: int, d: int):
        if sign not in (1, -1):
            raise RegionError(f"half-space sign must be +1 or -1, got {sign}")
        if N < 1:
            raise RegionError(f"half-space truncation N must be >= 1, got {N}")
        self.sign = int(sign)
        self.N = int(N)
        lo = [0 if sign > 0 else -N] + [-N] * (d - 1)
        hi = [N if sign > 0 else 0] + [N] * (d - 1)
        super().__init__(lo, hi, kind="half_space", frontal_min=None)

    def descriptor(self) -> dict:
        return {"kind": "half_space", "d": self.d, "sign": self.sign, "N": self.N}


def _row_keys(coords: np.ndarray) -> np.ndarray:
    """Each (..., d) int64 coordinate row as one opaque key, for set membership."""
    rows = np.ascontiguousarray(coords, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[-1])))[..., 0]


class SiteSetRegion(Region):
    """Arbitrary finite region given by an explicit site set."""

    def __init__(self, sites: Iterable, d: int, kind: str = "site_set"):
        self.d = int(d)
        self.kind = kind
        tuples = sorted({tuple(int(c) for c in s) for s in sites})
        if not tuples:
            raise RegionError("site set region must be nonempty")
        for t in tuples:
            if len(t) != d:
                raise RegionError(f"site {t} has wrong dimension (expected {d})")
        self._sites = np.array(tuples, dtype=np.int64)
        self._index = {t: i for i, t in enumerate(tuples)}
        self._keys = np.sort(_row_keys(self._sites))

    def contains(self, site) -> bool:
        return tuple(int(c) for c in site) in self._index

    def contains_block(self, coords) -> np.ndarray:
        keys = _row_keys(_stacked(coords))
        at = np.searchsorted(self._keys, keys).clip(max=len(self._keys) - 1)
        return self._keys[at] == keys

    def interior_count(self) -> int:
        return self._sites.shape[0]

    def interior_array(self) -> np.ndarray:
        return self._sites

    def index_block(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.int64)
        return np.array([self._index.get(tuple(c), -1) for c in coords], dtype=np.int64)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "d": self.d, "sites": [list(s) for s in self._sites]}


def build_region(kind: str, params: dict, d: int) -> Region:
    """Region factory used by experiment configs."""
    kind = kind.replace("-", "_")
    if kind == "box":
        return BoxRegion(params["lo"], params["hi"],
                         frontal_min=params.get("frontal_min"))
    if kind == "slab":
        return SlabRegion(int(params["L"]), params.get("W"), d)
    if kind == "ballisticity_box":
        return BallisticityBox(int(params["M"]), d)
    if kind == "corollary_box":
        return CorollaryBox(int(params["M"]), d, params.get("lateral_cap"))
    if kind == "half_space":
        return HalfSpaceTrunc(int(params.get("sign", 1)), int(params["N"]), d)
    if kind == "site_set":
        return SiteSetRegion(params["sites"], d)
    raise RegionError(f"unknown region kind {kind!r}")


def sites_to_csv(region: Region, path, which: str = "interior") -> None:
    """Dump a region's interior or boundary site list for debugging."""
    from .reporting import write_site_csv
    if which == "interior":
        arr = region.interior_array()
    elif which == "boundary":
        arr = region.boundary_array()
    else:
        raise ValueError("which must be 'interior' or 'boundary'")
    write_site_csv(path, "y", arr, {})


def classify_exit(region: Region, site) -> ExitClass:
    """Classify a boundary site as Frontal or Other.

    The site must lie on the outer boundary (exterior, adjacent to the
    interior) and the region must have a frontal side.
    """
    if region.contains(site):
        raise RegionError(f"site {tuple(site)} is interior, not on the boundary")
    if not any(region.contains(nb) for nb in np.asarray(site) + _steps(region.d)):
        raise RegionError(f"site {tuple(site)} is not adjacent to the region interior")
    return ExitClass.FRONTAL if region.is_frontal_site(site) else ExitClass.OTHER
