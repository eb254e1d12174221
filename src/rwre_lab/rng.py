"""Deterministic randomness utilities.

Two kinds of streams are needed:

* per-site randomness for environment realizations, which must be a pure
  function of (master seed, site coordinates) so that lazily extending a
  realization to new sites is order-independent;
* sequential streams for path simulation, keyed by a counter so that
  execution order never matters.

Site randomness is a splitmix64-style integer mix folded over the
coordinates, one axis at a time.  After axis k a site's hash depends only on
its coordinates along axes 0..k, so the sites of a box hash over the open
mesh of its axes: axis k is folded into the words of the axes before it,
which costs about one mix round per site instead of d.  Walk streams are
numpy Philox generators keyed by (master seed, stream index).
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_INV53 = 1.0 / float(1 << 53)
_S11, _S27, _S30, _S31 = _U64(11), _U64(27), _U64(30), _U64(31)


def _splitmix64(z):
    """One splitmix64 finalization round (vectorized over uint64 arrays).

    Wraparound on add/multiply is the point of the mix.  uint64 arrays wrap
    silently; numpy warns on scalar overflow, so 0-d inputs mix under an
    errstate guard.
    """
    z = np.asarray(z, dtype=_U64)
    if z.ndim:
        return _mix(z)
    with np.errstate(over="ignore"):
        return _mix(z)


def _mix(z):
    z = z + _GAMMA
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def _u64(ints) -> np.ndarray:
    """An integer, or an array or list of integers, as uint64 mod 2^64."""
    if isinstance(ints, (np.ndarray, np.integer)) and ints.dtype.kind in "iu":
        return np.asarray(ints).astype(_U64)
    # Python ints, as `child_seed(...).tolist()` gives them: numpy would
    # round a list of them from 2^63 up to float64, so they convert to
    # uint64 at once, and one by one only beside negative ints or ints from
    # 2^64 up
    try:
        return np.array(ints, dtype=_U64)
    except OverflowError:
        a = np.asarray(ints)
        if a.dtype.kind in "iu":
            return a.astype(_U64)
        reduce = np.frompyfunc(lambda i: int(i) & 0xFFFFFFFFFFFFFFFF, 1, 1)
        return np.asarray(reduce(np.asarray(ints, dtype=object))).astype(_U64)


def _seed_word(seed) -> np.ndarray:
    """Mixed seed word of an integer seed, or of each entry of a seed array (mod 2^64)."""
    return _splitmix64(_u64(seed))


def _fold(words, axes) -> np.ndarray:
    """Fold d per-axis int64 coordinate arrays into mixed seed words, axis 0 first.

    The arrays broadcast against each other and against words: the columns
    of a site list, or the open mesh of a box, whose round k runs on the
    product of axes 0..k only.
    """
    h = words
    for a in axes:
        h = _splitmix64(h ^ a.astype(_U64))
    return h


def _unit(h) -> np.ndarray:
    """Uniform [0,1) variates from the top 53 bits of hashes."""
    return (h >> _S11).astype(np.float64) * _INV53


def site_hash(seed, coords) -> np.ndarray:
    """Mix a master seed with integer site coordinates.

    coords has shape (..., d); returns uint64 of shape (...).  The fold is
    sequential over the d axes, so coordinate permutations hash differently.
    seed is one integer, or an integer array of shape (...) holding one seed
    per coordinate row; row i then hashes exactly as site_hash(seed[i],
    coords[i]) would; seeds of shape (B, 1) on (N, d) coords hash all B*N pairs.

    coords may also be a tuple of the d coordinate arrays, which need only
    broadcast against each other and the seed: it hashes as the stacked
    broadcast would.  The open mesh np.ix_(*axes) of a box hashes its sites
    in C order at about one mix round per site, and seeds of shape
    (B, 1, ..., 1) hash B environments of the box at once.
    """
    if isinstance(coords, tuple):
        coords = [np.asarray(a, dtype=np.int64) for a in coords]
    else:
        coords = np.asarray(coords, dtype=np.int64)
        coords = [coords[..., k] for k in range(coords.shape[-1])]
    return _fold(_seed_word(seed), coords)


def site_uniforms(seed, coords) -> np.ndarray:
    """Uniform [0,1) variates attached to lattice sites, shape (...,)."""
    return _unit(site_hash(seed, coords))


def child_seed(seed: int, *indices):
    """Derive an independent sub-seed from a master seed and integer indices;
    index arrays broadcast and give a uint64 array of the scalar calls' seeds."""
    h = _seed_word(seed)
    for ix in indices:
        h = _splitmix64(h ^ _u64(ix))
    return int(h) if h.ndim == 0 else h


def stream_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream); independent across streams."""
    key = np.array([_seed_word(seed), _seed_word(stream ^ 0x5DEECE66D)], dtype=_U64)
    return np.random.Generator(np.random.Philox(key=key))

