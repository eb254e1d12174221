"""Deterministic randomness utilities.

Two kinds of streams are needed:

* per-site randomness for environment realizations, which must be a pure
  function of (master seed, site coordinates) so that lazily extending a
  realization to new sites is order-independent;
* sequential streams for path simulation, keyed by a counter so that
  execution order never matters.

Site randomness is a splitmix64-style integer mix folded over the
coordinates.  Walk streams are numpy Philox generators keyed by
(master seed, stream index).
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_INV53 = 1.0 / float(1 << 53)


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
    z ^= z >> _U64(30)
    z *= _MIX1
    z ^= z >> _U64(27)
    z *= _MIX2
    z ^= z >> _U64(31)
    return z


def _u64(ints) -> np.ndarray:
    """An integer, or an array or list of integers, as uint64 mod 2^64."""
    a = np.asarray(ints)
    if a.dtype.kind not in "iu":  # Python ints numpy would round to float64
        reduce = np.frompyfunc(lambda i: int(i) & 0xFFFFFFFFFFFFFFFF, 1, 1)
        a = np.asarray(reduce(np.asarray(ints, dtype=object)))
    return a.astype(_U64)


def _seed_word(seed) -> np.ndarray:
    """Mixed seed word of an integer seed, or of each entry of a seed array (mod 2^64)."""
    return _splitmix64(_u64(seed))


def _fold(words, coords) -> np.ndarray:
    """Fold coordinate rows (..., d) into mixed seed words broadcast against them."""
    h = words
    for k in range(coords.shape[-1]):
        h = _splitmix64(h ^ coords[..., k].astype(_U64))
    return h


def _unit(h) -> np.ndarray:
    """Uniform [0,1) variates from the top 53 bits of hashes."""
    return (h >> _U64(11)).astype(np.float64) * _INV53


def site_hash(seed, coords) -> np.ndarray:
    """Mix a master seed with integer site coordinates.

    coords has shape (..., d); returns uint64 of shape (...).  The fold is
    sequential over the d axes, so coordinate permutations hash differently.
    seed is one integer, or an integer array of shape (...) holding one seed
    per coordinate row; row i then hashes exactly as site_hash(seed[i],
    coords[i]) would; seeds of shape (B, 1) on (N, d) coords hash all B*N pairs.
    """
    coords = np.asarray(coords, dtype=np.int64)
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

