"""Quenched path simulation and annealed Monte Carlo estimates.

Annealed estimates draw one fresh environment per walk, matching the
product structure of the averaged law exactly.  One vectorized walker,
`annealed_walks`, serves every annealed estimate: it advances all walks of
a chunk together, looking up each walk's weights from that walk's own
environment seed, so environments are sampled lazily along the paths and
laterally unbounded regions need no truncation.  The walks advance in
blocks of S steps: a block samples each walk's tile, the atoms of the sites
within S - 1 steps of it, in one hash, and its steps move an index within
the tiles.  S depends only on the live walk count and d (`_block_steps`):
few walks take long blocks, many walks single steps.  A fixed-length block
knows all its uniforms up front, so when the law has few enough atoms
(S K <= (2S - 1)^d) it tabulates the tile-index shift of every (step, walk,
atom) and each step is two gathers; exit walks, single steps and laws with
more atoms compare each walk's cumulative step row with its uniform.  Sites
hash as they would alone and the uniforms come from the chunk's stream in
step order, so the finals do not depend on S.  The walker dispatches on the
size of the law's support: a one-atom law (a deterministic environment)
skips the site hash.
`run_quenched_walk` simulates single paths in one given environment.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import env_model, rng
from .env_model import EnvironmentLaw, EnvironmentRealization, directions, sample_environment
from .lattice import ExitClass, Region
from .runtime import deterministic_map

DEFAULT_STEP_BUDGET = 10 ** 9


class StepBudgetError(RuntimeError):
    """A walk exceeded its step budget before its stop rule fired."""


class FunctionalEvaluationError(RuntimeError):
    """Exact functional failed for one environment; carries the replay seed."""

    def __init__(self, message: str, env_seed: int):
        super().__init__(f"{message} (replay environment seed: {env_seed})")
        self.env_seed = env_seed


# ---------------------------------------------------------------------------
# Estimates
# ---------------------------------------------------------------------------


# Every float64 is an integer multiple of 2**-1074.  Samples all below
# _TINY in magnitude are kept as exact integer sums on that grid, because
# their mean and m2 would otherwise be rounded on the subnormal grid, in an
# order that depends on how the shards were merged.
_GRID_EXP = 1074
_TINY = 2.0 ** -256


@dataclass
class MCEstimate:
    """Monte Carlo mean with standard error; merging shards is exact.

    Carries the pooled moments (n, mean, m2), m2 being the sum of squared
    deviations from the mean, and merges them with the pairwise update of
    Chan, Golub & LeVeque, so no variance is formed as a difference of
    large sums.  Tiny samples (all below 2**-256, zeros included) carry
    instead `grid`, the exact sums of samples * 2**1074 and of their
    squares; these merge by integer addition, so pooled and merged
    estimates of such samples agree bit for bit.
    """

    mean: float
    se: float
    n: int
    seed: int
    m2: float = 0.0
    grid: tuple[int, int] | None = field(default=None, repr=False)

    @classmethod
    def from_samples(cls, samples, seed: int) -> "MCEstimate":
        """Two-pass moments centred on the first sample, so bit-identical
        samples give m2 == 0 and the sample itself as the mean."""
        x = np.asarray(samples, dtype=np.float64)
        if x.shape[0] == 0:
            return cls.from_moments(0, math.nan, 0.0, seed)
        top = np.abs(x).max()
        if top < _TINY:
            g = [int(v) for v in np.ldexp(x, _GRID_EXP)] if top else []
            return cls._from_grid(x.shape[0], sum(g), sum(v * v for v in g), seed)
        dev = x - x[0]
        shift = dev.mean()
        return cls.from_moments(x.shape[0], float(x[0] + shift),
                                float(((dev - shift) ** 2).sum()), seed)

    @classmethod
    def from_moments(cls, n: int, mean: float, m2: float, seed: int) -> "MCEstimate":
        se = math.sqrt(m2 / (n - 1) / n) if n > 1 else math.nan
        return cls(mean=mean, se=se, n=n, seed=seed, m2=m2)

    @classmethod
    def _from_grid(cls, n: int, s1: int, s2: int, seed: int) -> "MCEstimate":
        """Estimate from s1 = sum(X), s2 = sum(X * X), X = sample * 2**1074."""
        c = n * s2 - s1 * s1  # n * m2 on the squared grid, exact
        se = (math.ldexp(math.isqrt((c << 128) // (n * n * (n - 1))), -64 - _GRID_EXP)
              if n > 1 else math.nan)
        return cls(mean=s1 / (n << _GRID_EXP), se=se, n=n, seed=seed,
                   m2=c / (n << 2 * _GRID_EXP), grid=(s1, s2))

    def merge(self, other: "MCEstimate") -> "MCEstimate":
        if other.n == 0:
            return replace(self)
        if self.n == 0:
            return replace(other, seed=self.seed)
        n = self.n + other.n
        if self.grid is not None and other.grid is not None:
            return MCEstimate._from_grid(n, self.grid[0] + other.grid[0],
                                         self.grid[1] + other.grid[1], self.seed)
        delta = other.mean - self.mean
        return MCEstimate.from_moments(
            n,
            self.mean + delta * (other.n / n),
            self.m2 + other.m2 + delta * delta * (self.n * other.n / n),
            self.seed,
        )

    def to_dict(self) -> dict:
        return {"mean": self.mean, "se": self.se, "n": self.n, "seed": self.seed}


# ---------------------------------------------------------------------------
# Stop rules and outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExitRegion:
    region: Region


@dataclass(frozen=True)
class HitSiteOrExit:
    site: tuple
    region: Region


@dataclass(frozen=True)
class FixedSteps:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("FixedSteps needs n >= 0")


StopRule = ExitRegion | HitSiteOrExit | FixedSteps


@dataclass
class WalkOutcome:
    final: tuple
    steps: int
    exit_class: ExitClass | None = None
    hit_target: bool | None = None
    visits: dict | None = None


def _exit_class_of(region: Region, site) -> ExitClass | None:
    if not region.has_frontal:
        return None
    return ExitClass.FRONTAL if region.is_frontal_site(site) else ExitClass.OTHER


def run_quenched_walk(env: EnvironmentRealization, start, stop_rule: StopRule,
                      rng_stream: np.random.Generator | int,
                      step_budget: int = DEFAULT_STEP_BUDGET,
                      track_visits: bool = False) -> WalkOutcome:
    """Simulate one walk in a fixed environment until its stop rule fires."""
    gen = rng_stream if isinstance(rng_stream, np.random.Generator) \
        else rng.stream_generator(int(rng_stream))
    d = env.d
    dirs = [tuple(int(c) for c in v) for v in directions(d)]
    cum_cache: dict[tuple, tuple] = {}
    pos = tuple(int(c) for c in start)
    visits: dict | None = {} if track_visits else None

    if isinstance(stop_rule, FixedSteps):
        budget = stop_rule.n
        region = None
        target = None
    elif isinstance(stop_rule, ExitRegion):
        region = stop_rule.region
        target = None
        budget = step_budget
        if not region.contains(pos):
            raise ValueError(f"start {pos} is outside the stop region")
    else:
        region = stop_rule.region
        target = tuple(int(c) for c in stop_rule.site)
        budget = step_budget
        if not region.contains(pos):
            raise ValueError(f"start {pos} is outside the stop region")

    steps = 0
    while True:
        if visits is not None:
            visits[pos] = visits.get(pos, 0) + 1
        if isinstance(stop_rule, FixedSteps):
            if steps >= budget:
                return WalkOutcome(pos, steps, None, None, visits)
        else:
            if target is not None and pos == target:
                return WalkOutcome(pos, steps, None, True, visits)
            if not region.contains(pos):
                return WalkOutcome(pos, steps, _exit_class_of(region, pos),
                                   False if target is not None else None, visits)
            if steps >= step_budget:
                raise StepBudgetError(
                    f"walk exceeded step budget {step_budget} before stopping")
        cum = cum_cache.get(pos)
        if cum is None:
            cum = tuple(np.cumsum(env.weights(pos)))
            cum_cache[pos] = cum
        k = bisect.bisect_right(cum, gen.random())
        if k >= len(dirs):
            k = len(dirs) - 1
        step = dirs[k]
        pos = tuple(p + s for p, s in zip(pos, step))
        steps += 1


# ---------------------------------------------------------------------------
# Annealed walks
# ---------------------------------------------------------------------------

# Walks stepped together.  Each chunk has its own Philox stream, so a full
# chunk's walks do not depend on the chunks that follow it, and memory per
# chunk stays bounded however many walks a call asks for.
WALK_CHUNK = 1 << 14

# The tiles of one block hold at most _TILE_SITES / d sites over all its
# walks (a site's coordinates and step row grow with d), and a block takes at
# least _MIN_BLOCK steps or is a single step; see _block_steps.  Measured on a
# 2-vCPU host (kick law, per-step cost with S forced): the best S held
# 3000-7000 tile sites for 8 to 256 walks in d=2 and 2000-3400 for 1 to 16
# walks in d=3; S = 2 never beat single steps (d=2, 256 walks: 66 against
# 65 us per step; d=3, 64 walks: 67 against 60), while S = 3 won from 128
# walks down in d=2 and from 16 down in d=3.
_TILE_SITES = 8192
_MIN_BLOCK = 3


def _block_steps(w: int, d: int) -> int:
    """Steps per block for w live walks in d dimensions: the largest S with
    w (2S - 1)^d <= _TILE_SITES / d, or 1 when that S is below _MIN_BLOCK."""
    s = 1
    while w * (2 * s + 1) ** d * d <= _TILE_SITES:
        s += 1
    return s if s >= _MIN_BLOCK else 1


@functools.lru_cache(maxsize=None)
def _moves(d: int) -> np.ndarray:
    """Row k is the move of a step whose uniform reached k thresholds of its
    site's cumulative step row: the 2d directions, then the last one again
    (a row's last threshold may round below 1)."""
    dirs = directions(d)
    moves = np.vstack([dirs, dirs[-1]])
    moves.setflags(write=False)
    return moves


@functools.lru_cache(maxsize=None)
def _tile(S: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A block's tile geometry: the offset of each of the (2S - 1)^d tile
    sites from the tile's centre, in tile-index (C mesh) order, and the
    tile-index change of each row of _moves(d)."""
    side = 2 * S - 1
    offsets = np.stack(np.unravel_index(np.arange(side ** d), (side,) * d), axis=-1) - (S - 1)
    shift = _moves(d) @ side ** np.arange(d - 1, -1, -1)
    offsets.setflags(write=False)
    shift.setflags(write=False)
    return offsets, shift


def annealed_walks(law: EnvironmentLaw, starts, stop_rule: ExitRegion | FixedSteps,
                   seed: int, step_budget: int = DEFAULT_STEP_BUDGET) -> np.ndarray:
    """Final sites of annealed walks, one walk and one fresh environment per start.

    starts has shape (n, d); the result has the same shape.  Walks are cut
    into chunks of WALK_CHUNK.  Walk w of chunk c walks in the environment
    sample_environment(law, seed=rng.child_seed(seed, c, w)), the same at
    every revisit, and the steps of the chunk come from
    rng.stream_generator(seed, c).  A walk that has not left an ExitRegion
    after step_budget steps raises StepBudgetError.

    The live walks of a chunk advance in blocks of S steps, S = _block_steps
    of the live count and d.  A block of S > 1 hashes each walk's tile, the
    (2S-1)^d sites within S - 1 steps of where the block starts, in one fold
    over an open mesh, and draws each site's atom once (for an ExitRegion,
    its membership too, one axis at a time on the mesh of a box); its steps
    then move a tile index.  Under FixedSteps a block draws its (S, n)
    uniforms in one call, and when the (S, n, K) table of tile-index shifts
    (walk w at step s from a site of atom a) is no larger than the tiles,
    S K <= (2S-1)^d, each step is two gathers through that table.  Other
    blocks (single steps, ExitRegion, laws with more atoms) compare each
    walk's cumulative step row with its uniform.  Every site draws exactly
    as it would alone, and the uniforms come from the chunk's stream in step
    order, one per live walk per step, so finals do not depend on S.  No
    block runs past the step budget, so StepBudgetError fires at the same
    step as well.
    """
    probs, vecs = law.support()  # UnsupportedFamilyError without a homogeneous table
    K = probs.shape[0]
    cdf, step_cum = np.cumsum(probs), np.cumsum(vecs, axis=1)
    d = law.d
    moves = _moves(d)
    ones = np.ones(2 * d, dtype=np.uint8)
    finals = np.array(starts, dtype=np.int64).reshape(-1, d)
    if isinstance(stop_rule, FixedSteps):
        region, budget = None, stop_rule.n
    elif isinstance(stop_rule, ExitRegion):
        region, budget = stop_rule.region, step_budget
        outside = ~region.contains_block(finals)
        if outside.any():
            raise ValueError(
                f"start {tuple(finals[outside][0].tolist())} is outside the stop region")
    else:
        raise ValueError("annealed walks stop on ExitRegion or FixedSteps")

    for c, lo in enumerate(range(0, finals.shape[0], WALK_CHUNK)):
        pos = finals[lo:lo + WALK_CHUNK]  # a view: steps land in finals
        gen = rng.stream_generator(seed, c)
        if region is None and K == 1:
            # the step law is the same at every site, so the final site only
            # depends on how many of the steps went each way
            pos += gen.multinomial(budget, vecs[0], size=len(pos)) @ directions(d)
            continue
        live = np.arange(len(pos))
        if K > 1:
            # seed words mixed once per chunk, so a block only folds in its sites
            words = rng._seed_word(rng.child_seed(seed, c, live))
        steps = 0
        while live.size:
            if steps == budget:
                if region is None:
                    break
                raise StepBudgetError(
                    f"walk exceeded step budget {budget} before stopping")
            n = live.size
            S = min(_block_steps(n, d), budget - steps)
            steps += S  # a block that every walk leaves early ends the chunk
            here = pos.take(live, axis=0)
            if S == 1:  # one step from where each walk stands: no tile
                if K == 1:
                    rows = step_cum[0]
                else:
                    h = rng._fold(words.take(live), here.T)
                    rows = env_model._draw(cdf, step_cum, rng._unit(h))
                k = (rows <= gen.random(n)[:, None]).view(np.uint8) @ ones
                here += moves.take(k, axis=0)
            else:
                here += _tile_block(gen, here, words.take(live) if K > 1 else None,
                                    S, cdf, step_cum, region)
            pos[live] = here
            if region is not None:
                live = live[region.contains_block(here)]
    return finals


def _tile_block(gen: np.random.Generator, here: np.ndarray, words, S: int,
                cdf: np.ndarray, step_cum: np.ndarray, region: Region | None) -> np.ndarray:
    """Displacement of each of the n walks standing at here over one block of
    S > 1 steps (those that leave the region stop where they leave it).
    words holds the walks' mixed environment seeds, None for a one-atom law."""
    n, d = here.shape
    K = cdf.shape[0]
    ones = np.ones(2 * d, dtype=np.uint8)
    moves = _moves(d)
    offsets, shift = _tile(S, d)
    side, size = 2 * S - 1, offsets.shape[0]
    # the tile's open mesh: walk on axis 0, offsets 1-S..S-1 on axis k + 1
    span = np.arange(1 - S, S)
    axes = tuple(here[:, k].reshape((n,) + (1,) * d) + span.reshape((side,) + (1,) * (d - 1 - k))
                 for k in range(d))
    if K > 1:
        h = rng._fold(words.reshape((n,) + (1,) * d), axes)
        atom = env_model._atom_index(cdf, rng._unit(h)).reshape(-1)
    # tile index of every walk (f: of the walks still in), each starting at
    # its tile's centre
    base = np.arange(0, n * size, size)
    f = flat = base + size // 2
    if region is None and S * K <= size:
        # move index of walk w at step s from a site of atom a: the thresholds
        # of the atom's cumulative row that the step's uniform reached
        k_tab = (step_cum <= gen.random((S, n))[:, :, None, None]).view(np.uint8) @ ones
        shift_tab = shift.take(k_tab[:-1].reshape(S - 1, n * K))
        code = (atom.reshape(n, size) + np.arange(0, n * K, K)[:, None]).reshape(-1)
        for row in shift_tab:
            f += row.take(code.take(f))
        k = k_tab[-1].reshape(-1).take(code.take(f))
        return offsets.take(f - base, axis=0) + moves.take(k, axis=0)
    tile = step_cum.take(atom, axis=0) if K > 1 else None
    if region is None:
        u_block = gen.random((S, n))
    else:
        inside = np.empty((n,) + (side,) * d, dtype=bool)
        inside[...] = region.contains_block(axes)  # which broadcasts against the mesh
        inside = inside.reshape(-1)
    act = np.arange(n)
    for s in range(S):
        u = u_block[s] if region is None else gen.random(act.size)
        rows = step_cum[0] if tile is None else tile.take(f, axis=0)
        k = (rows <= u[:, None]).view(np.uint8) @ ones  # thresholds each uniform reached
        if s == S - 1:
            break  # the last step may leave the tile: applied below
        f = f + shift.take(k)
        if region is None:
            flat = f
        else:
            flat[act] = f
            keep = inside.take(f)
            act, f = act[keep], f[keep]
            if not act.size:
                break
    out = offsets.take(flat - base, axis=0)
    if act.size == n:
        out += moves.take(k, axis=0)
    elif act.size:  # walks that left before the last step stay where they left
        out[act] += moves.take(k, axis=0)
    return out


EVENT_EXIT_FRONTAL = "exit-frontal"
EVENT_EXIT_NOT_FRONTAL = "exit-not-frontal"


def annealed_event_probability(law: EnvironmentLaw, region: Region, start, event: str,
                               n: int, seed: int,
                               step_budget: int = DEFAULT_STEP_BUDGET) -> MCEstimate:
    """Estimate the averaged-law probability of an exit event from `start`.

    One fresh environment per walk.  `event` is "exit-frontal" or
    "exit-not-frontal".
    """
    if event not in (EVENT_EXIT_FRONTAL, EVENT_EXIT_NOT_FRONTAL):
        raise ValueError(f"unknown exit event {event!r}")
    if not region.has_frontal:
        raise ValueError("named exit events need a region with a frontal side")
    if n < 1:
        raise ValueError(f"the exit probability needs n >= 1 walks, got {n}")
    starts = np.broadcast_to(np.asarray(start, dtype=np.int64), (n, law.d))
    finals = annealed_walks(law, starts, ExitRegion(region), seed, step_budget)
    frontal = finals[:, 0] >= region.frontal_min
    hits = frontal if event == EVENT_EXIT_FRONTAL else ~frontal
    return MCEstimate.from_samples(hits.astype(np.float64), seed)


def estimate_velocity(law: EnvironmentLaw, n_steps: int, n_walks: int,
                      seed: int) -> MCEstimate:
    """Annealed estimate of the n-step average displacement along e1."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_walks < 1:
        raise ValueError(f"n_walks must be >= 1, got {n_walks}")
    finals = annealed_walks(law, np.zeros((n_walks, law.d), dtype=np.int64),
                            FixedSteps(n_steps), seed)
    return MCEstimate.from_samples(finals[:, 0] / n_steps, seed)


# ---------------------------------------------------------------------------
# Empirical distributions of exact per-environment functionals
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalDistribution:
    """Exact functional values across independent environments (no inner MC noise).

    The moments are those of `MCEstimate.from_samples`, centred on the first
    sample, so bit-identical samples (a deterministic law) give a variance of
    exactly 0 and a mean equal to the sample, on any machine and for any n.
    """

    samples: np.ndarray
    seeds: list[int]
    master_seed: int

    @property
    def n(self) -> int:
        return int(self.samples.shape[0])

    @property
    def _estimate(self) -> MCEstimate:
        return MCEstimate.from_samples(self.samples, self.master_seed)

    @property
    def mean(self) -> float:
        return self._estimate.mean

    @property
    def variance(self) -> float:
        return self._estimate.m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def se(self) -> float:
        return self._estimate.se

    def quantiles(self, qs=(0.05, 0.25, 0.5, 0.75, 0.95)) -> dict:
        return {q: float(np.quantile(self.samples, q)) for q in qs}

    def to_csv(self, path, meta: str | None = None) -> None:
        from .reporting import write_csv
        write_csv(path, ["env_seed", "value"],
                  [[s, float(v)] for s, v in zip(self.seeds, self.samples)], meta=meta)


def sample_statistic_over_environments(law: EnvironmentLaw, region: Region,
                                       functional: Callable, n_env: int, seed: int
                                       ) -> EmpiricalDistribution:
    """Evaluate an exact per-environment functional across n_env environments.

    functional(env, region) must be deterministic given the environment;
    solver failures are re-raised with the environment seed for replay.
    """
    env_seeds = rng.child_seed(seed, np.arange(n_env)).tolist()

    def one(env_seed: int) -> float:
        env = sample_environment(law, seed=env_seed)
        try:
            return float(functional(env, region))
        except Exception as exc:  # noqa: BLE001 - annotate with replay seed
            raise FunctionalEvaluationError(str(exc), env_seed) from exc

    samples = np.asarray(deterministic_map(one, env_seeds), dtype=np.float64)
    return EmpiricalDistribution(samples=samples, seeds=env_seeds, master_seed=seed)
