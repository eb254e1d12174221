"""Quenched path simulation and annealed Monte Carlo estimates.

Annealed estimates draw one fresh environment per walk, matching the
product structure of the averaged law exactly.  One vectorized walker,
`annealed_walks`, serves every annealed estimate: it advances all walks of
a chunk together, looking up each walk's weights at its current site from
that walk's own environment seed, so environments are sampled lazily along
the paths and laterally unbounded regions need no truncation.  It dispatches
on the size of the law's support: a one-atom law (a deterministic
environment) skips the site hash.  `run_quenched_walk` simulates single
paths in one given environment.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import rng
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

    def ci(self, z: float = 3.0) -> tuple[float, float]:
        return self.mean - z * self.se, self.mean + z * self.se

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
    buf = rng.UniformBuffer(gen)
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
        k = bisect.bisect_right(cum, buf.next())
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


def annealed_walks(law: EnvironmentLaw, starts, stop_rule: ExitRegion | FixedSteps,
                   seed: int, step_budget: int = DEFAULT_STEP_BUDGET) -> np.ndarray:
    """Final sites of annealed walks, one walk and one fresh environment per start.

    starts has shape (n, d); the result has the same shape.  Walks are cut
    into chunks of WALK_CHUNK.  Walk w of chunk c walks in the environment
    sample_environment(law, seed=rng.child_seed(seed, c, w)), the same at
    every revisit, and the steps of the chunk come from
    rng.stream_generator(seed, c).  A walk that has not left an ExitRegion
    after step_budget steps raises StepBudgetError.
    """
    probs, vecs = law.support()  # UnsupportedFamilyError without a homogeneous table
    one_atom = probs.shape[0] == 1
    atom_cum = np.cumsum(probs)
    step_cum = np.cumsum(vecs, axis=1)
    dirs = directions(law.d)
    last = 2 * law.d - 1
    finals = np.array(starts, dtype=np.int64).reshape(-1, law.d)
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
        m = pos.shape[0]
        gen = rng.stream_generator(seed, c)
        if region is None and one_atom:
            # the step law is the same at every site, so the final site only
            # depends on how many of the steps went each way
            pos += gen.multinomial(budget, vecs[0], size=m) @ dirs
            continue
        live = np.arange(m)
        if not one_atom:
            # child_seed(seed, c, w) for every walk w of the chunk, in one call
            env_seeds = rng.site_hash(seed, np.column_stack([np.full(m, c), live]))
        steps = 0
        while live.size:
            if steps == budget:
                if region is None:
                    break
                raise StepBudgetError(
                    f"walk exceeded step budget {budget} before stopping")
            here = pos[live]
            atom = 0
            if not one_atom:
                u = rng.site_uniforms(env_seeds[live], here)
                atom = np.minimum(np.searchsorted(atom_cum, u, side="right"), len(probs) - 1)
            u = gen.random(live.shape[0])
            k = np.minimum((step_cum[atom] <= u[:, None]).sum(axis=1), last)
            here += dirs[k]
            pos[live] = here
            steps += 1
            if region is not None:
                live = live[region.contains_block(here)]
    return finals


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
    finals = annealed_walks(law, np.zeros((n_walks, law.d), dtype=np.int64),
                            FixedSteps(n_steps), seed)
    return MCEstimate.from_samples(finals[:, 0] / n_steps, seed)


# ---------------------------------------------------------------------------
# Empirical distributions of exact per-environment functionals
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalDistribution:
    """Exact functional values across independent environments (no inner MC noise).

    The mean and variance are computed from the samples minus the first
    sample, so bit-identical samples (a deterministic law) give a variance of
    exactly 0 and a mean equal to the sample, on any machine and for any n.
    """

    samples: np.ndarray
    seeds: list[int]
    master_seed: int

    @property
    def n(self) -> int:
        return int(self.samples.shape[0])

    def _centred(self) -> np.ndarray:
        return self.samples - self.samples[0]

    @property
    def mean(self) -> float:
        if self.n == 0:
            return math.nan
        return float(self.samples[0] + self._centred().mean())

    @property
    def variance(self) -> float:
        return float(self._centred().var(ddof=1)) if self.n > 1 else 0.0

    @property
    def se(self) -> float:
        return math.sqrt(self.variance / self.n) if self.n > 1 else math.nan

    def quantiles(self, qs=(0.05, 0.25, 0.5, 0.75, 0.95)) -> dict:
        return {q: float(np.quantile(self.samples, q)) for q in qs}

    def estimate(self) -> MCEstimate:
        return MCEstimate.from_samples(self.samples, self.master_seed)

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
    env_seeds = [rng.child_seed(seed, i) for i in range(n_env)]

    def one(env_seed: int) -> float:
        env = sample_environment(law, region, seed=env_seed)
        try:
            return float(functional(env, region))
        except Exception as exc:  # noqa: BLE001 - annotate with replay seed
            raise FunctionalEvaluationError(str(exc), env_seed) from exc

    samples = np.asarray(deterministic_map(one, env_seeds), dtype=np.float64)
    return EmpiricalDistribution(samples=samples, seeds=env_seeds, master_seed=seed)
