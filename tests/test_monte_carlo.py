import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rwre_lab as rl
from rwre_lab import monte_carlo as mc
from rwre_lab import rng


def test_fixed_steps_zero_stays_put():
    env = rl.sample_environment(rl.ssrw_law(2), seed=1)
    out = mc.run_quenched_walk(env, (3, -1), mc.FixedSteps(0), 5)
    assert out.final == (3, -1) and out.steps == 0


def test_deterministic_walk_moves_straight():
    law = rl.PointMassLaw([1.0, 0.0, 0.0, 0.0])
    env = rl.sample_environment(law, seed=1)
    out = mc.run_quenched_walk(env, (0, 0), mc.FixedSteps(17), 5)
    assert out.final == (17, 0)


def test_same_seed_same_path():
    env = rl.sample_environment(rl.SignedAxisKickLaw(2, 0.05), seed=4)
    a = mc.run_quenched_walk(env, (0, 0), mc.FixedSteps(400), 99, track_visits=True)
    b = mc.run_quenched_walk(env, (0, 0), mc.FixedSteps(400), 99, track_visits=True)
    assert a.final == b.final and a.visits == b.visits


def test_lazy_and_presampled_walks_coincide():
    # the realization is a pure function of (seed, site), so a fresh lazy
    # realization with the same seed replays the identical path
    law = rl.SignedAxisKickLaw(2, 0.05)
    env1 = rl.sample_environment(law, seed=123)
    env2 = rl.sample_environment(law, seed=123)
    region = rl.SlabRegion(3, None, 2)
    out1 = mc.run_quenched_walk(env1, (0, 0), mc.ExitRegion(region), 7)
    out2 = mc.run_quenched_walk(env2, (0, 0), mc.ExitRegion(region), 7)
    assert out1.final == out2.final and out1.steps == out2.steps


def test_hit_site_or_exit_rule():
    law = rl.PointMassLaw([1.0, 0.0, 0.0, 0.0])
    env = rl.sample_environment(law, seed=1)
    region = rl.SlabRegion(5, None, 2)
    out = mc.run_quenched_walk(env, (0, 0), mc.HitSiteOrExit((2, 0), region), 5)
    assert out.hit_target and out.final == (2, 0)


def test_step_budget_error():
    env = rl.sample_environment(rl.ssrw_law(2), seed=1)
    region = rl.SlabRegion(50, None, 2)
    with pytest.raises(mc.StepBudgetError):
        mc.run_quenched_walk(env, (0, 0), mc.ExitRegion(region), 5, step_budget=10)


def test_annealed_frontal_exit_matches_gambler_oracle():
    est = mc.annealed_event_probability(
        rl.ssrw_law(2), rl.SlabRegion(4, None, 2), (0, 0),
        mc.EVENT_EXIT_FRONTAL, 20_000, seed=11)
    assert abs(est.mean - 5 / 9) <= 4 * est.se


def test_annealed_ballisticity_box_oracle():
    est = mc.annealed_event_probability(
        rl.ssrw_law(2), rl.BallisticityBox(2, 2), (0, 0),
        mc.EVENT_EXIT_NOT_FRONTAL, 20_000, seed=13)
    assert abs(est.mean - 2 / 3) <= 4 * est.se


def test_annealed_general_law_agrees_with_exact_solver():
    law = rl.SignedAxisKickLaw(2, 0.05)
    region = rl.SlabRegion(2, 8, 2)
    est = mc.annealed_event_probability(law, region, (0, 0),
                                        mc.EVENT_EXIT_FRONTAL, 3000, seed=5)
    exact = np.mean([
        rl.exit_distribution(
            rl.sample_environment(law, seed=rng.child_seed(1000, i)),
            region, (0, 0), tol=1e-10).frontal_mass()
        for i in range(200)
    ])
    assert abs(est.mean - exact) <= 4 * est.se + 0.01


def test_deterministic_walk_never_exits_backwards():
    law = rl.PointMassLaw([1.0, 0.0, 0.0, 0.0])
    est = mc.annealed_event_probability(
        law, rl.SlabRegion(3, None, 2), (0, 0),
        mc.EVENT_EXIT_NOT_FRONTAL, 500, seed=3)
    assert est.mean == 0.0


def test_frontal_probability_increases_with_shift():
    region = rl.SlabRegion(3, None, 2)
    means = []
    for i, shift in enumerate((0.0, 0.05, 0.1)):
        law = rl.build_shifted_law(rl.ssrw_law(2), shift) if shift else rl.ssrw_law(2)
        est = mc.annealed_event_probability(law, region, (0, 0),
                                            mc.EVENT_EXIT_FRONTAL, 4000, seed=21 + i)
        means.append(est.mean)
    assert means[0] < means[1] < means[2]


def test_merge_is_exact_pooling():
    gen = np.random.default_rng(3)
    x = gen.normal(size=37)
    y = gen.normal(size=53)
    merged = mc.MCEstimate.from_samples(x, 1).merge(mc.MCEstimate.from_samples(y, 2))
    pooled = mc.MCEstimate.from_samples(np.concatenate([x, y]), 1)
    assert merged.n == pooled.n
    assert merged.mean == pytest.approx(pooled.mean, abs=1e-12)
    assert merged.se == pytest.approx(pooled.se, abs=1e-12)


@pytest.mark.parametrize("value,n", [(0.1, 10), (0.1, 37), (1 / 3, 10),
                                     (0.4706416090852353, 37),
                                     (0.4706416090852353, 1000)])
def test_estimate_identical_samples_have_exactly_zero_spread(value, n):
    # Sum-of-squares moments gave se ~ 1e-9 and a mean one ULP off here.
    est = mc.MCEstimate.from_samples(np.full(n, value), 0)
    assert est.se == 0.0 and est.mean == value
    merged = est.merge(mc.MCEstimate.from_samples(np.full(3, value), 1))
    assert merged.se == 0.0 and merged.mean == value and merged.n == n + 3


_shard = st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=30)


@given(_shard, _shard, _shard)
@example([0.0], [5e-324], [0.0])  # merged mean rounded to 5e-324, pooled to 0.0
@example([0.0], [0.0], [0.0, 0.0, 0.0, 1.5e-323])  # true mean a half-ULP tie
def test_estimate_merge_is_associative_and_pools(a, b, c):
    x, y, z = (mc.MCEstimate.from_samples(s, 0) for s in (a, b, c))
    pooled = mc.MCEstimate.from_samples(a + b + c, 0)
    scale = 1e-12 * max(abs(v) for v in a + b + c)
    for merged in (x.merge(y).merge(z), x.merge(y.merge(z))):
        assert merged.n == pooled.n
        assert merged.mean == pytest.approx(pooled.mean, rel=1e-12, abs=scale)
        assert merged.se == pytest.approx(pooled.se, rel=1e-12, abs=scale)


def test_site_hash_accepts_one_seed_per_row():
    gen = np.random.default_rng(8)
    coords = gen.integers(-40, 40, size=(50, 3))
    seeds = gen.integers(0, 2 ** 63, size=50, dtype=np.uint64) * np.uint64(3)
    rows = np.array([rng.site_hash(int(s), c) for s, c in zip(seeds, coords)])
    assert np.array_equal(rng.site_hash(seeds, coords), rows)
    assert np.array_equal(rng.site_uniforms(seeds, coords),
                          [rng.site_uniforms(int(s), c) for s, c in zip(seeds, coords)])


@pytest.mark.parametrize("stop", [mc.ExitRegion(rl.SlabRegion(4, None, 2)),
                                  mc.FixedSteps(300)])
def test_annealed_walk_replays_the_quenched_walker(stop):
    # A lone walk is walk 0 of chunk 0: it walks the environment
    # child_seed(seed, 0, 0) with the stream of (seed, 0).
    law = rl.SignedAxisKickLaw(2, 0.1)
    for seed in range(20):
        final = mc.annealed_walks(law, [(1, -2)], stop, seed)
        env = rl.sample_environment(law, seed=rng.child_seed(seed, 0, 0))
        ref = mc.run_quenched_walk(env, (1, -2), stop, rng.stream_generator(seed, 0))
        assert tuple(final[0].tolist()) == ref.final


def test_annealed_step_budget_matches_the_quenched_walker():
    # straight walk: exits the slab on exactly its 4th step
    law = rl.PointMassLaw([1.0, 0.0, 0.0, 0.0])
    region = rl.SlabRegion(4, None, 2)
    est = mc.annealed_event_probability(law, region, (0, 0), mc.EVENT_EXIT_FRONTAL,
                                        5, seed=1, step_budget=4)
    assert est.mean == 1.0
    with pytest.raises(mc.StepBudgetError):
        mc.annealed_event_probability(law, region, (0, 0), mc.EVENT_EXIT_FRONTAL,
                                      5, seed=1, step_budget=3)


@pytest.mark.parametrize("law", [rl.ssrw_law(2), rl.SignedAxisKickLaw(2, 0.05)])
def test_annealed_stop_rule_checks(law):
    region = rl.SlabRegion(50, None, 2)
    with pytest.raises(mc.StepBudgetError):
        mc.annealed_event_probability(law, region, (0, 0), mc.EVENT_EXIT_FRONTAL,
                                      20, seed=5, step_budget=10)
    with pytest.raises(ValueError, match="outside"):
        mc.annealed_event_probability(law, rl.BallisticityBox(2, 2), (2, 0),
                                      mc.EVENT_EXIT_FRONTAL, 20, seed=5)
    with pytest.raises(ValueError):
        mc.annealed_event_probability(law, region, (0, 0), "exit-sideways", 20, seed=5)


def test_annealed_walks_beyond_one_chunk_are_reproducible(monkeypatch):
    law = rl.SignedAxisKickLaw(2, 0.05)
    starts = np.zeros((mc.WALK_CHUNK + 300, 2), dtype=np.int64)
    stop = mc.ExitRegion(rl.BallisticityBox(2, 2))
    runs = []
    for threads in ("1", "4", "1"):
        monkeypatch.setenv("RWRE_THREADS", threads)
        runs.append(mc.annealed_walks(law, starts, stop, seed=17).tobytes())
    assert runs[0] == runs[1] == runs[2]
    # a full chunk's walks do not depend on the chunks that follow it
    head = mc.annealed_walks(law, starts[:mc.WALK_CHUNK], stop, seed=17)
    assert head.tobytes() == runs[0][:head.nbytes]


def test_velocity_point_mass_and_ssrw():
    pm = rl.PointMassLaw([0.30, 0.20, 0.25, 0.25])
    est = mc.estimate_velocity(pm, 2000, 300, seed=5)
    assert abs(est.mean - 0.1) <= 4 * est.se
    ssrw = mc.estimate_velocity(rl.ssrw_law(2), 2000, 300, seed=6)
    assert abs(ssrw.mean) <= 4 * ssrw.se
    with pytest.raises(ValueError):
        mc.estimate_velocity(pm, 0, 10, seed=1)


def test_sample_statistic_point_mass_variance_zero():
    law = rl.PointMassLaw([0.30, 0.20, 0.25, 0.25])
    region = rl.SlabRegion(2, 8, 2)
    dist = mc.sample_statistic_over_environments(
        law, region, lambda env, reg: float(env.weights((0, 0))[0]), 20, seed=3)
    assert dist.variance < 1e-30


@pytest.mark.parametrize("value,n", [(0.1, 37), (1 / 3, 10),
                                     (0.4706416090852353, 10),
                                     (0.4706416090852353, 1000)])
def test_empirical_identical_samples_have_exactly_zero_spread(value, n):
    # np.mean of these equal floats is one ULP off on some builds, which
    # turned the sample variance into ~1e-33 instead of 0.
    dist = mc.EmpiricalDistribution(np.full(n, value), list(range(n)), 0)
    assert dist.variance == 0.0
    assert dist.se == 0.0
    assert dist.mean == value


def test_empirical_variance_matches_numpy_for_spread_samples():
    samples = np.random.default_rng(5).normal(0.47, 1e-3, 200)
    dist = mc.EmpiricalDistribution(samples, list(range(200)), 0)
    assert dist.variance == pytest.approx(samples.var(ddof=1), rel=1e-12)
    assert dist.mean == pytest.approx(samples.mean(), rel=1e-12)


def test_empirical_small_sizes():
    one = mc.EmpiricalDistribution(np.array([0.3]), [1], 0)
    assert one.mean == 0.3 and one.variance == 0.0 and math.isnan(one.se)
    empty = mc.EmpiricalDistribution(np.array([]), [], 0)
    assert math.isnan(empty.mean) and empty.variance == 0.0
    assert math.isnan(empty.se)


def test_sample_statistic_ssrw_drift_functional_is_zero():
    from rwre_lab.ballisticity import drift_green_origin
    region = rl.SlabRegion(2, 8, 2)
    dist = mc.sample_statistic_over_environments(
        rl.ssrw_law(2), region, lambda env, reg: drift_green_origin(env, reg),
        10, seed=3)
    assert np.allclose(dist.samples, 0.0, atol=1e-10)


def test_sample_statistic_variance_scales_with_amplitude():
    from rwre_lab.ballisticity import drift_green_origin
    region = rl.SlabRegion(4, 64, 2)
    variances = []
    for a in (0.01, 0.02):
        dist = mc.sample_statistic_over_environments(
            rl.SignedAxisKickLaw(2, a), region,
            lambda env, reg: drift_green_origin(env, reg), 1200, seed=77)
        variances.append(dist.variance)
    ratio = variances[1] / variances[0]
    assert 3.2 <= ratio <= 4.8


def test_sample_statistic_error_carries_replay_seed():
    def bad(env, reg):
        raise RuntimeError("boom")

    with pytest.raises(mc.FunctionalEvaluationError) as exc:
        mc.sample_statistic_over_environments(
            rl.ssrw_law(2), rl.SlabRegion(2, 4, 2), bad, 3, seed=9)
    assert exc.value.env_seed == rng.child_seed(9, 0)


def test_empirical_distribution_summary_and_csv(tmp_path):
    dist = mc.sample_statistic_over_environments(
        rl.SignedAxisKickLaw(2, 0.05), rl.SlabRegion(2, 8, 2),
        lambda env, reg: float(env.weights((0, 0))[0]), 50, seed=13)
    qs = dist.quantiles()
    assert qs[0.05] <= qs[0.5] <= qs[0.95]
    path = tmp_path / "samples.csv"
    dist.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "env_seed,value"
    assert len(lines) == 51
