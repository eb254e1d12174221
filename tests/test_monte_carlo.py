import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rwre_lab as rl
from rwre_lab import monte_carlo as mc
from rwre_lab import env_model, rng


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


@pytest.mark.parametrize("seed", [0, -1, 2 ** 63 + 5, 2 ** 64 + 7])
def test_child_seed_over_index_arrays_matches_scalar_calls(seed):
    idx = np.array([0, 1, 5, -3, 2 ** 40])
    got = rng.child_seed(seed, idx)
    assert got.dtype == np.uint64
    assert got.tolist() == [rng.child_seed(seed, int(i)) for i in idx]
    assert rng.child_seed(seed, idx, 11).tolist() \
        == [rng.child_seed(seed, int(i), 11) for i in idx]
    assert rng.child_seed(seed, 2, idx).tolist() \
        == [rng.child_seed(seed, 2, int(i)) for i in idx]
    assert type(rng.child_seed(seed, 5, 11)) is int


@pytest.mark.parametrize("ints", [
    rng.child_seed(5, np.arange(400)).tolist(),  # words from 2^63 up among them
    [2 ** 63 + 5, 3, 0, 2 ** 64 - 1],
    [2 ** 63, -1, 7],                             # a negative int beside them
    [2 ** 64 + 3, 1, 2 ** 63],                    # an int from 2^64 up
    [-(2 ** 70), 2 ** 70, 5, -2],
    [[2 ** 63, 1], [-2, 3]],
    [3, -2], [], -7, 2 ** 64 + 9, 2 ** 63,
])
def test_seed_words_of_python_ints_are_their_residues_mod_2_64(ints):
    want = np.asarray(np.array(ints, dtype=object) % 2 ** 64)
    got = rng._u64(ints)
    assert got.dtype == np.uint64
    assert got.shape == want.shape and got.tolist() == want.tolist()


def test_site_hash_and_uniforms_raise_no_overflow_warning():
    # the mix wraps modulo 2^64 on purpose, for 0-d and array seeds alike
    coords = np.array([[-7, 2 ** 40], [3, -1]])
    seeds = np.array([2 ** 64 - 1, 2 ** 63 + 12345], dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, c in ((2 ** 64 - 1, coords[0]), (np.uint64(2 ** 63), coords[1]),
                        (2 ** 64 - 1, coords), (seeds, coords)):
            rng.site_hash(seed, c)
            rng.site_uniforms(seed, c)


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


def _stepwise_walks(law, starts, stop_rule, seed, step_budget=mc.DEFAULT_STEP_BUDGET):
    """Reference walker: every live walk hashes its site and draws one uniform
    per step.  Returns the finals and each walk's step count."""
    probs, vecs = law.support()
    cdf, step_cum = np.cumsum(probs), np.cumsum(vecs, axis=1)
    dirs = env_model.directions(law.d)
    finals = np.array(starts, dtype=np.int64).reshape(-1, law.d)
    taken = np.zeros(len(finals), dtype=np.int64)
    region = getattr(stop_rule, "region", None)
    budget = stop_rule.n if region is None else step_budget
    for c, lo in enumerate(range(0, len(finals), mc.WALK_CHUNK)):
        pos = finals[lo:lo + mc.WALK_CHUNK]
        gen = rng.stream_generator(seed, c)
        live = np.arange(len(pos))
        words = rng._seed_word(rng.child_seed(seed, c, live))
        steps = 0
        while live.size:
            if steps == budget:
                if region is None:
                    break
                raise mc.StepBudgetError(f"step budget {budget}")
            here = pos[live]
            u_site = rng._unit(rng._fold(words[live], here.T))
            cum = env_model._draw(cdf, step_cum, u_site)
            u = gen.random(live.shape[0])
            k = np.minimum((cum <= u[:, None]).sum(axis=1), 2 * law.d - 1)
            here += dirs[k]
            pos[live] = here
            taken[lo + live] += 1
            steps += 1
            if region is not None:
                live = live[region.contains_block(here)]
    return finals, taken


_KICK = {d: rl.SignedAxisKickLaw(d, 0.04, lambda_shift=0.03) for d in (2, 3)}


def _kick_amplitudes_law(d, amplitudes, shift=0.03):
    """A signed-axis kick law with one atom per amplitude and signed axis."""
    atoms = []
    for a in amplitudes:
        for k in range(2 * d):
            w = np.full(2 * d, 1.0 / (2 * d))
            w[k] += a
            w[k ^ 1] -= a
            w[:2] += (shift / 2, -shift / 2)
            atoms.append((1.0 / (len(amplitudes) * 2 * d), w))
    return rl.EmpiricalLaw(atoms, d)


# Four amplitudes (16 atoms in d=2, 24 in d=3) step long FixedSteps blocks
# through the shift tables; 300 atoms are over the tables' bound in most
# blocks, and past uint8 atom indices, so their tiles search the cdf.
_MANY_ATOMS = {(d, K): _kick_amplitudes_law(d, np.linspace(0.04, 0.001, K // (2 * d)))
               for d in (2, 3) for K in (16, 300)}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("W", [1, 8, 32, 540])
@pytest.mark.parametrize("stop", ["fixed", "slab", "box", "fixed-atoms16", "fixed-atoms300"])
def test_blocked_walker_matches_the_stepwise_walker(d, W, stop):
    rule = {"slab": mc.ExitRegion(rl.SlabRegion(3, None, d)),
            "box": mc.ExitRegion(rl.BallisticityBox(2, d))}.get(stop, mc.FixedSteps(97))
    law = _MANY_ATOMS[d, int(stop.rpartition("atoms")[2])] if "atoms" in stop else _KICK[d]
    S = mc._block_steps(W, d)
    assert S == 1 or 97 % S  # the fixed-step budget ends mid-block
    starts = np.zeros((W, d), dtype=np.int64)
    starts[:, -1] = np.arange(W) % 5 - 2
    for seed in (0, 1):
        ref, _ = _stepwise_walks(law, starts, rule, seed)
        assert mc.annealed_walks(law, starts, rule, seed).tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("site_set", [False, True])
def test_blocked_walker_matches_when_walks_exit_mid_block(d, site_set):
    law, W = _KICK[d], 8
    region = rl.BallisticityBox(2, d)
    if site_set:
        box = rl.BoxRegion([0] + [-2] * (d - 1), [1] + [2] * (d - 1))
        region = rl.SiteSetRegion(box.interior_array(), d)
    rule = mc.ExitRegion(region)
    starts = np.zeros((W, d), dtype=np.int64)
    S = mc._block_steps(W, d)
    ref, taken = _stepwise_walks(law, starts, rule, 3)
    assert S > 1 and ((taken > 0) & (taken < S)).any()  # some exit inside the first block
    assert mc.annealed_walks(law, starts, rule, 3).tobytes() == ref.tobytes()


@pytest.mark.parametrize("region", [rl.BallisticityBox(2, 2), rl.SlabRegion(3, None, 2)])
def test_blocked_walker_matches_on_a_one_atom_law(region):
    # a one-atom law hashes no site; under FixedSteps it takes a multinomial
    law = rl.build_shifted_law(rl.ssrw_law(2), 0.1)
    assert law.support()[0].shape == (1,)
    starts = np.zeros((30, 2), dtype=np.int64)
    for seed in (0, 1):
        ref, _ = _stepwise_walks(law, starts, mc.ExitRegion(region), seed)
        got = mc.annealed_walks(law, starts, mc.ExitRegion(region), seed)
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_blocked_walker_raises_at_the_stepwise_step(d):
    law, rule = _KICK[d], mc.ExitRegion(rl.SlabRegion(4, None, d))
    starts = np.zeros((8, d), dtype=np.int64)
    ref, taken = _stepwise_walks(law, starts, rule, 9)
    need = int(taken.max())  # the budget with which the last walk just exits
    assert need > mc._block_steps(8, d)
    got = mc.annealed_walks(law, starts, rule, 9, step_budget=need)
    assert got.tobytes() == ref.tobytes()
    for walker in (mc.annealed_walks, _stepwise_walks):
        with pytest.raises(mc.StepBudgetError):
            walker(law, starts, rule, 9, step_budget=need - 1)


def test_blocked_walker_matches_across_a_chunk_boundary():
    law = _KICK[2]
    rule = mc.ExitRegion(rl.BallisticityBox(2, 2))
    starts = np.zeros((mc.WALK_CHUNK + 5, 2), dtype=np.int64)
    ref, _ = _stepwise_walks(law, starts, rule, 4)
    assert mc.annealed_walks(law, starts, rule, 4).tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_block_rule_covers_tiles_and_single_steps(d):
    assert mc._block_steps(1, d) > 1
    assert mc._block_steps(540, d) == 1
    for w in (1, 8, 32, 540):
        S = mc._block_steps(w, d)
        assert S == 1 or w * (2 * S - 1) ** d * d <= mc._TILE_SITES


def test_velocity_point_mass_and_ssrw():
    pm = rl.PointMassLaw([0.30, 0.20, 0.25, 0.25])
    est = mc.estimate_velocity(pm, 2000, 300, seed=5)
    assert abs(est.mean - 0.1) <= 4 * est.se
    ssrw = mc.estimate_velocity(rl.ssrw_law(2), 2000, 300, seed=6)
    assert abs(ssrw.mean) <= 4 * ssrw.se
    with pytest.raises(ValueError):
        mc.estimate_velocity(pm, 0, 10, seed=1)


@pytest.mark.parametrize("n", [0, -1])
def test_estimates_without_walks_raise(n):
    law = rl.SignedAxisKickLaw(2, 0.05)
    with pytest.raises(ValueError, match="n_walks"):
        mc.estimate_velocity(law, 10, n, seed=1)
    with pytest.raises(ValueError, match="n >= 1"):
        mc.annealed_event_probability(law, rl.BallisticityBox(2, 2), (0, 0),
                                      mc.EVENT_EXIT_FRONTAL, n, seed=1)


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
