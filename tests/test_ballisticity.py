import math

import numpy as np
import pytest

import rwre_lab as rl
from rwre_lab import ballisticity as bal
from rwre_lab import exact_solver as xs


class TestScaleConstants:
    def test_log_m0_values(self):
        assert bal.log_m0(3) == pytest.approx(100 + 12 * math.log(12) ** 2, abs=1e-12)
        assert bal.log_m0(3) == pytest.approx(174.0971, abs=1e-3)
        assert bal.log_m0(2) == pytest.approx(100 + 8 * math.log(8) ** 2, abs=1e-12)
        assert bal.log_m0(2) == pytest.approx(134.5928, abs=1e-3)

    def test_log_m0_monotone_in_dimension(self):
        vals = [bal.log_m0(d) for d in range(2, 11)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        with pytest.raises(ValueError):
            bal.log_m0(1)

    def test_c_alpha_cases(self):
        val, case = bal.c_alpha_L(3, 2 / 3, 4)
        assert val == pytest.approx(8.0, abs=1e-12)  # L^{3/2}
        assert case == "d=3"
        val4, _ = bal.c_alpha_L(4, 0.5, 3)
        assert val4 == pytest.approx(3 ** (4 * 0.5 / 1.5), rel=1e-12)
        val5, _ = bal.c_alpha_L(5, 0.9, 10)
        assert val5 == 1.0
        with pytest.raises(ValueError):
            bal.c_alpha_L(5, 0.5, 4)
        with pytest.raises(ValueError):
            bal.c_alpha_L(3, 1.0, 4)


class TestFreedman:
    def test_reference_values(self):
        assert bal.freedman_bound(u=1, b=1, sum_v2=1) \
            == pytest.approx(math.exp(-0.375), abs=1e-12)
        assert bal.freedman_bound(u=1, b=1, sum_v2=1) == pytest.approx(0.687289, abs=1e-6)
        assert bal.freedman_bound(u=2, b=1, sum_v2=0) \
            == pytest.approx(math.exp(-3.0), abs=1e-12)
        assert bal.freedman_bound(u=2, b=1, sum_v2=0) == pytest.approx(0.049787, abs=1e-6)
        assert bal.freedman_bound(u=0, b=1, sum_v2=3) == 1.0

    def test_monotonicity(self):
        us = np.linspace(0.5, 8, 12)
        vals = [bal.freedman_bound(u=u, b=1, sum_v2=2) for u in us]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        v2s = np.linspace(0.1, 5, 8)
        vals = [bal.freedman_bound(u=2, b=1, sum_v2=v) for v in v2s]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        bs = np.linspace(0.1, 5, 8)
        vals = [bal.freedman_bound(u=2, b=b, sum_v2=1) for b in bs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bal.freedman_bound(u=-1, b=1, sum_v2=1)
        with pytest.raises(ValueError):
            bal.freedman_bound(u=1, b=0, sum_v2=1)
        with pytest.raises(ValueError):
            bal.freedman_bound(u=1, b=1, sum_v2=-0.5)

    def test_empirical_tails_small(self):
        rep = bal.martingale_tail_test("plusminus", 100, [2, 6, 10], 20_000, seed=5)
        assert rep.all_within
        rep_u = bal.martingale_tail_test("uniform", 100, [2, 6], 10_000, seed=6)
        assert rep_u.all_within
        rep_l = bal.martingale_tail_test("lazy", 100, [2, 6], 10_000, seed=7, q=0.3)
        assert rep_l.all_within
        with pytest.raises(ValueError):
            bal.martingale_tail_test("cauchy", 10, [1], 10, seed=1)

    def test_tail_test_without_paths_raises(self):
        with pytest.raises(ValueError, match="n_paths"):
            bal.martingale_tail_test("plusminus", 10, [1], 0, seed=1)


class TestConditionP:
    def test_ssrw_m2_fails_threshold(self):
        rep = bal.condition_p_probe(rl.ssrw_law(2), 2, n_per_site=20_000, seed=3)
        assert rep.verdict == "fail"
        assert rep.below_m0
        assert rep.threshold_exponent == 35
        assert rep.log_threshold == pytest.approx(-35 * math.log(2), abs=1e-12)
        assert abs(rep.sup_estimate - 2 / 3) < 0.015
        # origin start dominates; the middle-frontal core sits near 1/3
        core = [s for s in rep.starts if s.site[0] == 1]
        assert all(abs(s.p_hat - 1 / 3) < 0.03 for s in core)

    def test_exact_solver_cross_check(self):
        env = rl.sample_environment(rl.ssrw_law(2), seed=0)
        box = rl.BallisticityBox(2, 2)
        dist = rl.exit_distribution(env, box, (0, 0), tol=1e-11)
        assert 1 - dist.frontal_mass() == pytest.approx(2 / 3, abs=1e-6)
        dist1 = rl.exit_distribution(env, box, (1, 0), tol=1e-11)
        assert 1 - dist1.frontal_mass() == pytest.approx(1 / 3, abs=1e-6)

    def test_strong_drift_point_mass_passes_informally(self):
        law = rl.PointMassLaw([0.5, 0.0, 0.25, 0.25])
        rep = bal.condition_p_probe(law, 2, n_per_site=20_000, seed=3)
        assert rep.sup_estimate == 0.0
        assert rep.verdict == "pass-informal"
        assert all(s.hits == 0 for s in rep.starts)

    def test_probe_without_walks_raises(self):
        with pytest.raises(ValueError, match="n_per_site"):
            bal.condition_p_probe(rl.SignedAxisKickLaw(2, 0.05), 3, n_per_site=0, seed=1)

    def test_shifted_law_sup_below_ssrw(self):
        base = bal.condition_p_probe(rl.ssrw_law(2), 2, n_per_site=4000, seed=4)
        prev = base.sup_estimate + 0.02
        for i, shift in enumerate((0.05, 0.1, 0.2)):
            law = rl.build_shifted_law(rl.ssrw_law(2), shift)
            rep = bal.condition_p_probe(law, 2, n_per_site=4000, seed=5 + i)
            assert rep.sup_estimate <= prev
            prev = rep.sup_estimate + 0.02

    def test_upper_bounds_equal_the_per_start_beta_quantiles(self):
        from scipy.stats import beta as beta_dist

        def scalar(hits, n, level):
            return [float(beta_dist.ppf(1.0 - level, h + 1, n - h)) if h < n else 1.0
                    for h in hits]

        # every count at small n, a spread of counts at large n, and the
        # probe's Bonferroni levels 0.0013 / starts plus a far tail
        cases = [(np.arange(n + 1), n) for n in (1, 2, 3, 10)]
        cases += [(np.array([0, 1, 2, 17, 200, 201, 398, 399, 400]), 400),
                  (np.array([0, 1, 5, 99, 1000, 50_000, 99_998, 99_999, 100_000]), 100_000)]
        for hits, n in cases:
            for level in (0.0013, 0.0013 / 6, 0.0013 / 54, 1e-12):
                got = bal._upper_bounds(hits, n, level)
                assert got.tobytes() == np.array(scalar(hits, n, level)).tobytes()
        # through the probe, with some starts at hits == n and some below
        rep = bal.condition_p_probe(rl.ssrw_law(2), 2, n_per_site=3, seed=0)
        hits = [s.hits for s in rep.starts]
        assert 3 in hits and min(hits) < 3
        bounds = scalar(hits, 3, 0.0013 / len(hits))
        assert np.array(bal._upper_bounds(np.array(hits), 3, 0.0013 / len(hits))).tobytes() \
            == np.array(bounds).tobytes()
        assert rep.sup_upper_ci == max(bounds)

    def test_site_cap_subsamples_with_declared_coverage(self):
        rep = bal.condition_p_probe(rl.ssrw_law(2), 2, n_per_site=500,
                                    site_cap=5, seed=1)
        assert rep.star_total == 15
        assert rep.star_scanned <= 5
        assert len(rep.starts) == rep.star_scanned + 1


class TestDriftGreen:
    def test_requires_positive_drift(self):
        with pytest.raises(ValueError):
            bal.mean_drift_green_check(rl.ssrw_law(2), 3, 18, 5, seed=1)

    def test_point_mass_zero_spread(self):
        law = rl.PointMassLaw([0.30, 0.20, 0.25, 0.25])
        stats = bal.mean_drift_green_check(law, 3, 18, 8, seed=1)
        assert stats.variance < 1e-25
        env = rl.sample_environment(law, seed=0)
        slab = rl.SlabRegion(3, 18, 2)
        ones = np.ones(slab.interior_count())
        expected = 0.1 * rl.green_operator(env, slab, ones, (0, 0), tol=1e-12)
        assert stats.mean == pytest.approx(expected, abs=1e-8)

    def test_krylov_samples_do_not_depend_on_worker_count(self, monkeypatch):
        # n = 1734 > DENSE_CUTOFF on a d=3 box: the six environments are one
        # lockstep batch, whatever the worker count
        law = rl.SignedAxisKickLaw(3, 0.005, 0.05)
        assert rl.SlabRegion(3, 8, 3).interior_count() == 1734
        runs = []
        for threads in ("1", "2", "1"):
            monkeypatch.setenv("RWRE_THREADS", threads)
            stats = bal.mean_drift_green_check(law, 3, 8, 6, seed=4)
            runs.append(stats.distribution.samples.tobytes())
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("L, W, d, method", [
        (2, 8, 2, "dense"), (4, 64, 2, "lockstep"), (3, 8, 3, "lockstep")])
    def test_samples_equal_the_one_environment_reference(self, L, W, d, method):
        slab = rl.SlabRegion(L, W, d)
        pattern = xs.region_pattern(slab)
        assert xs.auto_method(pattern) == method
        law = rl.SignedAxisKickLaw(d, 0.02, 0.05)
        stats = bal.mean_drift_green_check(law, L, W, 7, seed=12)
        ref = rl.sample_statistic_over_environments(law, slab, bal.drift_green_origin, 7, 12)
        assert stats.distribution.seeds == ref.seeds
        if method != "lockstep":
            assert np.array_equal(stats.distribution.samples, ref.samples)
            return
        # the seven environments are one lockstep batch, which shares one M;
        # each sample is within the certified bound of its single solve:
        # both sup residuals are at most 1e-10 (the drift is below 1), and
        # the largest expected exit time bounds ||(I - P)^-1||_inf
        assert xs.batch_size(pattern) >= 7
        for got, want, s in zip(stats.distribution.samples, ref.samples, ref.seeds):
            system = xs.build_system(rl.sample_environment(law, seed=s), slab)
            exit_time = xs.solve_green_operator(system, np.ones(system.n), 1e-12).max()
            assert abs(got - want) <= exit_time * 2e-10 * (1 + 1e-9)

    def test_kick_law_beats_bound_smallscale(self):
        law = rl.SignedAxisKickLaw(3, 0.005, 0.05)
        stats = bal.mean_drift_green_check(law, 3, 18, 30, seed=2)
        assert stats.bound == pytest.approx(0.4 * 3 * 0.05 * 9, rel=1e-12)
        assert stats.bound_holds_with_ci
        assert stats.eps_L_warning  # eps*L = 0.36*3 > 3/4


class TestFluctuationScan:
    def test_quadratic_scaling(self):
        scan = bal.fluctuation_scan(lambda a: rl.SignedAxisKickLaw(2, a),
                                    [0.01, 0.02], 4, 64, 800, alpha=2 / 3, seed=17)
        assert 3.2 <= scan.ratios[0] <= 4.8
        assert 1.6 <= scan.slope <= 2.4
        assert scan.c_alpha == pytest.approx(
            4 ** (1 + 2 * (1 / 3) / (4 / 3)), rel=1e-12)

    def test_point_mass_has_no_fluctuations(self):
        scan = bal.fluctuation_scan(
            lambda a: rl.PointMassLaw([0.25 + a / 2, 0.25 - a / 2, 0.25, 0.25]),
            [0.01, 0.02], 3, 18, 10, alpha=0.5, seed=3)
        assert all(r.variance < 1e-25 for r in scan.rows)
        assert math.isnan(scan.slope)

    def test_amplitudes_must_increase(self):
        with pytest.raises(ValueError):
            bal.fluctuation_scan(lambda a: rl.SignedAxisKickLaw(2, a),
                                 [0.02, 0.01], 4, 64, 10, alpha=0.5, seed=1)

    @pytest.mark.parametrize("amplitudes", [[0.02], []])
    def test_slope_needs_two_amplitudes(self, amplitudes):
        with pytest.raises(ValueError, match="amplitudes"):
            bal.fluctuation_scan(lambda a: rl.SignedAxisKickLaw(2, a),
                                 amplitudes, 2, 8, 4, alpha=0.5, seed=1)


class TestRhoStatistics:
    def test_derived_scales_and_lambda0(self):
        law = rl.SignedAxisKickLaw(2, 0.02)  # eps=0.16, sigma=sqrt(2)*0.02
        stats = bal.rho_statistics(law, theta=0.2, eta=0.5, n_env=5, seed=4,
                                   lateral_cap=40)
        assert stats.L == 2 and stats.M == 16
        sigma = math.sqrt(2) * 0.02
        assert stats.lambda0 == pytest.approx(
            max(sigma * 0.16, 0.16 ** 2.5), rel=1e-12)
        assert np.all(stats.q_samples >= 0) and np.all(stats.q_samples <= 1)
        np.testing.assert_allclose(
            stats.rho_samples, stats.q_samples / (1 - stats.q_samples), atol=1e-12)

    def test_lambda0_formula_oracle(self):
        # max(sigma * eps^{1.5 - eta}, eps^{3 - eta}) at eta = 0.5
        val = max(1e-3 * 0.1 ** 1.0, 0.1 ** 2.5)
        assert val == pytest.approx(3.162277e-3, rel=1e-6)

    def test_rho_hat_bound_in_small_perturbation_regime(self):
        law = rl.SignedAxisKickLaw(2, 0.02)  # eps*L = 0.32 < 3/4
        stats = bal.rho_statistics(law, theta=0.2, eta=0.5, n_env=25, seed=9,
                                   lateral_cap=40)
        assert stats.eps_L < 0.75
        assert stats.rho_hat_max <= 3.0

    def test_ssrw_rho_hat_is_one_with_explicit_L(self):
        stats = bal.rho_statistics(rl.ssrw_law(2), theta=0.2, eta=0.5,
                                   n_env=3, seed=4, L=2, lateral_cap=40)
        np.testing.assert_allclose(stats.rho_hat_samples, 1.0, atol=1e-9)
        assert np.all(np.abs(stats.g_origin_samples) < 1e-9)

    def test_ssrw_long_box_exit_is_balanced(self):
        # frontal and back exits are symmetric; side exits are a small excess
        env = rl.sample_environment(rl.ssrw_law(2), seed=1)
        box = rl.CorollaryBox(4, 2)
        pattern = xs.region_pattern(box)
        w = env.weights_block(pattern.interior)[None]
        h = xs.solve_batch(pattern, w, bal._nonfrontal_exit_field(pattern, w), 1e-11,
                           norm="linf")
        q = h[0, pattern.source_index((0, 0))]
        dist = rl.exit_distribution(env, box, (0, 0), tol=1e-11)
        assert q == pytest.approx(1 - dist.frontal_mass(), abs=1e-8)
        assert q == pytest.approx(0.5, abs=0.02)
        assert q >= 0.5

    def test_samples_equal_per_environment_solves(self):
        law = rl.SignedAxisKickLaw(2, 0.02)
        stats = bal.rho_statistics(law, theta=0.2, eta=0.5, n_env=6, seed=4,
                                   lateral_cap=12, slab_W=10, subgrid_halfwidth=3)
        box, slab = rl.CorollaryBox(16, 2, lateral_cap=12), rl.SlabRegion(2, 10, 2)
        q, exit_time, rho_hat, g = [], [], [], []
        for i in range(6):
            env = rl.sample_environment(law, seed=rl.rng.child_seed(4, i, 11))
            system = xs.build_system(env, box)
            pat = system.pattern
            b = np.zeros(pat.n)
            for e in range(4):
                outside = pat.nbr[:, e] < 0
                idx = np.nonzero(outside)[0][(pat.interior[outside] + pat.dirs[e])[:, 0] < 16]
                b[idx] += system.weights[idx, e]
            q.append(xs.solve_green_operator(system, b, 1e-10)[pat.source_index((0, 0))])
            exit_time.append(xs.solve_green_operator(system, np.ones(pat.n), 1e-12).max())
            system = xs.build_system(env, slab)
            u = xs.solve_green_operator(system, system.drift_field(), 1e-10)
            grid = np.nonzero((system.pattern.interior[:, 0] == 0)
                              & (np.abs(system.pattern.interior[:, 1]) <= 3))[0]
            vals = u[grid] / 2
            rho_hat.append(np.max((1.0 - vals) / (1.0 + vals)))
            g.append(u[system.pattern.source_index((0, 0))])
        assert stats.L == 2 and stats.M == 16
        # the six box solves are one lockstep batch, which shares one M: each
        # q is within the certified bound of its single solve (both sup
        # residuals at most 1e-10, the largest expected exit time bounding
        # ||(I - P)^-1||_inf); the slab's stacked dense LU keeps the bits
        assert xs.auto_method(xs.region_pattern(box), 6) == "lockstep"
        assert np.all(np.abs(stats.q_samples - np.clip(q, 0.0, 1.0))
                      <= np.array(exit_time) * 2e-10 * (1 + 1e-9))
        assert np.array_equal(stats.rho_hat_samples, rho_hat)
        assert np.array_equal(stats.g_origin_samples, g)

    def test_samples_do_not_depend_on_worker_count(self, monkeypatch):
        law = rl.SignedAxisKickLaw(2, 0.02)
        runs = []
        for threads in ("1", "2", "1"):
            monkeypatch.setenv("RWRE_THREADS", threads)
            stats = bal.rho_statistics(law, theta=0.2, eta=0.5, n_env=5, seed=8,
                                       lateral_cap=12)
            runs.append(b"".join(a.tobytes() for a in (
                stats.q_samples, stats.rho_hat_samples, stats.g_origin_samples)))
        assert runs[0] == runs[1] == runs[2]

    def test_eps_zero_needs_explicit_L(self):
        with pytest.raises(ValueError):
            bal.rho_statistics(rl.ssrw_law(2), theta=0.2, eta=0.5, n_env=2, seed=1)

    def test_size_error_without_subsampling(self):
        law = rl.SignedAxisKickLaw(2, 0.02)
        with pytest.raises(bal.SizeError):
            bal.rho_statistics(law, theta=0.9, eta=0.5, n_env=2, seed=1,
                               allow_subsample=False)

    def test_lateral_cap_is_declared(self):
        law = rl.SignedAxisKickLaw(2, 0.02)
        stats = bal.rho_statistics(law, theta=0.2, eta=0.5, n_env=3, seed=4,
                                   lateral_cap=40)
        assert stats.lateral_capped
        assert stats.lateral_half_width == 40


KICK = rl.SignedAxisKickLaw(2, 0.02, 0.05)
# regions above DENSE_CUTOFF (a 1032-site slab, a 1127-site box 7 sites
# wide), whose batches, once lockstep fails, solve each environment on its
# own by BiCGSTAB
STATISTICS = {
    "drift": lambda n_env, seed: bal.mean_drift_green_check(KICK, 4, 64, n_env, seed),
    "fluctuations": lambda n_env, seed: bal.fluctuation_scan(
        lambda a: rl.SignedAxisKickLaw(2, a, 0.05), [0.01, 0.02], 4, 64, n_env, 0.5, seed),
    "rho": lambda n_env, seed: bal.rho_statistics(
        KICK, theta=0.2, eta=0.5, n_env=n_env, seed=seed, L=3, lateral_cap=3),
}


# regions of at most DENSE_CUTOFF sites, whose batches take one stacked dense
# LU (a 68-site slab, a box capped at lateral half-width 3)
SMALL_STATISTICS = {
    "drift": lambda n_env, seed: bal.mean_drift_green_check(KICK, 2, 8, n_env, seed),
    "fluctuations": lambda n_env, seed: bal.fluctuation_scan(
        lambda a: rl.SignedAxisKickLaw(2, a, 0.05), [0.01, 0.02], 2, 8, n_env, 0.5, seed),
    "rho": lambda n_env, seed: bal.rho_statistics(
        KICK, theta=0.2, eta=0.5, n_env=n_env, seed=seed, L=2, lateral_cap=3),
}
THIRD_ENVIRONMENT_SEEDS = pytest.mark.parametrize("name, failing_seed", [
    ("drift", lambda seed: rl.rng.child_seed(seed, 2)),
    ("fluctuations", lambda seed: rl.rng.child_seed(rl.rng.child_seed(seed, 0), 2)),
    # box solves come first in each batch
    ("rho", lambda seed: rl.rng.child_seed(seed, 2, 11)),
])


@THIRD_ENVIRONMENT_SEEDS
def test_solver_failure_names_the_environment_seed(name, failing_seed, monkeypatch):
    monkeypatch.setenv("RWRE_THREADS", "1")  # solves run in environment order
    solve, calls = xs._krylov_solve, []

    def third_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise xs.SolverConvergenceError("injected failure")
        return solve(*args, **kwargs)

    monkeypatch.setattr(xs, "_lockstep", lambda *args: (None, 0))
    monkeypatch.setattr(xs, "_krylov_solve", third_fails)
    with pytest.raises(rl.monte_carlo.FunctionalEvaluationError) as exc:
        STATISTICS[name](5, 31)
    assert exc.value.env_seed == failing_seed(31)
    assert "injected failure" in str(exc.value)


@THIRD_ENVIRONMENT_SEEDS
def test_stacked_solve_failure_names_the_environment_seed(name, failing_seed, monkeypatch):
    # the third environment's column of a stacked dense or lockstep batch
    # is NaN: the batch certificate fails there
    dense, lockstep = xs._dense_batch, xs._lockstep

    def third_nan(x):
        if x is not None and len(x) > 2:
            x[2] = np.nan
        return x

    def lockstep_third_nan(*args):
        x, applies = lockstep(*args)
        return third_nan(x), applies

    monkeypatch.setattr(xs, "_dense_batch", lambda *args: third_nan(dense(*args)))
    monkeypatch.setattr(xs, "_lockstep", lockstep_third_nan)
    with pytest.raises(rl.monte_carlo.FunctionalEvaluationError) as exc:
        SMALL_STATISTICS[name](5, 31)
    assert exc.value.env_seed == failing_seed(31)
    assert "residual nan" in str(exc.value)


def test_operator_batches_do_not_follow_the_worker_count(monkeypatch):
    # a lockstep batch's samples depend on the environments it holds, so a
    # batch of one environment per worker would make them follow the worker
    # count: the d=3 slab's batches hold one environment under any count
    slab3 = xs.region_pattern(rl.SlabRegion(4, 32, 3))
    assert xs.batch_size(slab3) == 1
    law, seeds, sizes = rl.SignedAxisKickLaw(3, 0.02, 0.05), [1, 2, 3], []
    samples = []
    for threads in ("1", "3"):
        monkeypatch.setenv("RWRE_THREADS", threads)
        stats = bal.mean_drift_green_check(law, 4, 32, 3, seed=5)
        samples.append(stats.distribution.samples.tobytes())
    assert samples[0] == samples[1]

    def record(pattern, weights, b, tol, norm, transpose):
        sizes.append(len(weights))
        return np.zeros(weights.shape[:2])

    monkeypatch.setattr(xs, "solve_batch", record)

    def batches(threads):
        monkeypatch.setenv("RWRE_THREADS", threads)
        sizes.clear()
        problems = [(slab3, bal._drift_field, "linf", False)]
        for batch in xs.sampled_solves(law, seeds, problems, 1e-10):
            list(batch)
        return sizes[:]

    assert batches("1") == batches("3") == [1, 1, 1]
