import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rwre_lab as rl
from rwre_lab import exact_solver as xs
from rwre_lab import kalikow as kal
from rwre_lab import monte_carlo as mc
from rwre_lab import rng

from csr_reference import system_matrix


def two_env_oracle_law():
    """Site 0 random between mirrored drifts, site e1 pinned symmetric.

    Exact enumeration gives g = 16/14.6 and 16/15.4 in the two cases, so
    w(0,+e1) = (0.35*15.4 + 0.15*14.6)/30 and the drift follows.
    """
    p_plus = [0.35, 0.15, 0.25, 0.25]
    p_minus = [0.15, 0.35, 0.25, 0.25]
    site0 = rl.EmpiricalLaw([(0.5, p_plus), (0.5, p_minus)], d=2)
    return rl.InhomogeneousTestLaw({(0, 0): site0, (1, 0): rl.ssrw_law(2)}, d=2)


ORACLE_W_E1 = (0.35 * 15.4 + 0.15 * 14.6) / 30  # 0.2526666...
ORACLE_W_ME1 = (0.15 * 15.4 + 0.35 * 14.6) / 30  # 0.2473333...
ORACLE_DRIFT = ORACLE_W_E1 - ORACLE_W_ME1  # 0.0053333...


def test_two_environment_oracle_definition_route():
    law = two_env_oracle_law()
    B = rl.BoxRegion([0, 0], [1, 0])
    kenv = rl.kalikow_environment(law, B, (0, 0), method="exact")
    assert kenv.exact
    assert kenv.ratio((0, 0), 0) == pytest.approx(ORACLE_W_E1, abs=1e-10)
    assert kenv.ratio((0, 0), 1) == pytest.approx(ORACLE_W_ME1, abs=1e-10)
    drift = rl.kalikow_drift(law, B, (0, 0), (0, 0))
    assert drift.drift_e1 == pytest.approx(ORACLE_DRIFT, abs=1e-10)
    # nonzero auxiliary drift despite a zero-mean law
    assert rl.law_moments(rl.EmpiricalLaw(
        [(0.5, [0.35, 0.15, 0.25, 0.25]), (0.5, [0.15, 0.35, 0.25, 0.25])],
        d=2)).lam == pytest.approx(0.0, abs=1e-15)


def test_two_environment_oracle_formula_route_matches():
    law = two_env_oracle_law()
    B = rl.BoxRegion([0, 0], [1, 0])
    drift = rl.kalikow_drift_formula(law, B, (0, 0), (0, 0))
    assert drift.drift_e1 == pytest.approx(ORACLE_DRIFT, abs=1e-10)
    kenv_f = rl.kalikow_environment(law, B, (0, 0), method="exact", route="formula")
    kenv_d = rl.kalikow_environment(law, B, (0, 0), method="exact")
    assert np.max(np.abs(kenv_f.ratios - kenv_d.ratios)) < 1e-10


def test_point_mass_fixed_point():
    w = np.array([0.30, 0.20, 0.25, 0.25])
    law = rl.PointMassLaw(w)
    for region in (rl.BoxRegion([-1, -1], [1, 1]),
                   rl.SiteSetRegion([(0, 0), (1, 0), (1, 1)], 2)):
        kenv = rl.kalikow_environment(law, region, (0, 0))
        assert kenv.exact
        assert np.allclose(kenv.ratios, w, atol=1e-12)
        drift = rl.kalikow_drift(law, region, (0, 0), (0, 0))
        assert drift.drift_e1 == pytest.approx(0.1, abs=1e-12)
        assert np.all(np.abs(drift.drift) <= 1.0)
        formula = rl.kalikow_drift_formula(law, region, (0, 0), (0, 0))
        assert formula.drift_e1 == pytest.approx(0.1, abs=1e-12)


def test_point_mass_monte_carlo_has_exactly_zero_errors():
    # 37 identical environments: every pooled co-moment is exactly 0
    law = rl.PointMassLaw([0.30, 0.20, 0.25, 0.25])
    B = rl.BoxRegion([-2, -2], [2, 2])
    for route in ("definition", "formula"):
        kenv = rl.kalikow_environment(law, B, (0, 0), n_env=37, seed=3,
                                      method="mc", route=route)
        assert not kenv.exact
        assert np.all(kenv.ratio_se == 0.0)
        assert np.all(kenv.drift_se == 0.0)
    # N=20 goes through the per-environment Krylov path
    rep = rl.theorem3_experiment(law, rho=0.5, N_list=(3, 4, 20), n_env=37,
                                 seed=5, force=True)
    for row in rep.rows:
        assert np.all(row.se == 0.0)


@settings(max_examples=30, deadline=None)
@given(size=st.tuples(st.integers(1, 5), st.integers(1, 5)),
       seeds=st.lists(st.integers(0, 2 ** 62), min_size=1, max_size=3),
       src_pick=st.integers(0, 24), a=st.sampled_from([0.02, 0.05, 0.1]))
def test_formula_samples_match_per_site_hitting_solves(size, seeds, src_pick, a):
    # batched inverse + ratio identity vs one absorbing solve per site
    region = rl.BoxRegion([0, 0], [size[0] - 1, size[1] - 1])
    pattern = xs.region_pattern(region)
    src = src_pick % pattern.n
    law = rl.SignedAxisKickLaw(2, a, 0.01)
    envs = [rl.sample_environment(law, seed=s) for s in seeds]
    weights = np.stack([env.weights_block(pattern.interior) for env in envs])
    G = xs.solve_batch(pattern, weights, None)
    num, den = kal._formula_samples(G, weights, pattern, src)
    for b, env in enumerate(envs):
        for y_idx, y in enumerate(pattern.interior):
            h = xs.hitting_probability_field(env, region, tuple(y))
            f = [(1.0 - h[j] if j >= 0 else 1.0) / h[src] for j in pattern.nbr[y_idx]]
            S = float(np.dot(weights[b, y_idx], f))
            assert den[b, y_idx] == pytest.approx(1.0 / S, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(num[b, y_idx], weights[b, y_idx] / S,
                                       rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kwargs, named", [
    ({"method": "exakt"}, "'exakt'"),
    ({"route": "formular"}, "'formular'"),
    ({"method": "mc", "n_env": 0}, "n_env"),
])
def test_bad_arguments_raise_value_error(kwargs, named):
    law = rl.SignedAxisKickLaw(2, 0.05)
    with pytest.raises(ValueError, match=named):
        rl.kalikow_environment(law, rl.BoxRegion([-1, -1], [1, 1]), (0, 0), **kwargs)
    if "n_env" in kwargs:
        with pytest.raises(ValueError, match=named):
            rl.theorem3_experiment(law, rho=0.5, N_list=(3,), n_env=0, force=True)


def test_theorem3_needs_a_truncation():
    with pytest.raises(ValueError, match="N_list"):
        rl.theorem3_experiment(rl.SignedAxisKickLaw(2, 0.05), rho=0.5, N_list=(), n_env=4)


def test_dense_green_rows_are_certified(monkeypatch):
    region = rl.BoxRegion([-2, -2], [2, 2])
    pattern = xs.region_pattern(region)
    src = pattern.source_index((0, 0))
    law = rl.SignedAxisKickLaw(2, 0.05)
    envs = [rl.sample_environment(law, seed=s) for s in range(4)]
    weights = np.stack([env.weights_block(pattern.interior) for env in envs])
    e_src = np.broadcast_to(np.eye(1, pattern.n, src)[0], (len(envs), pattern.n))
    g = xs.solve_batch(pattern, weights, e_src[0], 1e-13, transpose=True)
    # the batch certificate is the row solve's l1 residual
    for b, env in enumerate(envs):
        system = xs.build_system(env, region)
        r = system_matrix(system).T @ g[b] - g[b]
        r[src] += 1.0
        bumped = g.copy()
        bumped[b, 3] += 1e-9
        with monkeypatch.context() as m:
            m.setattr(xs, "MAX_ITER", 0)  # no polish step
            with pytest.raises(xs.SolverConvergenceError):
                xs._certify_batch(pattern, xs._step_block(pattern, weights), e_src, bumped,
                                  1e-9, "l1", True)
        assert np.abs(r).sum() <= 1e-13
    # a sampled environment whose rows miss the certificate names its seed
    with pytest.raises(mc.FunctionalEvaluationError) as exc:
        kal.kalikow_environment(law, region, (0, 0), n_env=3, method="mc", tol=1e-30)
    assert isinstance(exc.value.__cause__, xs.SolverConvergenceError)
    assert exc.value.env_seed == rng.child_seed(0, 0)


_cells = st.lists(st.floats(0.5, 2.0), min_size=7, max_size=7)


@given(st.lists(st.tuples(_cells, st.floats(0.01, 1.0)), min_size=2, max_size=12),
       st.integers(1, 11))
def test_ratio_accumulator_merge_matches_one_pass(samples, cut):
    # d=2, one site: 4 numerators + 2 drifts + 1 denominator per sample
    x = np.array([c for c, _ in samples])[:, None, :]
    w = np.array([p for _, p in samples])
    cut = min(cut, len(samples) - 1)
    one, split = kal._RatioAccumulator(1, 2), kal._RatioAccumulator(1, 2)
    one.add(x[:, :, :4], x[:, :, 6], weights=w, drift_num=x[:, :, 4:6])
    for part in (slice(0, cut), slice(cut, None)):
        split.add(x[part, :, :4], x[part, :, 6], weights=w[part],
                  drift_num=x[part, :, 4:6])
    # reference: weighted population moments of the concatenated samples
    mean = (w[:, None] * x[:, 0]).sum(0) / w.sum()
    dev = x[:, 0] - mean
    m2 = (w[:, None] * dev * dev).sum(0)
    for acc in (one, split):
        assert acc.n_samples == len(samples)
        np.testing.assert_allclose(acc.mean[0], mean, rtol=1e-12)
        np.testing.assert_allclose(acc.m2[0], m2, rtol=1e-9, atol=1e-12 * w.sum())
        np.testing.assert_allclose(acc.c_den[0], (w[:, None] * dev * dev[:, 6:]).sum(0),
                                   rtol=1e-9, atol=1e-12 * w.sum())
        r, se = acc.ratio(acc.drift_cols)
        np.testing.assert_allclose(r[0], mean[4:6] / mean[6], rtol=1e-12)


def test_ssrw_drift_vanishes():
    kenv = rl.kalikow_environment(rl.ssrw_law(2), rl.BoxRegion([-1, -1], [1, 1]),
                                  (0, 0))
    assert np.allclose(kenv.drift_vectors, 0.0, atol=1e-12)


def test_route_equality_exact_on_two_by_two_box():
    atoms = [(0.5, [0.30, 0.20, 0.25, 0.25]), (0.5, [0.20, 0.30, 0.25, 0.25])]
    law = rl.EmpiricalLaw(atoms, d=2)
    B = rl.BoxRegion([0, 0], [1, 1])  # 2^4 = 16 combinations
    kenv_d = rl.kalikow_environment(law, B, (0, 0), method="exact")
    kenv_f = rl.kalikow_environment(law, B, (0, 0), method="exact", route="formula")
    assert kenv_d.exact and kenv_f.exact
    assert np.max(np.abs(kenv_d.ratios - kenv_f.ratios)) < 1e-10


def test_row_normalization_exact_route():
    law = rl.SignedAxisKickLaw(2, 0.05)
    B = rl.BoxRegion([-1, -1], [1, 1])
    kenv = rl.kalikow_environment(law, B, (0, 0), method="exact")
    assert np.allclose(kenv.ratios.sum(axis=1), 1.0, atol=1e-10)


def test_lateral_mirror_symmetry_exact_route():
    law = rl.SignedAxisKickLaw(2, 0.05, 0.01)
    B = rl.BoxRegion([-1, -1], [1, 1])
    kenv = rl.kalikow_environment(law, B, (0, 0), method="exact")
    sites = [tuple(s) for s in kenv.sites]
    for i, (y1, y2) in enumerate(sites):
        j = sites.index((y1, -y2))
        mirrored = kenv.ratios[j][[0, 1, 3, 2]]  # swap +-e2
        assert np.allclose(kenv.ratios[i], mirrored, atol=1e-10)


def test_enumeration_fallback_and_blowup():
    law = rl.SignedAxisKickLaw(2, 0.05)  # 4 atoms per site
    big = rl.BoxRegion([-2, -2], [2, 2])  # 4^25 combinations
    kenv = rl.kalikow_environment(law, big, (0, 0), method="auto",
                                  n_env=50, seed=1)
    assert not kenv.exact
    assert kenv.notice is not None and "falling back" in kenv.notice
    with pytest.raises(kal.EnumerationBlowupError):
        rl.kalikow_environment(law, big, (0, 0), method="exact")


def test_mc_agrees_with_exact_on_three_by_three():
    law = rl.SignedAxisKickLaw(2, 0.05)
    B = rl.BoxRegion([-1, -1], [1, 1])
    exact = rl.kalikow_environment(law, B, (0, 0), method="exact")
    mc_env = rl.kalikow_environment(law, B, (0, 0), method="mc",
                                    n_env=2000, seed=42)
    zscores = np.abs(mc_env.ratios - exact.ratios) / np.maximum(mc_env.ratio_se, 1e-15)
    assert (zscores <= 3).mean() >= 0.95


def test_base_point_must_be_interior():
    with pytest.raises(ValueError):
        rl.kalikow_environment(rl.ssrw_law(2), rl.BoxRegion([0, 0], [1, 0]), (9, 9))


class TestEpsK:
    def small_family(self):
        return rl.EpsKFamilySpec(box_k_max=1, slab_L_max=1, halfspace_N_max=1,
                                 n_clusters=2, cluster_size_cap=8)

    def test_point_mass_drift_everywhere(self):
        law = rl.PointMassLaw([0.30, 0.20, 0.25, 0.25])
        report = rl.estimate_eps_k(law, self.small_family(), n_env=10, seed=1)
        assert report.verdict == "positive-evidence"
        for s in report.sets:
            assert s.exact
            assert s.min_estimate == pytest.approx(0.1, abs=1e-10)
        assert report.global_min_lcb == pytest.approx(0.1, abs=1e-10)
        assert "evidence" in report.disclaimer

    def test_ssrw_is_inconclusive(self):
        report = rl.estimate_eps_k(rl.ssrw_law(2), self.small_family(),
                                   n_env=10, seed=1)
        assert report.verdict == "inconclusive"
        assert report.global_min_estimate == pytest.approx(0.0, abs=1e-10)

    def test_default_family_size_about_fifty(self):
        regions = rl.EpsKFamilySpec().regions(2)
        assert 40 <= len(regions) <= 60
        labels = [lbl for lbl, _ in regions]
        assert any(lbl.startswith("box") for lbl in labels)
        assert any(lbl.startswith("slab") for lbl in labels)
        assert any(lbl.startswith("halfspace") for lbl in labels)
        assert any(lbl.startswith("cluster") for lbl in labels)
        for _, region in regions:
            assert region.contains((0, 0))

    def test_cluster_family_grows_once(self):
        kal._grow_cluster.cache_clear()
        spec = rl.EpsKFamilySpec()
        first, second = spec.regions(2), spec.regions(2)
        assert [(lbl, r.descriptor()) for lbl, r in first] \
            == [(lbl, r.descriptor()) for lbl, r in second]
        assert kal._grow_cluster.cache_info().misses == spec.n_clusters == 15

    def test_clusters_are_connected(self):
        spec = rl.EpsKFamilySpec(n_clusters=5)
        for label, region in spec.regions(2):
            if not label.startswith("cluster"):
                continue
            sites = {tuple(s) for s in region.interior_array()}
            seen = {(0, 0)}
            frontier = [(0, 0)]
            while frontier:
                x, y = frontier.pop()
                for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if nb in sites and nb not in seen:
                        seen.add(nb)
                        frontier.append(nb)
            assert seen == sites


class TestHalfSpaceExperiment:
    def law(self):
        return rl.SignedAxisKickLaw(2, 0.05, 1e-5)

    def test_requires_k_conditions_unless_forced(self):
        bad = rl.SignedAxisKickLaw(2, 0.05, 0.01)  # drift too big for K5
        with pytest.raises(ValueError):
            rl.theorem3_experiment(bad, rho=0.5, N_list=(3,), n_env=5, seed=1)
        rep = rl.theorem3_experiment(bad, rho=0.5, N_list=(3,), n_env=5,
                                     seed=1, force=True)
        assert rep.warning is not None

    def test_sign_pattern_small_truncations(self):
        rep = rl.theorem3_experiment(self.law(), rho=0.5, N_list=(6, 10),
                                     n_env=600, seed=3)
        pos = rep.row(1, 10)
        neg = rep.row(-1, 10)
        assert pos.drift[0] - 3 * pos.se[0] > 0
        assert neg.drift[0] + 3 * neg.se[0] < 0
        assert abs(pos.drift[1]) <= 3 * pos.se[1]
        assert rep.verdict == "kalikow-fails-evidence"
        assert rep.stabilized == {"1": True, "-1": True}

    def test_point_mass_gives_no_failure_evidence(self):
        law = rl.PointMassLaw([0.30, 0.20, 0.25, 0.25])
        rep = rl.theorem3_experiment(law, rho=0.5, N_list=(3, 4), n_env=12,
                                     seed=2, force=True)
        assert rep.verdict == "no-failure-evidence"
        for row in rep.rows:
            assert row.drift[0] == pytest.approx(0.1, abs=1e-9)

    @pytest.mark.parametrize("law", [
        rl.SignedAxisKickLaw(2, 0.05, 1e-5),  # lockstep batches
        # no mean-kernel preconditioner on N=30: one row solve per environment
        rl.PointMassLaw([0.97, 0.01, 0.01, 0.01]),
    ])
    def test_output_is_byte_identical_across_workers_and_reruns(self, law, monkeypatch):
        def run(threads):
            monkeypatch.setenv("RWRE_THREADS", threads)
            rep = rl.theorem3_experiment(law, rho=0.5, N_list=(10, 30), n_env=10,
                                         seed=7, force=True)
            return json.dumps(rep.to_dict(), sort_keys=True)

        one = run("1")
        assert run("4") == one
        assert run("1") == one

    def test_per_environment_chunks_do_not_follow_the_worker_count(self, monkeypatch):
        # with this budget each chunk of the d=3 N=5 half-spaces (726 sites)
        # holds one environment, fewer than the workers
        monkeypatch.setattr(xs, "_LOCKSTEP_UNKNOWNS", 726)
        law = rl.SignedAxisKickLaw(3, 0.05, 1e-5)

        def run(threads):
            monkeypatch.setenv("RWRE_THREADS", threads)
            rep = rl.theorem3_experiment(law, rho=0.5, N_list=(5,), n_env=6, seed=3,
                                         force=True)
            return json.dumps(rep.to_dict(), sort_keys=True)

        assert run("3") == run("1")

    def test_each_environment_is_sampled_once_and_gathered(self, monkeypatch):
        law, seed, n_env = self.law(), 9, 5
        seeds = [rng.child_seed(seed, i) for i in range(n_env)]
        drawn, reference, batches = [], [], []
        sample = kal.sample_environment
        sample_batch = xs.sample_weights
        solve = xs.solve_batch

        def spy_sample(law_, seed=0):
            reference.append(seed)
            return sample(law_, seed=seed)

        def spy_sample_batch(law_, sites, env_seeds):
            drawn.extend(env_seeds)
            return sample_batch(law_, sites, env_seeds)

        def spy_solve(pattern, weights, *args, **kwargs):
            batches.append((pattern, weights.copy()))
            return solve(pattern, weights, *args, **kwargs)

        # environments are drawn in batches, the SSRW reference on its own
        monkeypatch.setattr(kal, "sample_environment", spy_sample)
        monkeypatch.setattr(xs, "sample_weights", spy_sample_batch)
        monkeypatch.setattr(xs, "solve_batch", spy_solve)
        rl.theorem3_experiment(law, rho=0.5, N_list=(3, 5), n_env=n_env, seed=seed)
        # one draw per environment seed across calls, and one for the SSRW reference
        assert sorted(drawn) == sorted(seeds)
        assert reference == [0]
        assert len(batches) == 4
        for pattern, weights in batches:
            # bit-identical to sampling each region on its own
            want = np.stack([sample(law, seed=s).weights_block(pattern.interior)
                             for s in seeds])
            assert np.array_equal(weights, want)


def test_formula_route_inverses_are_certified(monkeypatch):
    region = rl.BoxRegion([-2, -2], [2, 2])
    pattern = xs.region_pattern(region)
    law = rl.SignedAxisKickLaw(2, 0.05)
    weights = np.stack([rl.sample_environment(law, seed=s).weights_block(pattern.interior)
                        for s in range(4)])
    G = xs.solve_batch(pattern, weights, None, 1e-13)
    corrupted = G.copy()
    corrupted[2, 7, 11] += 1e-9
    with monkeypatch.context() as m:
        m.setattr(xs, "MAX_ITER", 0)  # no polish step
        with pytest.raises(xs.SolverConvergenceError):
            xs._certify_batch(pattern, xs._step_block(pattern, weights), None, corrupted,
                              1e-10, "l1", False)
    with pytest.raises(mc.FunctionalEvaluationError) as exc:
        kal.kalikow_drift_formula(law, region, (0, 0), (0, 0), n_env=3, method="mc",
                                  tol=1e-30)
    assert isinstance(exc.value.__cause__, xs.SolverConvergenceError)
    assert exc.value.env_seed == rng.child_seed(0, 0)


def test_batch_certificates_reject_nan():
    region = rl.BoxRegion([-2, -2], [2, 2])
    pattern = xs.region_pattern(region)
    src = pattern.source_index((0, 0))
    law = rl.SignedAxisKickLaw(2, 0.05)
    weights = np.stack([rl.sample_environment(law, seed=s).weights_block(pattern.interior)
                        for s in range(3)])
    e_src = np.broadcast_to(np.eye(1, pattern.n, src)[0], (3, pattern.n))
    g = xs.solve_batch(pattern, weights, e_src, 1e-10, transpose=True)
    g[1, 5] = np.nan
    block = xs._step_block(pattern, weights)
    with pytest.raises(xs.SolverConvergenceError):
        xs._certify_batch(pattern, block, e_src, g, 1e-10, "l1", True)
    G = xs.solve_batch(pattern, weights, None, 1e-10)
    G[2, 7, 11] = np.nan
    with pytest.raises(xs.SolverConvergenceError):
        xs._certify_batch(pattern, block, None, G, 1e-10, "l1", False)


def test_sampled_kalikow_solve_failure_names_the_environment_seed(monkeypatch):
    monkeypatch.setenv("RWRE_THREADS", "1")  # solves run in environment order
    # n = 1032 on an elongated box: one band LU row solve per environment
    region = rl.SlabRegion(4, 64, 2)
    solve, calls = xs._banded_solve, []

    def third_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise xs.SolverConvergenceError("injected failure")
        return solve(*args, **kwargs)

    monkeypatch.setattr(xs, "_banded_solve", third_fails)
    with pytest.raises(mc.FunctionalEvaluationError) as exc:
        kal.kalikow_environment(rl.SignedAxisKickLaw(2, 0.05), region, (0, 0), n_env=5,
                                seed=31, method="mc")
    assert exc.value.env_seed == rng.child_seed(31, 2)
    assert "injected failure" in str(exc.value)
    assert isinstance(exc.value.__cause__, xs.BatchSolveError)


def test_half_space_certificate_failure_names_the_environment_seed(monkeypatch):
    # N = 3 and 4 with 6 environments: one stacked dense LU batch per region
    dense = xs._dense_batch

    def corrupt(pattern, weights, b, transpose):
        green = dense(pattern, weights, b, transpose)
        if len(weights) > 1:  # single solves, such as the SSRW references, pass
            green[[3, 5], 0] += 1e-6
        return green

    monkeypatch.setattr(xs, "_dense_batch", corrupt)
    monkeypatch.setattr(xs, "MAX_ITER", 0)  # no polish step
    with pytest.raises(mc.FunctionalEvaluationError) as exc:
        kal.theorem3_experiment(rl.SignedAxisKickLaw(2, 0.05, lambda_shift=1e-5), 0.5,
                                N_list=(3, 4), n_env=6, seed=7)
    # the first environment above tol is named
    assert exc.value.env_seed == rng.child_seed(7, 3)
    assert exc.value.__cause__.index == 3
    # enumerated environments keep their batch index
    with pytest.raises(xs.BatchSolveError) as exc:
        kal.kalikow_environment(rl.SignedAxisKickLaw(2, 0.05), rl.BoxRegion([0, 0], [1, 0]),
                                (0, 0), method="exact")
    assert exc.value.index == 3


def test_sampled_krylov_green_batches_match_dense_rows():
    # above DENSE_CUTOFF each sampled environment gets its own row solve,
    # and off boxes (the sites of a d=3 half-space as a site set) that
    # solve is Krylov
    region = rl.SiteSetRegion(rl.HalfSpaceTrunc(-1, 5, 3).interior_array(), 3)
    pattern = xs.region_pattern(region)
    assert pattern.n > xs.DENSE_CUTOFF
    assert xs.auto_method(pattern) == "krylov"
    src = pattern.source_index((0, 0, 0))
    law = rl.SignedAxisKickLaw(3, 0.01, 1e-7)
    seeds = [rng.child_seed(5, i) for i in range(4)]
    batches = list(kal._green_batches(law, pattern, src, 1e-10, seeds))
    g = np.concatenate([g for _, g, _ in batches])
    assert g.shape == (4, pattern.n)
    # independent reference: one dense LU row solve per environment
    dense = np.stack([
        xs.solve_green_row(xs.build_system(rl.sample_environment(law, seed=s), region),
                           src, 1e-10, method="dense")[0]
        for s in seeds])
    assert np.max(np.abs(g - dense)) <= 1e-9
