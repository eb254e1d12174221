import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import rwre_lab as rl
from rwre_lab import exact_solver as xs
from rwre_lab import rng


def ssrw_env(d):
    return rl.sample_environment(rl.ssrw_law(d), seed=0)


def two_site_region():
    return rl.BoxRegion([0, 0], [1, 0])


def test_single_site_green_is_one():
    region = rl.SiteSetRegion([(0, 0)], 2)
    for law in (rl.ssrw_law(2), rl.SignedAxisKickLaw(2, 0.05)):
        env = rl.sample_environment(law, seed=5)
        table = rl.green_row(env, region, (0, 0), tol=1e-13)
        assert table.value_at((0, 0)) == pytest.approx(1.0, abs=1e-12)


def test_two_site_green_value():
    # return route 0 -> e1 -> 0 with probability 1/16
    table = rl.green_row(ssrw_env(2), two_site_region(), (0, 0), tol=1e-13)
    assert table.value_at((0, 0)) == pytest.approx(16 / 15, abs=1e-12)
    assert table.value_at((1, 0)) == pytest.approx((16 / 15) * 0.25, abs=1e-12)


def test_two_site_hitting_and_no_return():
    env = ssrw_env(2)
    region = two_site_region()
    assert rl.hitting_probability(env, region, (1, 0), (0, 0), tol=1e-13) \
        == pytest.approx(0.25, abs=1e-12)
    assert rl.hitting_probability(env, region, (0, 0), (0, 0), tol=1e-13) == 1.0
    nr = rl.no_return_probability(env, region, (0, 0), tol=1e-13)
    assert nr == pytest.approx(15 / 16, abs=1e-12)
    g = rl.green_row(env, region, (0, 0), tol=1e-13).value_at((0, 0))
    assert g * nr == pytest.approx(1.0, abs=1e-11)


def test_single_site_no_return_is_one():
    region = rl.SiteSetRegion([(0, 0)], 2)
    assert rl.no_return_probability(ssrw_env(2), region, (0, 0)) \
        == pytest.approx(1.0, abs=1e-12)


def test_ratio_identity_on_random_environments():
    # g(x,y) = P_x(hit y first) / P_y(no return) on a 7x7 box
    law = rl.SignedAxisKickLaw(2, 0.05)
    region = rl.BoxRegion([-3, -3], [3, 3])
    gen = np.random.default_rng(1)
    for trial in range(5):
        env = rl.sample_environment(law, seed=rng.child_seed(17, trial))
        sites = region.interior_array()
        x = tuple(sites[gen.integers(len(sites))])
        y = tuple(sites[gen.integers(len(sites))])
        g = rl.green_row(env, region, x, tol=1e-13).value_at(y)
        hit = rl.hitting_probability(env, region, x, y, tol=1e-13)
        nr = rl.no_return_probability(env, region, y, tol=1e-13)
        assert g == pytest.approx(hit / nr, abs=1e-9)


def test_slab_unit_green_operator_matches_projection_oracle():
    # e1-projection is a lazy +-1 walk: expected exit steps d*L*(L+1)
    for d, L in ((2, 3), (2, 5)):
        slab = rl.SlabRegion(L, 4 * L * L, d)
        ones = np.ones(slab.interior_count())
        val = rl.green_operator(ssrw_env(d), slab, ones, (0,) * d, tol=1e-10)
        assert val == pytest.approx(d * L * (L + 1), rel=0.02)
        if L >= 3:
            assert val <= (4 / 3) * d * L * L + 1e-6


def test_green_operator_constant_drift_factorizes():
    # point mass: the integrand is constant, so G[drift] = lambda * G[1]
    law = rl.PointMassLaw([0.30, 0.20, 0.25, 0.25])
    env = rl.sample_environment(law, seed=2)
    slab = rl.SlabRegion(3, 18, 2)
    ones = np.ones(slab.interior_count())
    system = xs.build_system(env, slab)
    g1 = rl.green_operator(env, slab, ones, (0, 0), tol=1e-12)
    gd = rl.green_operator(env, slab, system.drift_field(), (0, 0), tol=1e-12)
    assert gd == pytest.approx(0.1 * g1, abs=1e-9)


def test_exit_distribution_gambler_oracle():
    slab = rl.SlabRegion(4, 64, 2)
    dist = rl.exit_distribution(ssrw_env(2), slab, (0, 0), tol=1e-12)
    assert dist.total() == pytest.approx(1.0, abs=1e-9)
    assert dist.frontal_mass() == pytest.approx(5 / 9, rel=0.02)


def test_exit_distribution_deterministic_ray():
    law = rl.PointMassLaw([1.0, 0.0, 0.0, 0.0])
    env = rl.sample_environment(law, seed=0)
    slab = rl.SlabRegion(2, 4, 2)
    dist = rl.exit_distribution(env, slab, (0, 0), tol=1e-13)
    assert dist.frontal_mass() == pytest.approx(1.0, abs=1e-12)
    sites = [tuple(s) for s in dist.sites]
    assert dist.masses[sites.index((2, 0))] == pytest.approx(1.0, abs=1e-12)


def test_exit_distribution_mass_conservation_random_envs():
    region = rl.BoxRegion([-2, -2], [2, 2])
    for trial in range(3):
        env = rl.sample_environment(rl.SignedAxisKickLaw(2, 0.05),
                                    seed=rng.child_seed(5, trial))
        dist = rl.exit_distribution(env, region, (0, 0), tol=1e-12)
        assert dist.total() == pytest.approx(1.0, abs=1e-9)
        assert np.all(dist.masses >= -1e-15)


@settings(max_examples=25, deadline=None)
@given(size=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       seed=st.integers(0, 2 ** 62),
       method=st.sampled_from(["dense", "neumann", "krylov"]),
       tol=st.sampled_from([1e-4, 1e-8, 1e-12]))
def test_exit_mass_plus_unkilled_mass_is_one(size, seed, method, tol):
    # Every unit started at x is killed on exit, except what the solve still
    # holds inside: the row residual sum(delta_x + g P - g), at most its
    # certified l1 norm.  So the two add up to 1 at any tolerance.
    region = rl.BoxRegion([0, 0], [size[0] - 1, size[1] - 1])
    env = rl.sample_environment(rl.SignedAxisKickLaw(2, 0.05, 0.02), seed=seed)
    dist = rl.exit_distribution(env, region, (0, 0), tol=tol, method=method)
    table = rl.green_row(env, region, (0, 0), tol=tol, method=method)
    system = xs.build_system(env, region)
    residual = system.P.T @ table.values - table.values
    residual[system.source_index((0, 0))] += 1.0
    assert dist.total() + residual.sum() == pytest.approx(1.0, abs=1e-13)
    assert abs(dist.total() - 1.0) <= table.l1_residual + 1e-13


def test_neumann_iterates_increase_monotonically():
    env = rl.sample_environment(rl.SignedAxisKickLaw(2, 0.05), seed=8)
    region = rl.BoxRegion([-2, -2], [2, 2])
    iterates = xs.neumann_green_iterates(env, region, (0, 0), 60)
    for prev, cur in zip(iterates, iterates[1:]):
        assert np.all(cur >= prev - 1e-15)
    fixed = rl.green_row(env, region, (0, 0), tol=1e-13).values
    assert np.all(iterates[-1] <= fixed + 1e-12)


def test_methods_agree():
    env = rl.sample_environment(rl.SignedAxisKickLaw(2, 0.04), seed=3)
    region = rl.SlabRegion(3, 12, 2)
    dense = rl.green_row(env, region, (0, 0), tol=1e-13, method="dense")
    neumann = rl.green_row(env, region, (0, 0), tol=1e-13, method="neumann")
    krylov = rl.green_row(env, region, (0, 0), tol=1e-13, method="krylov")
    assert np.max(np.abs(dense.values - neumann.values)) < 1e-10
    assert np.max(np.abs(dense.values - krylov.values)) < 1e-10


def test_green_table_invariants_and_certificate():
    env = rl.sample_environment(rl.SignedAxisKickLaw(2, 0.05), seed=21)
    region = rl.BoxRegion([-3, -3], [3, 3])
    table = rl.green_row(env, region, (0, 0), tol=1e-11)
    assert np.all(table.values >= 0)
    assert table.value_at((0, 0)) >= 1.0
    assert table.achieved_tol <= 1e-11


def test_truncation_stability_under_width_doubling():
    # doubling W beyond 4L^2 moves the unit Green operator by < 0.5%
    d, L = 2, 3
    env = ssrw_env(d)
    vals = []
    for W in (4 * L * L, 8 * L * L):
        slab = rl.SlabRegion(L, W, d)
        ones = np.ones(slab.interior_count())
        vals.append(rl.green_operator(env, slab, ones, (0,) * d, tol=1e-10))
    assert abs(vals[1] - vals[0]) / vals[0] < 0.005


def test_source_must_be_interior():
    with pytest.raises(ValueError):
        rl.green_row(ssrw_env(2), two_site_region(), (5, 5))


def _banded_region(kind, a, c, lo):
    if kind == "box":
        return rl.BoxRegion(lo, [lo[0] + a - 1, lo[1] + c - 1])
    if kind == "box3":
        return rl.BoxRegion(lo + [0], [lo[0] + a - 1, lo[1] + c - 1, (a + c) % 4])
    if kind == "half_space":
        return rl.HalfSpaceTrunc(1 if a % 2 else -1, c, 2)
    return rl.SlabRegion(min(a, c), max(a, c), 2)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["box", "half_space", "slab", "box3"]),
       a=st.integers(1, 7), c=st.integers(1, 7),
       lo=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       seed=st.integers(0, 2 ** 62), pick=st.integers(0, 10 ** 6))
def test_banded_matches_dense_on_boxes(kind, a, c, lo, seed, pick):
    # d=2 boxes, half-spaces and slabs, plus small d=3 boxes, where the
    # shortest-axis-fastest order permutes three axes
    region = _banded_region(kind, a, c, list(lo))
    law = rl.SignedAxisKickLaw(region.d, 0.05, 0.02)
    env = rl.sample_environment(law, seed=seed)
    system = xs.build_system(env, region)
    src = pick % system.n
    tol = 1e-12

    g_band, info = xs.solve_green_row(system, src, tol, method="banded")
    g_dense, _ = xs.solve_green_row(system, src, tol, method="dense")
    assert info.method == "banded"
    delta = np.zeros(system.n)
    delta[src] = 1.0
    residual = delta + system.P.T @ g_band - g_band
    assert np.abs(residual).sum() == pytest.approx(info.l1_residual, abs=1e-15)
    assert info.sup_residual <= tol
    assert np.max(np.abs(g_band - g_dense)) <= 1e-12

    f = system.drift_field()
    u_band = xs.solve_green_operator(system, f, tol, method="banded")
    u_dense = xs.solve_green_operator(system, f, tol, method="dense")
    assert np.max(np.abs(f + system.P @ u_band - u_band)) <= tol
    assert np.max(np.abs(u_band - u_dense)) <= 1e-12

    h_band = xs.solve_hitting(system, src, tol, method="banded")
    h_dense = xs.solve_hitting(system, src, tol, method="dense")
    assert h_band[src] == 1.0
    assert np.max(np.abs(h_band - h_dense)) <= 1e-12


def test_banded_needs_a_box_pattern_and_its_structure():
    env = ssrw_env(2)
    sites = rl.BoxRegion([0, 0], [2, 2]).interior_array()
    system = xs.build_system(env, rl.SiteSetRegion(sites, 2))
    with pytest.raises(ValueError):
        xs.solve_green_row(system, 0, method="banded")
    kick = rl.sample_environment(rl.SignedAxisKickLaw(2, 0.05), seed=9)
    box = xs.build_system(kick, rl.BoxRegion([0, 0], [2, 2]))
    b = np.zeros(box.n)
    b[0] = 1.0
    # entries are placed by A's own (row, column) pairs, so any CSR or CSC
    # matrix on the pattern's index arrays solves correctly
    x, _ = xs.solve_fixed_point(box.P.T, b, 1e-13, method="banded", pattern=box.pattern)
    y, _ = xs.solve_fixed_point(box.P.T.tocsr(), b, 1e-13, method="banded",
                                pattern=box.pattern)
    assert np.array_equal(x, y)
    pruned = box.P.tolil()
    pruned[0, 1] = 0.0
    for A in (box.P.tocoo(), pruned.tocsr()):
        with pytest.raises(ValueError):
            xs.solve_fixed_point(A, b, 1e-10, method="banded", pattern=box.pattern)


def test_auto_picks_banded_on_d2_half_space_and_krylov_on_d3_slab():
    law = rl.SignedAxisKickLaw(2, 0.05)
    region = rl.HalfSpaceTrunc(1, 30, 2)
    env = rl.sample_environment(law, seed=4)
    table = rl.green_row(env, region, (0, 0), tol=1e-10)
    assert table.method == "banded"
    assert xs.region_pattern(region).band_width == 31
    krylov = rl.green_row(env, region, (0, 0), tol=1e-10, method="krylov")
    assert np.max(np.abs(table.values - krylov.values)) < 1e-9

    slab = rl.SlabRegion(4, 32, 3)
    system = xs.build_system(ssrw_env(3), slab)
    assert system.pattern.band_width == 520
    _, info = xs.solve_fixed_point(system.P, np.ones(system.n), 1e-8,
                                   norm="linf", pattern=system.pattern)
    assert info.method == "krylov"


def test_auto_picks_krylov_off_boxes_and_beyond_the_memory_budget():
    sites = rl.BoxRegion([0, 0], [24, 24]).interior_array()
    site_set = xs.region_pattern(rl.SiteSetRegion(sites, 2))
    assert site_set.n > xs.DENSE_CUTOFF
    assert site_set.band_width is None
    assert xs.auto_method(site_set.n, site_set) == "krylov"
    _, info = xs.solve_green_row(
        xs.build_system(ssrw_env(2), site_set.region), 0, 1e-10)
    assert info.method == "krylov"
    # a thin box passes the shape test but its band array exceeds the budget
    thin = xs.region_pattern(rl.BoxRegion([0, 0], [99, 399]))
    w = thin.band_width
    assert w == 100 and w * w <= thin.n
    assert (3 * w + 1) * thin.n > xs.MEMORY_BUDGET
    assert xs.auto_method(thin.n, thin) == "krylov"
    # the same box, half as long, fits
    half = xs.region_pattern(rl.BoxRegion([0, 0], [99, 149]))
    assert xs.auto_method(half.n, half) == "banded"
    assert xs.auto_method(half.n) == "krylov"


@pytest.mark.parametrize("method, solver", [("dense", "_dense_solve"),
                                             ("banded", "_banded_solve")])
def test_direct_solves_enforce_tol(monkeypatch, method, solver):
    env = rl.sample_environment(rl.SignedAxisKickLaw(2, 0.05), seed=6)
    system = xs.build_system(env, rl.BoxRegion([0, 0], [4, 4]))
    exact, _ = xs.solve_green_row(system, 0, 1e-13, method=method)
    # a direct solution off by 1e-6 is polished down to the tolerance ...
    monkeypatch.setattr(xs, solver, lambda A, b, *rest: exact + 1e-6)
    g, info = xs.solve_green_row(system, 0, 1e-11, method=method)
    assert info.method == method and info.iterations > 0
    assert info.l1_residual <= 1e-11
    assert np.max(np.abs(g - exact)) < 1e-10
    # ... and one the polish cannot mend raises
    monkeypatch.setattr(xs, "_neumann_solve",
                        lambda A, b, tol, norm, x0: (x0, xs._residual(A, b, x0), 1))
    with pytest.raises(xs.SolverConvergenceError):
        xs.solve_green_row(system, 0, 1e-11, method=method)


def test_nan_solutions_are_not_certified(monkeypatch):
    env = rl.sample_environment(rl.SignedAxisKickLaw(2, 0.05), seed=6)
    system = xs.build_system(env, rl.BoxRegion([0, 0], [4, 4]))
    # a NaN residual fails the certificate and stops the polish at once
    monkeypatch.setattr(xs, "_dense_solve", lambda A, b: np.full(b.shape, np.nan))
    with pytest.raises(xs.SolverConvergenceError):
        xs.solve_green_row(system, 0, 1e-11, method="dense")
    matvecs = []

    def count(v):
        matvecs.append(1)
        return system.P.T @ v

    A = spla.LinearOperator((system.n, system.n), matvec=count, dtype=np.float64)
    b = np.zeros(system.n)
    b[0] = 1.0
    with pytest.raises(xs.SolverConvergenceError):
        xs._neumann_solve(A, b, 1e-11, x0=np.full(system.n, np.nan))
    assert len(matvecs) == 1


def test_neumann_method_is_the_plain_fixed_point_iteration():
    region = rl.SlabRegion(3, 12, 2)
    env = rl.sample_environment(rl.SignedAxisKickLaw(2, 0.04), seed=3)
    table = rl.green_row(env, region, (0, 0), tol=1e-13, method="neumann")
    assert table.method == "neumann" and table.l1_residual <= 1e-13
    iterates = xs.neumann_green_iterates(env, region, (0, 0), table.iterations)
    np.testing.assert_array_equal(table.values, iterates[-1])


@settings(max_examples=40, deadline=None)
@given(size=st.tuples(st.integers(1, 7), st.integers(1, 7)),
       seed=st.integers(0, 2 ** 62), pick=st.integers(0, 10 ** 6),
       n_iters=st.integers(1, 120))
def test_neumann_iterates_increase_to_the_dense_solution(size, seed, pick, n_iters):
    # b = delta_x >= 0, so every iterate adds nonnegative mass and stays
    # below the fixed point; only roundoff of 1e-12 is allowed
    region = rl.BoxRegion([0, 0], [size[0] - 1, size[1] - 1])
    env = rl.sample_environment(rl.SignedAxisKickLaw(2, 0.05, 0.02), seed=seed)
    sites = region.interior_array()
    x = tuple(sites[pick % len(sites)])
    iterates = xs.neumann_green_iterates(env, region, x, n_iters)
    dense = rl.green_row(env, region, x, tol=1e-13, method="dense").values
    assert np.all(iterates[0] >= 0)
    for prev, cur in zip(iterates, iterates[1:]):
        assert np.all(cur >= prev - 1e-12)
    for it in iterates:
        assert np.all(it <= dense + 1e-12)


def _small_region(kind, d, a, c):
    if kind == "box":
        return rl.BoxRegion([0] * d, [a - 1, c - 1, (a + c) % 3][:d])
    if kind == "half_space":
        return rl.HalfSpaceTrunc(1 if a % 2 else -1, c, d)
    return rl.SlabRegion(min(a, c), max(a, c), d)


def _assert_krylov_matches_dense(system, src, tol=1e-13, close=1e-12):
    g, info = xs.solve_green_row(system, src, tol, method="krylov")
    assert info.method == "krylov" and info.l1_residual <= tol
    assert np.max(np.abs(g - xs.solve_green_row(system, src, tol, method="dense")[0])) <= close
    f = system.drift_field()
    u = xs.solve_green_operator(system, f, tol, method="krylov")
    assert np.max(np.abs(f + system.P @ u - u)) <= tol
    assert np.max(np.abs(u - xs.solve_green_operator(system, f, tol, method="dense"))) <= close
    h = xs.solve_hitting(system, src, tol, method="krylov")
    assert np.max(np.abs(h - xs.solve_hitting(system, src, tol, method="dense"))) <= close


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["box", "half_space", "slab"]), d=st.sampled_from([2, 3]),
       a=st.integers(1, 4), c=st.integers(1, 4),
       reach=st.floats(0.0, 0.99), kick_share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 62), pick=st.integers(0, 10 ** 6))
def test_preconditioned_krylov_matches_dense_on_boxes(kind, d, a, c, reach, kick_share,
                                                      seed, pick):
    # kick a and shift lambda with eps = 4 d (a + lambda / 2) = reach < 1, so
    # every draw is a kick law inside the small-perturbation regime
    dev = reach / (4 * d)
    law = rl.SignedAxisKickLaw(d, kick_share * dev, lambda_shift=2 * (1 - kick_share) * dev)
    system = xs.build_system(rl.sample_environment(law, seed=seed), _small_region(kind, d, a, c))
    _assert_krylov_matches_dense(system, pick % system.n)


def test_krylov_reports_its_iterations():
    # the mean-kernel inverse is exact for the SSRW, and close for a weak kick
    ssrw = xs.build_system(ssrw_env(3), rl.BoxRegion([0, 0, 0], [9, 11, 13]))
    _, info = xs.solve_fixed_point(ssrw.P, np.ones(ssrw.n), 1e-10, norm="linf",
                                   method="krylov", pattern=ssrw.pattern)
    assert info.iterations <= 2 and info.sup_residual <= 1e-10
    law = rl.SignedAxisKickLaw(3, 0.005, lambda_shift=0.05)
    slab = xs.build_system(rl.sample_environment(law, seed=3), rl.SlabRegion(4, 16, 3))
    _, info = xs.solve_fixed_point(slab.P, slab.drift_field(), 1e-10, norm="linf",
                                   method="krylov", pattern=slab.pattern)
    assert 1 <= info.iterations <= 20 and info.sup_residual <= 1e-10


def test_krylov_without_a_finite_mean_kernel_inverse_still_certifies():
    # a zero mean weight makes the symmetrizing scaling infinite
    system = xs.build_system(rl.sample_environment(rl.PointMassLaw([0.5, 0.0, 0.2, 0.3]), 0),
                             rl.BoxRegion([0, 0], [14, 11]))
    assert xs._mean_kernel_inverse(system.P, system.pattern) is None
    _assert_krylov_matches_dense(system, 100)
    # a strong drift along a long axis spreads it beyond float64 precision
    strong = xs.build_system(
        rl.sample_environment(rl.PointMassLaw([0.97, 0.01, 0.01, 0.01]), 0),
        rl.BoxRegion([0, 0], [99, 399]))
    assert xs._mean_kernel_inverse(strong.P, strong.pattern) is None
    _, info = xs.solve_green_row(strong, strong.source_index((50, 200)), 1e-10, method="krylov")
    assert info.l1_residual <= 1e-10
    u = xs.solve_green_operator(strong, np.ones(strong.n), 1e-10, method="krylov")
    assert np.max(np.abs(1.0 + strong.P @ u - u)) <= 1e-10
