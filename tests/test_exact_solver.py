import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rwre_lab as rl
from rwre_lab import exact_solver as xs
from rwre_lab import rng

from csr_reference import csr_matrix, system_matrix


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


def _assert_csr_row_certificate(system, src, g, info, abs_tol=1e-15):
    """The certificate of a Green row solve, taken from the weights and
    the neighbour table, equals the l1 norm of the CSR residual
    delta_src + P^T g - g up to rounding."""
    delta = np.zeros(system.n)
    delta[src] = 1.0
    residual = delta + system_matrix(system).T @ g - g
    assert np.abs(residual).sum() == pytest.approx(info.l1_residual, abs=abs_tol)


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
    src = system.pattern.source_index((0, 0))
    residual = system_matrix(system).T @ table.values - table.values
    residual[src] += 1.0
    assert dist.total() + residual.sum() == pytest.approx(1.0, abs=1e-13)
    _assert_csr_row_certificate(system, src, table.values, table)
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
    g_dense, dense_info = xs.solve_green_row(system, src, tol, method="dense")
    assert info.method == "banded"
    _assert_csr_row_certificate(system, src, g_band, info)
    _assert_csr_row_certificate(system, src, g_dense, dense_info)
    assert info.sup_residual <= tol
    assert np.max(np.abs(g_band - g_dense)) <= 1e-12

    f = system.drift_field()
    u_band = xs.solve_green_operator(system, f, tol, method="banded")
    u_dense = xs.solve_green_operator(system, f, tol, method="dense")
    assert np.max(np.abs(f + system_matrix(system) @ u_band - u_band)) <= tol
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


def test_auto_picks_lockstep_on_d2_half_space_and_d3_slab():
    law = rl.SignedAxisKickLaw(2, 0.05)
    region = rl.HalfSpaceTrunc(1, 30, 2)
    env = rl.sample_environment(law, seed=4)
    table = rl.green_row(env, region, (0, 0), tol=1e-10)
    assert table.method == "lockstep"
    assert xs.region_pattern(region).band_width == 31
    krylov = rl.green_row(env, region, (0, 0), tol=1e-10, method="krylov")
    assert np.max(np.abs(table.values - krylov.values)) < 1e-9

    slab = rl.SlabRegion(4, 32, 3)
    system = xs.build_system(ssrw_env(3), slab)
    assert system.pattern.band_width == 520
    _, info = xs.solve_fixed_point(system, np.ones(system.n), 1e-8, norm="linf")
    assert info.method == "lockstep"


def test_auto_picks_krylov_off_boxes_and_beyond_the_memory_budget():
    sites = rl.BoxRegion([0, 0], [24, 24]).interior_array()
    site_set = xs.region_pattern(rl.SiteSetRegion(sites, 2))
    assert site_set.n > xs.DENSE_CUTOFF
    assert site_set.band_width is None
    assert xs.auto_method(site_set) == "krylov"
    _, info = xs.solve_green_row(
        xs.build_system(ssrw_env(2), site_set.region), 0, 1e-10)
    assert info.method == "krylov"
    # a thin box passes band LU's shape test, but its band array exceeds
    # the budget, and so do the axis matrices of lockstep's M
    thin = xs.region_pattern(rl.BoxRegion([0, 0], [19, 4999]))
    w = thin.band_width
    assert w == 20 and w * w <= thin.n and w * w < sum(thin.shape)
    assert (3 * w + 1) * thin.n > xs.MEMORY_BUDGET
    assert xs.auto_method(thin) == "krylov"
    # the same box, half as long, fits
    half = xs.region_pattern(rl.BoxRegion([0, 0], [19, 2499]))
    assert xs.auto_method(half) == "banded"
    # a wider box whose band array exceeds the budget goes lockstep
    wide = xs.region_pattern(rl.BoxRegion([0, 0], [99, 399]))
    assert (3 * wide.band_width + 1) * wide.n > xs.MEMORY_BUDGET
    assert xs.auto_method(wide) == "lockstep"


@pytest.mark.parametrize("method, solver", [("dense", "_dense_batch"),
                                             ("banded", "_banded_solve")])
def test_direct_solves_enforce_tol(monkeypatch, method, solver):
    env = rl.sample_environment(rl.SignedAxisKickLaw(2, 0.05), seed=6)
    system = xs.build_system(env, rl.BoxRegion([0, 0], [4, 4]))
    exact, _ = xs.solve_green_row(system, 0, 1e-13, method=method)
    # a direct solution off by 1e-6 is polished down to the tolerance ...
    # (the dense path is a batch of one, shape (1, n))
    off = exact[None] + 1e-6 if method == "dense" else exact + 1e-6
    monkeypatch.setattr(xs, solver, lambda *args: off)
    g, info = xs.solve_green_row(system, 0, 1e-11, method=method)
    assert info.method == method and info.iterations > 0
    assert info.l1_residual <= 1e-11
    assert np.max(np.abs(g - exact)) < 1e-10
    # the polish reports the residual of the g it returns
    _assert_csr_row_certificate(system, 0, g, info)
    # ... and one the polish cannot mend (no step allowed) raises
    monkeypatch.setattr(xs, "MAX_ITER", 0)
    with pytest.raises(xs.SolverConvergenceError):
        xs.solve_green_row(system, 0, 1e-11, method=method)


def test_nan_solutions_are_not_certified(monkeypatch):
    env = rl.sample_environment(rl.SignedAxisKickLaw(2, 0.05), seed=6)
    system = xs.build_system(env, rl.BoxRegion([0, 0], [4, 4]))
    # a NaN residual fails the certificate and stops the polish at once:
    # one operator application, the certificate's
    monkeypatch.setattr(xs, "_dense_batch",
                        lambda pattern, weights, b, transpose: np.full(b.shape, np.nan))
    applications = _spy(monkeypatch, "_batch_residual")
    with pytest.raises(xs.SolverConvergenceError):
        xs.solve_green_row(system, 0, 1e-11, method="dense")
    assert len(applications) == 1


def test_neumann_method_is_the_plain_fixed_point_iteration():
    region = rl.SlabRegion(3, 12, 2)
    env = rl.sample_environment(rl.SignedAxisKickLaw(2, 0.04), seed=3)
    table = rl.green_row(env, region, (0, 0), tol=1e-13, method="neumann")
    assert table.method == "neumann" and table.l1_residual <= 1e-13
    iterates = xs.neumann_green_iterates(env, region, (0, 0), table.iterations)
    np.testing.assert_array_equal(table.values, iterates[-1])


def test_neumann_stops_once_the_residual_stalls():
    # a tol below the rounding floor: the polish of the dense row raises
    # one window past the floor, not after MAX_ITER steps
    env = rl.sample_environment(rl.SignedAxisKickLaw(2, 0.05), seed=1)
    with pytest.raises(xs.SolverConvergenceError, match="did not reach tol=1e-30") as err:
        rl.green_row(env, rl.BoxRegion([0, 0], [6, 6]), (3, 3), tol=1e-30, method="dense")
    steps = int(str(err.value).split("after ")[1].split()[0])
    assert steps <= 2 * xs._NEUMANN_STALL


def test_slow_neumann_solve_outlasts_the_stall_window():
    # the SSRW on a 31 x 31 box contracts by about 1 - 5e-3 per step: the
    # iteration needs several windows of steps, and keeps setting minima
    system = xs.build_system(ssrw_env(2), rl.BoxRegion([0, 0], [30, 30]))
    window = max(system.n, xs._NEUMANN_STALL)
    x, info = xs.solve_fixed_point(system, np.ones(system.n), 1e-9, norm="linf",
                                   method="neumann")
    assert info.iterations > 3 * window
    assert info.sup_residual <= 1e-9


@pytest.mark.parametrize("L", [3, 4, 5, 6])
def test_neumann_reports_the_residual_of_the_row_it_returns(L):
    # criterion 1's d=2 SSRW slabs: the stopping residual is recomputed
    # from the returned row, so it is the CSR residual of that row
    region = rl.SlabRegion(L, 4 * L * L, 2)
    table = rl.green_row(ssrw_env(2), region, (0, 0), tol=1e-13, method="neumann")
    assert table.method == "neumann" and table.l1_residual <= 1e-13
    system = xs.build_system(ssrw_env(2), region)
    _assert_csr_row_certificate(system, system.pattern.source_index((0, 0)),
                                table.values, table)


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


def _assert_krylov_matches_dense(system, src, tol=1e-13, close=1e-12, rounding=1e-15):
    g, info = xs.solve_green_row(system, src, tol, method="krylov")
    assert info.method == "krylov" and info.l1_residual <= tol
    _assert_csr_row_certificate(system, src, g, info, rounding)
    g_dense, dense_info = xs.solve_green_row(system, src, tol, method="dense")
    _assert_csr_row_certificate(system, src, g_dense, dense_info, rounding)
    assert np.max(np.abs(g - g_dense)) <= close
    f = system.drift_field()
    u = xs.solve_green_operator(system, f, tol, method="krylov")
    assert np.max(np.abs(f + system_matrix(system) @ u - u)) <= tol
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


def _mean_kernel(A, pattern):
    """I - P_bar as a dense matrix, P_bar averaging A's entries by the step
    each one makes between interior sites."""
    coo = A.tocoo()
    steps = pattern.interior[coo.col] - pattern.interior[coo.row]
    _, which = np.unique(steps, axis=0, return_inverse=True)
    mean = np.bincount(which, weights=coo.data) / np.bincount(which)
    P_bar = np.zeros((pattern.n, pattern.n))
    P_bar[coo.row, coo.col] = mean[which]
    return np.eye(pattern.n) - P_bar


@pytest.mark.parametrize("hi", [[4, 6], [0, 5], [3, 4, 2], [2, 0, 3], [0, 4, 0]])
@pytest.mark.parametrize("transpose", [False, True])
def test_mean_kernel_inverse_is_exact(hi, transpose):
    d = len(hi)
    law = rl.SignedAxisKickLaw(d, 0.02, lambda_shift=0.04)
    system = xs.build_system(rl.sample_environment(law, seed=1), rl.BoxRegion([0] * d, hi))
    P = system_matrix(system)
    A = P.T if transpose else P
    assert A.format == ("csc" if transpose else "csr")
    v = np.random.default_rng(0).standard_normal(system.n)
    exact = np.linalg.solve(_mean_kernel(A, system.pattern), v)
    M = xs._mean_kernel_inverse(system, transpose)
    assert M.dtype == np.float64
    assert np.max(np.abs(M.matvec(v) - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("hi", [[4, 6], [0, 5], [3, 4, 2], [2, 0, 3], [0, 4, 0]])
@pytest.mark.parametrize("transpose", [False, True])
def test_single_precision_mean_kernel_matches_double(hi, transpose):
    d = len(hi)
    law = rl.SignedAxisKickLaw(d, 0.02, lambda_shift=0.04)
    system = xs.build_system(rl.sample_environment(law, seed=1), rl.BoxRegion([0] * d, hi))
    pattern = system.pattern
    v = np.random.default_rng(0).standard_normal(pattern.shape)
    double, single = xs._mean_kernel(pattern, system.weights[None], transpose)[1]
    assert single[2].dtype == np.float32
    got, want = xs._apply_mean_kernel(single, v), xs._apply_mean_kernel(double, v)
    assert got.dtype == np.float32 and want.dtype == np.float64
    # float32 rounding, about 2^-24 per operation (measured: 0.9-4.5 units)
    assert 0 < np.max(np.abs(got - want)) <= 16 * 2.0 ** -24 * np.max(np.abs(want))


def test_mean_kernel_inverse_exists_on_the_d3_slab():
    law = rl.SignedAxisKickLaw(3, 0.005, lambda_shift=0.05)
    slab = xs.build_system(rl.sample_environment(law, seed=3), rl.SlabRegion(4, 32, 3))
    assert xs._mean_kernel_inverse(slab, False) is not None


def test_krylov_reports_its_iterations():
    # the mean-kernel inverse is exact for the SSRW, and close for a weak kick
    ssrw = xs.build_system(ssrw_env(3), rl.BoxRegion([0, 0, 0], [9, 11, 13]))
    _, info = xs.solve_fixed_point(ssrw, np.ones(ssrw.n), 1e-10, norm="linf",
                                   method="krylov")
    assert info.iterations <= 2 and info.sup_residual <= 1e-10
    law = rl.SignedAxisKickLaw(3, 0.005, lambda_shift=0.05)
    slab = xs.build_system(rl.sample_environment(law, seed=3), rl.SlabRegion(4, 16, 3))
    _, info = xs.solve_fixed_point(slab, slab.drift_field(), 1e-10, norm="linf",
                                   method="krylov")
    assert 1 <= info.iterations <= 20 and info.sup_residual <= 1e-10


def test_krylov_without_a_finite_mean_kernel_inverse_still_certifies():
    # a zero mean weight makes the symmetrizing scaling infinite
    system = xs.build_system(rl.sample_environment(rl.PointMassLaw([0.5, 0.0, 0.2, 0.3]), 0),
                             rl.BoxRegion([0, 0], [14, 11]))
    assert xs._mean_kernel_inverse(system, False) is None
    # 180 sites and a row of l1 norm 13: the two residuals' l1 norms differ
    # by rounding of 1.6e-15 here, more than on the small boxes
    _assert_krylov_matches_dense(system, 100, rounding=1e-14)
    # a strong drift along a long axis spreads it beyond float64 precision
    strong = xs.build_system(
        rl.sample_environment(rl.PointMassLaw([0.97, 0.01, 0.01, 0.01]), 0),
        rl.BoxRegion([0, 0], [99, 399]))
    assert xs._mean_kernel_inverse(strong, False) is None
    _, info = xs.solve_green_row(strong, strong.pattern.source_index((50, 200)), 1e-10,
                                 method="krylov")
    assert info.l1_residual <= 1e-10
    u = xs.solve_green_operator(strong, np.ones(strong.n), 1e-10, method="krylov")
    assert np.max(np.abs(1.0 + system_matrix(strong) @ u - u)) <= 1e-10
    # the axis matrices of a box 2000 sites long exceed the memory budget
    long = xs.build_system(rl.sample_environment(rl.SignedAxisKickLaw(2, 0.05), 0),
                           rl.BoxRegion([0, 0], [1, 1999]))
    assert 2 * (2 ** 2 + 2000 ** 2) > xs.MEMORY_BUDGET
    assert xs._mean_kernel_inverse(long, True) is None
    _, info = xs.solve_green_row(long, long.pattern.source_index((0, 1000)), 1e-10,
                                 method="krylov")
    assert info.method == "krylov" and info.l1_residual <= 1e-10


def test_green_batch_per_environment_path_matches_row_solves():
    # n = 1032 > DENSE_CUTOFF on an elongated d=2 box, which stays off the
    # lockstep path: every environment gets band LU
    region = rl.SlabRegion(4, 64, 2)
    pattern = xs.region_pattern(region)
    assert pattern.n == 1032 and xs.auto_method(pattern) == "banded"
    src = pattern.source_index((0, 0))
    envs = [rl.sample_environment(rl.SignedAxisKickLaw(2, 0.05), seed=s) for s in range(3)]
    weights = np.stack([env.weights_block(pattern.interior) for env in envs])
    g = xs.solve_batch(pattern, weights, np.eye(1, pattern.n, src)[0], 1e-10, transpose=True)
    for b, env in enumerate(envs):
        row, info = xs.solve_green_row(xs.build_system(env, region), src, 1e-10)
        assert info.method == "banded"
        assert np.array_equal(g[b], row)
    with pytest.raises(ValueError, match="DENSE_CUTOFF"):
        xs.solve_batch(pattern, weights, None, 1e-10)


def _row_solves(pattern, weights, src, tol):
    """One independent `solve_fixed_point` row solve per environment."""
    e_src = np.zeros(pattern.n)
    e_src[src] = 1.0
    return np.stack([xs.solve_fixed_point(xs.QuenchedSystem(pattern, w), e_src, tol,
                                          transpose=True)[0]
                     for w in weights])


@pytest.mark.parametrize("region, B", [
    (10, 40), (20, 12), (30, 4),  # d=2 half-spaces HalfSpaceTrunc(-1, N, 2)
    # boxes that go lockstep at these B only: stacked dense LU below, and
    # band LU per environment on the slab
    pytest.param(rl.HalfSpaceTrunc(1, 5, 2), 20, id="6x11-20"),
    pytest.param(rl.SlabRegion(3, 6, 2), 20, id="6x13-20"),
    pytest.param(rl.HalfSpaceTrunc(1, 6, 2), 20, id="7x13-20"),
    pytest.param(rl.BoxRegion([0, 0], [7, 7]), 20, id="8x8-20"),
    pytest.param(rl.BoxRegion([-2, -2], [2, 2]), 400, id="5x5-400"),
    pytest.param(rl.SlabRegion(4, 64, 2), 63, id="8x129-63"),
])
def test_lockstep_rows_are_certified_and_match_row_solves(region, B):
    key = region  # a half-space's N keys its seeds, else the pattern's n
    if isinstance(region, int):
        region = rl.HalfSpaceTrunc(-1, region, 2)
    pattern = xs.region_pattern(region)
    src = pattern.source_index((0, 0))
    assert xs.auto_method(pattern, B) == "lockstep"
    law = rl.SignedAxisKickLaw(2, 0.05, lambda_shift=1e-5)
    key = key if isinstance(key, int) else pattern.n
    envs = [rl.sample_environment(law, seed=rng.child_seed(key, s)) for s in range(B)]
    direct = xs._direct_or_krylov(pattern)  # dense or band LU
    weights = np.stack([env.weights_block(pattern.interior) for env in envs])
    tol = 1e-10
    e_src = np.broadcast_to(np.eye(1, pattern.n, src)[0], (B, pattern.n))
    lockstep, _ = xs._lockstep(pattern, weights, e_src, np.full(B, tol))
    assert lockstep is not None
    xs._certify_batch(pattern, weights, e_src, lockstep, tol, "l1", True)
    assert np.array_equal(xs.solve_batch(pattern, weights, e_src[0], tol, transpose=True),
                          lockstep)
    # the operator form: the drift fields, held in sup norm
    fields = 3.0 * (weights[:, :, 0] - weights[:, :, 1])
    tols = xs._scaled_tol(tol, fields)
    ops = xs.solve_batch(pattern, weights, fields, tol, norm="linf")
    xs._certify_batch(pattern, weights, fields, ops, tols, "linf", False)
    for g, u, f, t, env in zip(lockstep, ops, fields, tols, envs):
        system = xs.build_system(env, region)
        row, info = xs.solve_green_row(system, src, tol, method=direct)
        # both residuals are at most tol in l1, and ||(I - P^T)^-1||_1 is the
        # largest expected exit time, which bounds the l1 error of each
        exit_time = xs.solve_green_operator(system, np.ones(system.n), 1e-12).max()
        assert np.abs(g - row).sum() <= exit_time * (tol + info.l1_residual) * (1 + 1e-9)
        # and in sup norm ||(I - P)^-1||_inf is the same exit time
        one, info = xs.solve_fixed_point(system, f, t, norm="linf", method=direct)
        assert np.abs(u - one).max() <= exit_time * (t + info.sup_residual) * (1 + 1e-9)


@pytest.mark.parametrize("case", ["no preconditioner", "stagnation"])
def test_lockstep_falls_back_to_per_environment_row_solves(case):
    region = rl.HalfSpaceTrunc(1, 30 if case == "no preconditioner" else 10, 2)
    pattern = xs.region_pattern(region)
    src = pattern.source_index((0, 0))
    if case == "no preconditioner":
        # the drift spreads the mean kernel's scaling over more than 2^53
        law = rl.PointMassLaw([0.97, 0.01, 0.01, 0.01])
        weights = np.stack([rl.sample_environment(law, seed=s).weights_block(pattern.interior)
                            for s in range(2)])
        assert xs._mean_kernel_inverse(xs.QuenchedSystem(pattern, weights[0]), True) is None
    else:
        # disorder far from the mean kernel: Richardson diverges at once
        weights = np.random.default_rng(0).dirichlet(np.ones(4), size=(10, pattern.n))
    B = weights.shape[0]
    e_src = np.broadcast_to(np.eye(1, pattern.n, src)[0], (B, pattern.n))
    assert xs.auto_method(pattern, B) == "lockstep"
    assert xs._lockstep(pattern, weights, e_src, np.full(B, 1e-10))[0] is None
    g = xs.solve_batch(pattern, weights, e_src[0], 1e-10, transpose=True)
    assert np.array_equal(g, _row_solves(pattern, weights, src, 1e-10))


def _spy(monkeypatch, name):
    """Every call of xs.<name> that returns, as (args, kwargs, result);
    each call is passed on."""
    real, calls = getattr(xs, name), []

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(xs, name, spy)
    return calls


def _record_precisions(monkeypatch):
    """The dtype name of every mean-kernel application, in order."""
    apply, seen = xs._apply_mean_kernel, []

    def record(factors, v):
        seen.append(factors[2].dtype.name)
        return apply(factors, v)

    monkeypatch.setattr(xs, "_apply_mean_kernel", record)
    return seen


def _stalled_factors(monkeypatch, double=False):
    """Float32 mean-kernel factors whose M is zero, so it never moves x;
    with double, the float64 ones too."""
    factors = xs._mean_kernel_factors

    def zero(f):
        return (*f[:2], np.zeros_like(f[2]))

    def stalled(p, shape):
        d64, d32 = factors(p, shape)
        return (zero(d64) if double else d64), zero(d32)

    monkeypatch.setattr(xs, "_mean_kernel_factors", stalled)


def test_stalled_single_precision_lockstep_reruns_in_double(monkeypatch):
    region = rl.HalfSpaceTrunc(-1, 10, 2)
    pattern = xs.region_pattern(region)
    B, tol = 40, 1e-10
    assert xs.auto_method(pattern, B) == "lockstep"
    law = rl.SignedAxisKickLaw(2, 0.05, lambda_shift=1e-5)
    weights = rl.env_model.sample_weights(law, pattern.interior, range(B))
    e_src = np.broadcast_to(np.eye(1, pattern.n, pattern.source_index((0, 0)))[0],
                            (B, pattern.n))
    _stalled_factors(monkeypatch)
    seen = _record_precisions(monkeypatch)
    g, applies = xs._lockstep(pattern, weights, e_src, np.full(B, tol))
    # two float32 applies leave the residual where it was, then the whole
    # batch runs again from zero with the float64 M
    assert g is not None and seen[:2] == ["float32"] * 2
    assert len(seen) > 2 and set(seen[2:]) == {"float64"}
    assert applies == len(seen)  # both precisions count
    xs._certify_batch(pattern, weights, e_src, g, tol, "l1", True)
    assert np.array_equal(xs.solve_batch(pattern, weights, e_src[0], tol, transpose=True), g)
    # the l1 error is at most the largest expected exit time times the sum
    # of both l1 residuals
    dense = xs._dense_batch(pattern, weights, e_src, True)
    exit_time = xs._dense_batch(pattern, weights, np.ones((B, pattern.n)), False).max()
    assert np.abs(g - dense).sum(axis=1).max() <= exit_time * tol * (1 + 1e-6)


@pytest.mark.parametrize("N", [10, 20, 30])
def test_single_precision_lockstep_takes_the_double_precision_iterations(N, monkeypatch):
    # criterion 5's law and batch sizes: the float32 M must not cost
    # iterations, or it loses its speed-up
    region = rl.HalfSpaceTrunc(-1, N, 2)
    pattern = xs.region_pattern(region)
    B = xs.batch_size(pattern)
    law = rl.SignedAxisKickLaw(2, 0.05, lambda_shift=1e-5)
    weights = rl.env_model.sample_weights(law, pattern.interior,
                                          rng.child_seed(N, np.arange(B)))
    e_src = np.broadcast_to(np.eye(1, pattern.n, pattern.source_index((0, 0)))[0],
                            (B, pattern.n))
    tols = np.full(B, 1e-10)
    seen = _record_precisions(monkeypatch)
    single, applies = xs._lockstep(pattern, weights, e_src, tols)
    assert single is not None and set(seen) == {"float32"}
    assert applies == len(seen)
    seen.clear()
    factors = xs._mean_kernel_factors
    monkeypatch.setattr(xs, "_mean_kernel_factors", lambda p, shape: (factors(p, shape)[0], None))
    double, _ = xs._lockstep(pattern, weights, e_src, tols)
    assert set(seen) == {"float64"} and len(seen) == applies
    assert np.max(np.abs(single - double)) <= 1e-14


def _certificate_cases(region):
    """(b, x, transpose) for rows, operators and whole inverses on a region
    small enough for the stacked dense LU, and their weights."""
    pattern = xs.region_pattern(region)
    law = rl.SignedAxisKickLaw(region.d, 0.05, 0.02)
    weights = rl.env_model.sample_weights(law, pattern.interior, range(4))
    rows = np.broadcast_to(np.eye(1, pattern.n, pattern.n // 2)[0], weights.shape[:2])
    fields = np.random.default_rng(3).uniform(-1.0, 1.0, weights.shape[:2])
    cases = {"rows": (rows, True), "operators": (fields, False), "inverses": (None, False)}
    return pattern, weights, {kind: (b, xs.solve_batch(pattern, weights, b, 1e-12,
                                                       transpose=t), t)
                              for kind, (b, t) in cases.items()}


_CERTIFIED_REGIONS = [
    rl.BoxRegion([-3, -2], [3, 4]),
    rl.SiteSetRegion([(i, j) for i in range(-4, 5) for j in range(-4, 5)
                      if i * i + j * j <= 12 and (i, j) != (1, 1)], 2),
]


@pytest.mark.parametrize("region", _CERTIFIED_REGIONS)
def test_gather_residual_equals_the_sparse_residual(region):
    pattern, weights, cases = _certificate_cases(region)
    for kind, (b, x, transpose) in cases.items():
        r = xs._batch_residual(pattern, weights, b, x, transpose)
        for k in range(len(weights)):
            P = csr_matrix(pattern, weights[k])
            A = P.T if transpose else P
            cols = x[k] if b is None else x[k][:, None]
            rhs = np.eye(pattern.n) if b is None else b[k][:, None]
            want = rhs + A @ cols - cols
            assert r[k].shape == want.shape
            assert np.max(np.abs(r[k] - want)) <= 1e-15, kind


@pytest.mark.parametrize("region", _CERTIFIED_REGIONS)
def test_a_bumped_entry_fails_the_certificate_of_its_environment(region, monkeypatch):
    pattern, weights, cases = _certificate_cases(region)
    for kind, (b, x, transpose) in cases.items():
        assert xs._certify_batch(pattern, weights, b, x, 1e-10, "l1", transpose)[0] is x
        bumped = x.copy()
        bumped[2, pattern.n // 3] += 1e-8
        # the polish mends the bumped environment in a copy, and only it
        mended, r, steps = xs._certify_batch(pattern, weights, b, bumped, 1e-10, "l1",
                                             transpose)
        assert mended is not bumped
        assert np.array_equal(bumped[2, pattern.n // 3], x[2, pattern.n // 3] + 1e-8)
        assert steps[2] > 0 and not steps[[0, 1, 3]].any(), kind
        assert np.abs(r).sum(axis=1).max() <= 1e-10
        assert np.array_equal(mended[[0, 1, 3]], x[[0, 1, 3]])
        with monkeypatch.context() as m:
            m.setattr(xs, "MAX_ITER", 0)  # ... and one it cannot mend raises
            with pytest.raises(xs.BatchSolveError) as exc:
                xs._certify_batch(pattern, weights, b, bumped, 1e-10, "l1", transpose)
        assert exc.value.index == 2, kind


@pytest.mark.parametrize("region, B, lockstep", [
    (rl.HalfSpaceTrunc(1, 10, 2), 40, True),
    (rl.HalfSpaceTrunc(-1, 20, 2), 40, True),
    (rl.HalfSpaceTrunc(1, 30, 2), 40, True),
    (rl.HalfSpaceTrunc(1, 8, 2), 20, True),
    (rl.SlabRegion(4, 64, 2), 40, True),      # elongated: band LU costs more
    (rl.BoxRegion([-2, -2], [2, 2]), 400, True),  # B spreads the fixed cost
    (rl.BoxRegion([-3, -3], [3, 3]), 20, False),  # stacked dense LU
    (rl.HalfSpaceTrunc(1, 10, 3), 40, True),  # d = 3 batches too
    (rl.HalfSpaceTrunc(1, 10, 2), 4, True),
    (rl.SiteSetRegion([(0, 0), (1, 0), (1, 1)], 2), 400, False),
    # both sides of the break-even B on small boxes
    (rl.BoxRegion([-1, -1, -1], [1, 1, 1]), 75, False),
    (rl.BoxRegion([-1, -1, -1], [1, 1, 1]), 800, True),
    (rl.BoxRegion([0, 0], [7, 7]), 20, True),
    (rl.BoxRegion([0, 0], [7, 7]), 100, True),
    (rl.SlabRegion(3, 6, 2), 20, True),           # 6 x 13
    (rl.HalfSpaceTrunc(1, 6, 2), 20, True),       # 7 x 13
    (rl.BoxRegion([-1, -1], [1, 1]), 4096, False),  # 3 x 3 enumerations
    (rl.SlabRegion(4, 64, 2), 1, False),          # single solves: band LU
    (rl.BallisticityBox(2, 2), 1, False),         # 2 x 399
])
def test_lockstep_dispatch(region, B, lockstep, monkeypatch):
    monkeypatch.setenv("RWRE_THREADS", "1")
    pattern = xs.region_pattern(region)
    method = xs.auto_method(pattern, B)
    assert (method == "lockstep") is lockstep
    assert lockstep or method == xs._direct_or_krylov(pattern)
    # rows and operators, d=2 and d=3, take the path the rule names
    calls = _spy(monkeypatch, "_lockstep")
    weights = rl.env_model.sample_weights(rl.SignedAxisKickLaw(region.d, 0.05, 0.02),
                                          pattern.interior, range(B))
    b = np.eye(1, pattern.n, pattern.n // 2)[0]
    for transpose in (True, False):
        x = xs.solve_batch(pattern, weights, b, 1e-10, transpose=transpose)
        assert x.shape == (B, pattern.n)
    assert len(calls) == (2 if lockstep else 0)
    # past single solves a larger batch only spreads lockstep's fixed cost:
    # lockstep at B stays lockstep at 4 B
    if lockstep and B > 1:
        assert xs.auto_method(pattern, 4 * B) == "lockstep"
    if not lockstep:
        return
    # lockstep batches are sized by B n, and whole inverses by B n^2
    assert xs.batch_size(pattern) == min(xs._LOCKSTEP_UNKNOWNS // pattern.n, 4096)
    assert xs.batch_size(pattern, inverses=True) == max(
        1, min(xs.MEMORY_BUDGET // pattern.n ** 2, 4096))


def _operator_cases(region, B=4):
    """(weights, fields) of B kick-law environments on a region small
    enough for the stacked dense LU, fields with sup norm above 1."""
    pattern = xs.region_pattern(region)
    law = rl.SignedAxisKickLaw(region.d, 0.05, 0.02)
    weights = rl.env_model.sample_weights(law, pattern.interior, range(B))
    return pattern, weights, 3.0 * (weights[:, :, 0] - weights[:, :, 1])


def _absorbing(pattern, weights, y):
    """The hitting system of `solve_hitting` for every environment: weights
    with site y absorbing, and the right-hand sides."""
    weights = weights.copy()
    z, e = np.nonzero(pattern.nbr == y)
    b = np.zeros(weights.shape[:2])
    b[:, z] = weights[:, z, e]
    b[:, y] = 1.0
    weights[:, z, e] = 0.0
    weights[:, y] = 0.0
    return weights, b


@pytest.mark.parametrize("case", ["d3 box", "d2 box", "hitting"])
def test_operator_lockstep_matches_dense_operators(case):
    region = rl.BoxRegion([-3, -3, -3], [3, 3, 3]) if case == "d3 box" \
        else rl.HalfSpaceTrunc(1, 10, 2)
    pattern, weights, b = _operator_cases(region)
    if case == "hitting":
        weights, b = _absorbing(pattern, weights, pattern.source_index((2, 0)))
    B, tol = len(weights), 1e-10
    tols = xs._scaled_tol(tol, b)
    x, applies = xs._lockstep(pattern, weights, b, tols, "linf", transpose=False)
    if case == "hitting":
        # the absorbing site is a defect of order one that M spreads: the
        # first step raises the worst residual (1.0 to 1.9 here), so the
        # lockstep declines after two applies per precision, and a single
        # solve falls back to `_direct_or_krylov`: dense LU at n = 231
        assert x is None and applies == 4
        solves = [xs.solve_fixed_point(xs.QuenchedSystem(pattern, w), b_k, t, "linf",
                                       method="lockstep")
                  for w, b_k, t in zip(weights, b, tols)]
        assert {info.method for _, info in solves} == {"dense"}
        x = np.stack([u for u, _ in solves])
    assert applies > 0
    xs._certify_batch(pattern, weights, b, x, tols, "linf", False)
    # both residuals are held in sup norm, and ||(I - P)^-1||_inf is the
    # largest expected exit time, which bounds the sup error of each
    dense = xs._dense_batch(pattern, weights, b, False)
    dense_res = np.abs(xs._batch_residual(pattern, weights, b, dense, False)).max(axis=(1, 2))
    exit_time = xs._dense_batch(pattern, weights, np.ones((B, pattern.n)), False).max(axis=1)
    err = np.abs(x - dense).max(axis=1)
    assert np.all(err <= exit_time * (tols + dense_res) * (1 + 1e-9))


@pytest.mark.parametrize("region, transpose", [
    (rl.HalfSpaceTrunc(1, 4, 3), True),        # d=3 rows, n = 405
    (rl.BoxRegion([-2] * 3, [2] * 3), True),    # d=3 rows, n = 125
    (rl.HalfSpaceTrunc(-1, 4, 3), False),      # d=3 operators
    (rl.BoxRegion([-2] * 3, [2] * 3), False),
    (rl.HalfSpaceTrunc(1, 10, 2), False),      # d=2 operators, n = 231
])
def test_lockstep_batches_of_rows_and_operators_are_certified(region, transpose,
                                                               monkeypatch):
    pattern = xs.region_pattern(region)
    B, tol = 16, 1e-10
    assert xs.auto_method(pattern, B) == "lockstep"
    weights = rl.env_model.sample_weights(rl.SignedAxisKickLaw(region.d, 0.05, 0.02),
                                          pattern.interior, range(B))
    if transpose:
        norm, b = "l1", np.eye(1, pattern.n, pattern.source_index((0,) * region.d))[0]
    else:
        norm, b = "linf", 3.0 * (weights[:, :, 0] - weights[:, :, 1])
    calls = _spy(monkeypatch, "_lockstep")
    runs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("RWRE_THREADS", threads)
        runs.append(xs.solve_batch(pattern, weights, b, tol, norm, transpose))
    assert runs[0].tobytes() == runs[1].tobytes()
    assert [len(args[1]) for args, _, _ in calls] == [B, B]  # one batch each
    x, b = runs[0], np.broadcast_to(b, (B, pattern.n))
    tols = xs._scaled_tol(tol, b)
    xs._certify_batch(pattern, weights, b, x, tols, norm, transpose)
    # the error is at most ||(I - A)^-1|| (the largest expected exit time,
    # in l1 for rows and sup for operators) times both residuals
    dense = xs._dense_batch(pattern, weights, b, transpose)
    dense_res = np.abs(xs._batch_residual(pattern, weights, b, dense, transpose))[:, :, 0]
    exit_time = xs._dense_batch(pattern, weights, np.ones((B, pattern.n)), False).max(axis=1)
    if norm == "l1":
        err, dense_res = np.abs(x - dense).sum(axis=1), dense_res.sum(axis=1)
    else:
        err, dense_res = np.abs(x - dense).max(axis=1), dense_res.max(axis=1)
    assert np.all(err <= exit_time * (tols + dense_res) * (1 + 1e-9))


@pytest.mark.parametrize("transpose", [True, False])
def test_a_failed_lockstep_batch_solves_each_environment_without_lockstep(transpose,
                                                                         monkeypatch):
    # n = 861 > DENSE_CUTOFF, where `_direct_or_krylov` takes band LU
    region = rl.HalfSpaceTrunc(1, 20, 2)
    pattern = xs.region_pattern(region)
    B = 5
    assert xs.auto_method(pattern, B) == "lockstep"
    assert xs._direct_or_krylov(pattern) == "banded"
    weights = rl.env_model.sample_weights(rl.SignedAxisKickLaw(2, 0.05, 0.02),
                                          pattern.interior, range(B))
    b = np.eye(1, pattern.n, pattern.source_index((0, 0)))[0]
    norm = "l1" if transpose else "linf"
    _stalled_factors(monkeypatch, double=True)
    lockstep_calls = _spy(monkeypatch, "_lockstep")
    solves = _spy(monkeypatch, "_banded_solve")
    x = xs.solve_batch(pattern, weights, b, 1e-10, norm, transpose)
    # the batch runs lockstep once, and each environment then goes straight
    # to band LU
    assert len(lockstep_calls) == 1 and len(lockstep_calls[0][0][1]) == B
    assert len(solves) == B
    xs._certify_batch(pattern, weights, np.broadcast_to(b, (B, pattern.n)), x, 1e-10,
                      norm, transpose)


def test_hitting_solves_skip_lockstep(monkeypatch):
    # an absorbing site stalls lockstep, so auto takes `_direct_or_krylov`
    region = rl.BoxRegion([-4] * 3, [4] * 3)
    pattern = xs.region_pattern(region)
    assert xs.auto_method(pattern) == "lockstep"
    env = rl.sample_environment(rl.SignedAxisKickLaw(3, 0.05, 0.02), seed=2)
    dense = xs.hitting_probability_field(env, region, (1, 0, 0), method="dense")
    calls = _spy(monkeypatch, "_lockstep")
    h = xs.hitting_probability_field(env, region, (1, 0, 0))
    assert calls == []
    assert np.max(np.abs(h - dense)) <= 1e-9


def test_single_lockstep_solve_on_the_d3_slab_is_certified(monkeypatch):
    # criterion 6's law and slab: one environment, A = P, sup norm
    law = rl.SignedAxisKickLaw(3, 0.005, lambda_shift=0.05)
    system = xs.build_system(rl.sample_environment(law, seed=3), rl.SlabRegion(4, 32, 3))
    f = system.drift_field()
    tol = xs._scaled_tol(1e-10, f)
    seen = _record_precisions(monkeypatch)
    u, info = xs.solve_fixed_point(system, f, tol, norm="linf")
    assert info.method == "lockstep" and info.sup_residual <= tol
    assert info.iterations == len(seen) and set(seen) == {"float32"}
    r = f + system_matrix(system) @ u - u
    assert np.abs(r).max() <= tol * (1 + 1e-6)
    # within the certified bound of the preconditioned Krylov solve, with
    # the largest expected exit time bounding ||(I - P)^-1||_inf
    krylov, k_info = xs.solve_fixed_point(system, f, tol, norm="linf", method="krylov")
    exit_time = xs.solve_green_operator(system, np.ones(system.n), 1e-8).max()
    assert np.abs(u - krylov).max() <= (exit_time + 1e-6) * (tol + k_info.sup_residual)


@pytest.mark.parametrize("region, fallback", [(rl.HalfSpaceTrunc(1, 20, 2), "banded"),
                                              (rl.SlabRegion(3, 8, 3), "krylov")])
def test_a_stalled_single_lockstep_solve_falls_back_and_certifies(region, fallback,
                                                                   monkeypatch):
    law = rl.SignedAxisKickLaw(region.d, 0.05, 0.02)
    system = xs.build_system(rl.sample_environment(law, seed=5), region)
    src = system.pattern.source_index((0,) * region.d)
    want, want_info = xs.solve_green_row(system, src, 1e-10)
    assert want_info.method == "lockstep"
    _stalled_factors(monkeypatch, double=True)
    seen = _record_precisions(monkeypatch)
    got, info = xs.solve_green_row(system, src, 1e-10)
    # two float32 applies leave the residual where it was, two float64
    # ones too; the fallback's path is named and its iterations added
    assert seen[:4] == ["float32", "float32", "float64", "float64"]
    assert info.method == fallback and info.iterations >= 4
    assert info.l1_residual <= 1e-10
    exit_time = xs.solve_green_operator(system, np.ones(system.n), 1e-12).max()
    assert np.abs(got - want).sum() <= exit_time * (1e-10 + want_info.l1_residual) * (1 + 1e-9)


def test_green_tables_count_both_precisions_of_lockstep(monkeypatch):
    # a float32 run that stalls is re-run in float64, and the table shows it
    env = rl.sample_environment(rl.SignedAxisKickLaw(2, 0.05), seed=4)
    region = rl.HalfSpaceTrunc(1, 30, 2)
    _stalled_factors(monkeypatch)
    seen = _record_precisions(monkeypatch)
    table = rl.green_row(env, region, (0, 0), tol=1e-10)
    assert table.method == "lockstep" and table.l1_residual <= 1e-10
    assert seen[:2] == ["float32"] * 2 and set(seen[2:]) == {"float64"}
    assert table.iterations == len(seen)


def test_site_sets_never_go_lockstep(monkeypatch):
    sites = rl.BoxRegion([-15, -15], [15, 15]).interior_array()
    region = rl.SiteSetRegion(sites, 2)
    pattern = xs.region_pattern(region)
    assert pattern.n > xs.DENSE_CUTOFF and pattern.shape is None
    assert xs.auto_method(pattern) == xs.auto_method(pattern, 64) == "krylov"

    def refuse(*args):
        raise AssertionError("a site set took the lockstep path")

    monkeypatch.setattr(xs, "_lockstep", refuse)
    weights = rl.env_model.sample_weights(rl.SignedAxisKickLaw(2, 0.05), pattern.interior,
                                          range(2))
    g = xs.solve_batch(pattern, weights, np.eye(1, pattern.n, 0)[0], 1e-10, transpose=True)
    assert g.shape == (2, pattern.n)
    with pytest.raises(ValueError, match="box"):
        xs.solve_fixed_point(xs.QuenchedSystem(pattern, weights[0]), g[0], 1e-10,
                             method="lockstep")


def test_whole_inverses_never_go_lockstep(monkeypatch):
    region = rl.HalfSpaceTrunc(1, 8, 2)
    pattern = xs.region_pattern(region)
    weights = np.stack([rl.sample_environment(rl.SignedAxisKickLaw(2, 0.05), seed=s)
                        .weights_block(pattern.interior) for s in range(20)])
    assert xs.auto_method(pattern, 20) == "lockstep"

    def refuse(*args):
        raise AssertionError("whole inverses took the lockstep path")

    monkeypatch.setattr(xs, "_lockstep", refuse)
    G = xs.solve_batch(pattern, weights, None, 1e-10, transpose=True)
    assert G.shape == (20, pattern.n, pattern.n)


def test_region_patterns_are_kept_by_descriptor(monkeypatch):
    monkeypatch.setattr(xs, "_PATTERNS", {})
    slab = xs.region_pattern(rl.SlabRegion(2, 8, 2))
    assert xs.region_pattern(rl.SlabRegion(2, 8, 2)) is slab
    assert xs.region_pattern(rl.BoxRegion([-2, -8], [1, 8])) is not slab
    # least recently used go first once the neighbour tables exceed the budget
    monkeypatch.setattr(xs, "MEMORY_BUDGET", 2 * slab.nbr.size)
    box = xs.region_pattern(rl.BoxRegion([-2, -8], [1, 8]))
    assert xs.region_pattern(rl.SlabRegion(2, 8, 2)) is slab
    xs.region_pattern(rl.HalfSpaceTrunc(1, 3, 2))
    assert xs.region_pattern(rl.SlabRegion(2, 8, 2)) is slab
    assert xs.region_pattern(rl.BoxRegion([-2, -8], [1, 8])) is not box
    # a pattern above the whole budget is not kept
    monkeypatch.setattr(xs, "MEMORY_BUDGET", slab.nbr.size - 1)
    xs.region_pattern(rl.SlabRegion(2, 8, 2))
    assert xs._PATTERNS == {}
    assert xs.region_pattern(rl.SlabRegion(2, 8, 2)) is not slab


def test_region_pattern_cache_under_concurrent_callers(monkeypatch):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    regions = [rl.SlabRegion(2, 8, 2), rl.HalfSpaceTrunc(1, 3, 2), rl.BoxRegion([0, 0], [5, 2])]
    monkeypatch.setattr(xs, "_PATTERNS", {})
    # room for two of the three patterns: calls keep evicting each other
    monkeypatch.setattr(xs, "MEMORY_BUDGET", 4 * (68 + 28))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda i: (i % 3, xs.region_pattern(regions[i % 3])),
                                range(600), timeout=60))
    finally:
        sys.setswitchinterval(switch)
    for k, pattern in got:
        assert pattern.region.descriptor() == regions[k].descriptor()
    assert sum(p.nbr.size for p in xs._PATTERNS.values()) <= xs.MEMORY_BUDGET


def test_dst_matrices_are_kept_per_length(monkeypatch):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(xs, "_DST", {})
    S, S32 = xs._dst1_matrices(7)
    assert xs._dst1_matrices(7)[0] is S
    assert S32.dtype == np.float32 and np.array_equal(S32, S.astype(np.float32))
    assert np.allclose(S @ S, np.eye(7), atol=1e-15)  # orthonormal and symmetric
    with pytest.raises(ValueError):
        S[0, 0] = 0.0  # shared by every caller
    # least recently used go first once the kept entries exceed the budget
    monkeypatch.setattr(xs, "MEMORY_BUDGET", 2 * (7 * 7 + 9 * 9))
    xs._dst1_matrices(9)
    xs._dst1_matrices(7)
    xs._dst1_matrices(5)
    assert list(xs._DST) == [7, 5]
    lengths = [3, 5, 7, 9, 11]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda i: (lengths[i % 5], xs._dst1_matrices(lengths[i % 5])),
                                range(600), timeout=60))
    finally:
        sys.setswitchinterval(switch)
    for m, (S, S32) in got:
        assert S.shape == S32.shape == (m, m)
    assert sum(m * m for m in xs._DST) <= xs.MEMORY_BUDGET // 2


@pytest.mark.parametrize("region", [rl.SlabRegion(2, 8, 2), rl.SlabRegion(4, 64, 2),
                                    rl.SlabRegion(3, 8, 3)])
def test_operator_batch_is_the_single_environment_solve(region):
    # stacked dense and band LU give each environment the bits of its single
    # solve; a lockstep batch (the d=3 slab) shares one M between its
    # environments, and is held to the certified bound around that solve
    pattern = xs.region_pattern(region)
    lockstep = xs.auto_method(pattern, 3) == "lockstep"
    assert lockstep is (region.d == 3)
    law = rl.SignedAxisKickLaw(region.d, 0.02, 0.05)
    envs = [rl.sample_environment(law, seed=s) for s in range(3)]
    weights = rl.env_model.sample_weights(law, pattern.interior, range(3))
    fields = 3.0 * (weights[:, :, 0] - weights[:, :, 1])  # sup norm above 1
    u = xs.solve_batch(pattern, weights, fields, 1e-10, norm="linf")
    for env, f, u_b in zip(envs, fields, u):
        system = xs.build_system(env, region)
        want = xs.solve_green_operator(system, f, 1e-10)
        if not lockstep:
            assert np.array_equal(u_b, want)
            continue
        # both sup residuals are at most the scaled tol, and the largest
        # expected exit time bounds ||(I - P)^-1||_inf
        exit_time = xs.solve_green_operator(system, np.ones(system.n), 1e-12).max()
        tol = xs._scaled_tol(1e-10, f)
        assert np.abs(u_b - want).max() <= exit_time * 2 * tol * (1 + 1e-9)


def test_operator_batch_failure_names_the_environment():
    # per environment (band LU) and on the stacked dense LU alike, the NaN
    # column fails the batch certificate, which raises itself
    for region in (rl.SlabRegion(4, 64, 2), rl.SlabRegion(2, 8, 2)):
        pattern = xs.region_pattern(region)
        weights = rl.env_model.sample_weights(rl.ssrw_law(2), pattern.interior, range(4))
        fields = np.ones(weights.shape[:2])
        fields[2, 5] = np.nan
        with pytest.raises(xs.BatchSolveError, match="residual nan") as exc:
            xs.solve_batch(pattern, weights, fields, norm="linf")
        assert exc.value.index == 2
        assert exc.value.__cause__ is None


def test_operator_batch_size(monkeypatch):
    # the sites of the d=2 slab L=2 W=8 as a site set, which never goes
    # lockstep: its batches of 2^16 unknowns take the stacked dense LU
    small, band, slab3 = (xs.region_pattern(region) for region in (
        rl.SiteSetRegion(rl.SlabRegion(2, 8, 2).interior_array(), 2),
        rl.SlabRegion(4, 64, 2), rl.SlabRegion(4, 32, 3)))
    for threads in ("1", "3"):  # the worker count never sizes a batch
        monkeypatch.setenv("RWRE_THREADS", threads)
        # stacked dense LU: B n^2 entries within MEMORY_BUDGET
        assert xs.batch_size(small) == xs.MEMORY_BUDGET // small.n ** 2
        # lockstep: 2^16 unknowns
        assert xs.batch_size(band) == xs._LOCKSTEP_UNKNOWNS // band.n
        assert xs.batch_size(slab3) == 1


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 5000), size=st.integers(1, 5000))
def test_batch_slices_cut_evenly_without_a_remainder(n, size):
    parts = xs.batch_slices(n, size)
    # they cover range(n) in order
    assert [i for part in parts for i in range(n)[part]] == list(range(n))
    lengths = [part.stop - part.start for part in parts]
    assert len(parts) == -(-n // size)
    assert all(0 < m <= size for m in lengths)
    assert max(lengths, default=0) - min(lengths, default=0) <= 1


def test_forty_environments_at_batch_size_34_split_in_halves():
    # the d=2 half-spaces N = 10, 20, 30 batch 34 environments at most
    assert [range(40)[part] for part in xs.batch_slices(40, 34)] == [range(20), range(20, 40)]


@pytest.mark.parametrize("far, on_box", [(0, True), (30, False)])
def test_sampled_solves_sample_each_batch_once_and_match_each_region(far, on_box,
                                                                     monkeypatch):
    # two overlapping boxes share a bounding box with fewer sites than both
    # together; two distant ones are sampled each on its own region
    law, seeds = rl.SignedAxisKickLaw(2, 0.05, 0.02), [4, 8, 15, 16, 23]
    patterns = [xs.region_pattern(rl.BoxRegion([-3, -2], [3, 2])),
                xs.region_pattern(rl.BoxRegion([-1 + far, -4], [2 + far, 4]))]
    sample, calls = xs.sample_weights, []

    def spy(law_, sites, env_seeds):
        calls.append((sites, list(env_seeds)))
        return sample(law_, sites, env_seeds)

    monkeypatch.setattr(xs, "sample_weights", spy)
    problems = [(p, np.ones(p.n), "linf", False) for p in patterns]
    batches = [list(batch) for batch in xs.sampled_solves(law, seeds, problems, 1e-12)]
    assert len(batches) == 1
    assert len(calls) == (1 if on_box else 2)
    assert all(env_seeds == seeds for _, env_seeds in calls)
    for pattern, (weights, x) in zip(patterns, batches[0]):
        assert np.array_equal(weights, sample(law, pattern.interior, seeds))
        assert np.array_equal(x, xs.solve_batch(pattern, weights, np.ones(pattern.n),
                                                1e-12, "linf"))


def test_stacked_operator_solves_are_certified(monkeypatch):
    region = rl.SlabRegion(2, 8, 2)
    pattern = xs.region_pattern(region)
    assert xs.auto_method(pattern) == "dense"
    law = rl.SignedAxisKickLaw(2, 0.02, 0.05)
    weights = rl.env_model.sample_weights(law, pattern.interior, range(3))
    fields = np.random.default_rng(1).uniform(-3.0, 3.0, weights.shape[:2])
    fields[:, 0] = 3.0  # sup norm 3: residuals are held to 3 tol
    tol = 1e-10
    u = xs.solve_batch(pattern, weights, fields, tol, norm="linf")
    for k in range(3):
        want = xs.solve_green_operator(xs.QuenchedSystem(pattern, weights[k]), fields[k], tol)
        assert np.array_equal(u[k], want)
    # moving environment 1 by delta (I - P)^-1 e_5 moves its residual by
    # delta at site 5
    e5 = np.broadcast_to(np.eye(1, pattern.n, 5)[0], fields.shape)
    bump = xs._dense_batch(pattern, weights, e5, False)[1]
    dense = xs._dense_batch

    def off_by(delta):
        def solve(pattern_, weights_, b, transpose):
            x = dense(pattern_, weights_, b, transpose)
            x[1] += delta * bump
            return x
        return solve

    monkeypatch.setattr(xs, "_dense_batch", off_by(2 * tol))
    assert np.array_equal(xs.solve_batch(pattern, weights, fields, tol, norm="linf"),
                          dense(pattern, weights, fields, False) + [[0], [2 * tol], [0]] * bump)
    # one above it is polished back within tol ...
    monkeypatch.setattr(xs, "_dense_batch", off_by(4 * tol))
    polished = xs.solve_batch(pattern, weights, fields, tol, norm="linf")
    assert np.abs(xs._batch_residual(pattern, weights, fields, polished, False)).max() <= 3 * tol
    # ... unless no polish step is allowed
    monkeypatch.setattr(xs, "MAX_ITER", 0)
    with pytest.raises(xs.BatchSolveError) as exc:
        xs.solve_batch(pattern, weights, fields, tol, norm="linf")
    assert exc.value.index == 1


@pytest.mark.parametrize("region, B, path", [
    (rl.HalfSpaceTrunc(1, 10, 2), 40, "_lockstep"),
    (rl.BoxRegion([-3, -3], [3, 3]), 20, "_dense_batch"),
])
def test_a_batch_column_off_by_1e_6_is_polished(region, B, path, monkeypatch):
    pattern = xs.region_pattern(region)
    assert (xs.auto_method(pattern, B) == "lockstep") is (path == "_lockstep")
    weights = rl.env_model.sample_weights(rl.SignedAxisKickLaw(2, 0.05, 0.02),
                                          pattern.interior, range(B))
    b = np.broadcast_to(np.eye(1, pattern.n, pattern.source_index((0, 0)))[0], (B, pattern.n))
    tol, k = 1e-10, 3
    real, dense = getattr(xs, path), xs._dense_batch

    def off(*columns):
        def solve(*args):
            out = real(*args)
            (out[0] if path == "_lockstep" else out)[list(columns)] += 1e-6
            return out
        return solve

    monkeypatch.setattr(xs, path, off(k))
    x = xs.solve_batch(pattern, weights, b[0], tol, transpose=True)
    assert np.abs(xs._batch_residual(pattern, weights, b, x, True)).sum(axis=1).max() <= tol
    # the l1 error is at most the largest expected exit time times both
    # l1 residuals
    want = dense(pattern, weights, b, True)
    want_res = np.abs(xs._batch_residual(pattern, weights, b, want, True)).sum(axis=(1, 2))
    exit_time = dense(pattern, weights, np.ones((B, pattern.n)), False).max(axis=1)
    assert np.all(np.abs(x - want).sum(axis=1) <= exit_time * (tol + want_res) * (1 + 1e-9))
    # without a polish step the column names its environment, and of two
    # such columns the lower
    monkeypatch.setattr(xs, "MAX_ITER", 0)
    for columns in [(k,), (k + 2, k)]:
        monkeypatch.setattr(xs, path, off(*columns))
        with pytest.raises(xs.BatchSolveError) as exc:
            xs.solve_batch(pattern, weights, b[0], tol, transpose=True)
        assert exc.value.index == k


@pytest.mark.parametrize("region", [rl.HalfSpaceTrunc(1, 10, 2), rl.BoxRegion([-3, -3], [3, 3])])
def test_only_a_batch_of_one_is_a_single_solve(region, monkeypatch):
    # the traced benchmark reads certified_frac from the SolveInfo of
    # `solve_fixed_point`, and slab-d3 solves every environment at B = 1
    pattern = xs.region_pattern(region)
    weights = rl.env_model.sample_weights(rl.SignedAxisKickLaw(2, 0.05, 0.02),
                                          pattern.interior, range(4))
    f = 3.0 * (weights[:, :, 0] - weights[:, :, 1])
    calls = _spy(monkeypatch, "solve_fixed_point")
    one = xs.solve_batch(pattern, weights[:1], f[:1], 1e-10, norm="linf")
    assert len(calls) == 1 and np.array_equal(one[0], calls[0][2][0])
    calls.clear()
    xs.solve_batch(pattern, weights, f, 1e-10, norm="linf")
    assert calls == []


def test_bad_path_requests_raise_before_any_solve(monkeypatch):
    site_set = xs.region_pattern(rl.SiteSetRegion([(0, 0), (1, 0), (1, 1)], 2))
    box = xs.region_pattern(rl.BoxRegion([0, 0], [3, 3]))

    def refuse(*args):
        raise AssertionError("an environment was solved")

    for name in ("_lockstep", "_dense_batch", "_banded_solve", "_krylov_solve",
                 "_batch_residual"):
        monkeypatch.setattr(xs, name, refuse)
    for pattern, method, match in [(site_set, "lockstep", "box"), (site_set, "banded", "box"),
                                   (box, "cholesky", "unknown")]:
        system = xs.QuenchedSystem(pattern, np.full((pattern.n, 4), 0.25))
        with pytest.raises(ValueError, match=match):
            xs.solve_fixed_point(system, np.ones(pattern.n), 1e-10, method=method)


def test_stacked_solves_factor_in_slices(monkeypatch):
    pattern = xs.region_pattern(rl.SlabRegion(2, 8, 2))
    law = rl.SignedAxisKickLaw(2, 0.02, 0.05)
    weights = rl.env_model.sample_weights(law, pattern.interior, range(5))
    fields = np.random.default_rng(2).uniform(-1.0, 1.0, weights.shape[:2])
    whole = [xs.solve_batch(pattern, weights, b, norm="linf") for b in (fields, None)]
    dense, slices = xs._dense_batch, []

    def record(pattern_, weights_, b, transpose):
        slices.append(len(weights_))
        return dense(pattern_, weights_, b, transpose)

    monkeypatch.setattr(xs, "_dense_batch", record)
    monkeypatch.setattr(xs, "_DENSE_SLICE", 2 * pattern.n ** 2 + 1)
    for b, want in zip((fields, None), whole):
        slices.clear()
        assert np.array_equal(xs.solve_batch(pattern, weights, b, norm="linf"), want)
        assert slices == [2, 2, 1]
