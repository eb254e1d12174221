import numpy as np
import pytest
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
