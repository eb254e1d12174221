import bisect
import json
import warnings

import numpy as np
import pytest

import rwre_lab as rl
from rwre_lab.env_model import (
    InvalidShiftError,
    UnsupportedFamilyError,
    directions,
    ssrw_weights,
)


def test_directions_order():
    dirs = directions(2)
    assert dirs.tolist() == [[1, 0], [-1, 0], [0, 1], [0, -1]]


def test_signed_axis_kick_moments_d3():
    # hand moment arithmetic over the 2d equally likely kick outcomes
    law = rl.SignedAxisKickLaw(3, 0.01)
    m = rl.law_moments(law)
    assert m.eps == pytest.approx(0.12, abs=1e-12)
    assert m.sigma2 == pytest.approx(2e-4, abs=1e-15)
    assert m.lam == pytest.approx(0.0, abs=1e-15)
    assert m.var[0] == pytest.approx(0.01 ** 2 / 3, abs=1e-15)
    assert m.cov_axis == pytest.approx(-0.01 ** 2 / 3, abs=1e-15)
    assert m.kappa == pytest.approx(1 / 12)


def test_point_mass_moments():
    law = rl.PointMassLaw([0.30, 0.20, 0.25, 0.25])
    m = rl.law_moments(law)
    assert m.eps == pytest.approx(0.4, abs=1e-12)
    assert m.sigma2 == 0.0
    assert m.lam == pytest.approx(0.1, abs=1e-15)


def test_shifted_isotropic_law_gets_exactly_the_shift():
    base = rl.SignedAxisKickLaw(3, 0.01)
    law = rl.build_shifted_law(base, 1e-7)
    m = rl.law_moments(law)
    assert m.lam == pytest.approx(1e-7, abs=1e-15)
    assert m.sigma2 == pytest.approx(2e-4, abs=1e-15)
    base_m = rl.law_moments(base)
    assert np.allclose(m.var, base_m.var)
    assert m.cov_axis == pytest.approx(base_m.cov_axis, abs=1e-18)


def test_invalid_shift_names_offending_point():
    base = rl.SignedAxisKickLaw(3, 0.01)
    with pytest.raises(InvalidShiftError) as exc:
        rl.build_shifted_law(base, 0.5)
    assert "0.5" in str(exc.value)


def test_shift_of_drifted_point_mass_matches_direct_construction():
    shifted = rl.build_shifted_law(rl.ssrw_law(2), 0.1)
    m = rl.law_moments(shifted)
    direct = rl.law_moments(rl.PointMassLaw([0.30, 0.20, 0.25, 0.25]))
    assert m.lam == pytest.approx(direct.lam)
    assert m.eps == pytest.approx(direct.eps)


def test_law_moments_rejects_inhomogeneous():
    law = rl.InhomogeneousTestLaw({(0, 0): rl.ssrw_law(2)}, d=2)
    with pytest.raises(UnsupportedFamilyError):
        rl.law_moments(law)


def test_moment_inequalities_across_families():
    # sigma <= eps and |lambda| <= eps/(2d) for randomized parameter draws
    gen = np.random.default_rng(7)
    laws = []
    for _ in range(20):
        d = int(gen.integers(2, 5))
        a = float(gen.uniform(1e-4, 1.0 / (8 * d)))
        shift = float(gen.uniform(0, a))
        laws.append(rl.SignedAxisKickLaw(d, a, shift))
    for _ in range(10):
        p = gen.dirichlet(np.full(4, 80.0))
        laws.append(rl.EmpiricalLaw([(0.5, p), (0.5, p[[1, 0, 3, 2]])], d=2))
    for law in laws:
        m = rl.law_moments(law)
        assert np.sqrt(m.sigma2) <= m.eps + 1e-12
        assert abs(m.lam) <= m.eps / (2 * law.d) + 1e-12


def test_sampled_weights_stay_in_ellipticity_band():
    law = rl.SignedAxisKickLaw(2, 0.05, 0.01)
    m = rl.law_moments(law)
    env = rl.sample_environment(law, seed=3)
    coords = np.random.default_rng(0).integers(-50, 50, size=(500, 2))
    w = env.weights_block(coords)
    assert np.all(np.abs(w - 0.25) <= m.eps / 8 + 1e-12)


def test_sample_weights_stacks_one_environment_per_seed():
    sites = rl.SlabRegion(2, 3, 2).interior_array()
    for law in (rl.SignedAxisKickLaw(2, 0.05), rl.ssrw_law(2)):
        block = rl.env_model.sample_weights(law, sites, [7, 3, 7])
        want = np.stack([rl.sample_environment(law, seed=s).weights_block(sites)
                         for s in (7, 3, 7)])
        assert block.shape == (3, sites.shape[0], 4)
        assert np.array_equal(block, want)


def _reference_block(law, sites, seeds):
    """Site by site: each (seed, site) uniform against the cumulative support table."""
    out = np.empty((len(seeds), len(sites), 2 * law.d))
    for b, seed in enumerate(seeds):
        for j, site in enumerate(sites):
            probs, vecs = law.site_support(site)
            cum = np.cumsum(probs).tolist()
            u = float(rl.rng.site_uniforms(seed, site))
            out[b, j] = vecs[min(bisect.bisect_right(cum, u), len(cum) - 1)]
    return out


def _sixteen_atom_law(d=2):
    atoms = []
    for a in (0.01, 0.02, 0.03, 0.04):
        for k in range(4):
            w = np.full(2 * d, 1 / (2 * d))
            w[k] += a
            w[k ^ 1] -= a
            atoms.append((1 / 16, w))
    return rl.EmpiricalLaw(atoms, d)


def _sampler_laws(d):
    origin, off = (0,) * d, (1, -1) + (0,) * (d - 2)
    return {
        "kick": rl.SignedAxisKickLaw(d, 0.05, 0.01),
        "empirical16": _sixteen_atom_law(d),
        "point_mass": rl.PointMassLaw([0.30, 0.20] + [0.5 / (2 * d - 2)] * (2 * d - 2)),
        "inhomogeneous": rl.InhomogeneousTestLaw(
            {origin: rl.SignedAxisKickLaw(d, 0.2 / d), off: _sixteen_atom_law(d)}, d,
            default=rl.SignedAxisKickLaw(d, 0.03)),
    }


SAMPLER_LAWS = _sampler_laws(2)
SAMPLER_SITES = {
    "array": np.vstack([rl.BoxRegion([-2, -2], [2, 2]).interior_array(),
                        [[1000, -7], [-(2 ** 40), 3]]]),
    "box": rl.BoxRegion([-3, -5], [1, -1]),
    "slab_d3": rl.SlabRegion(2, 3, 3),
    "halfspace_minus": rl.HalfSpaceTrunc(-1, 3, 2),
    "site_set": rl.SiteSetRegion([(0, 0), (1, -1), (7, 2), (-(2 ** 40), 3)], 2),
}


@pytest.mark.parametrize("name", sorted(SAMPLER_LAWS))
def test_sample_weights_matches_a_site_by_site_reference(name):
    seeds = [0, -1, 2 ** 63 + 5, 2 ** 64 + 7]
    for where, sites in SAMPLER_SITES.items():
        listed = sites.interior_array() if isinstance(sites, rl.Region) else sites
        n, d = listed.shape
        law = _sampler_laws(d)[name]
        block = rl.env_model.sample_weights(law, sites, seeds)
        assert block.shape == (4, n, 2 * d), where
        assert np.array_equal(block, _reference_block(law, listed, seeds)), where
        empty_sites = np.empty((0, d), dtype=np.int64)
        assert rl.env_model.sample_weights(law, empty_sites, seeds).shape == (4, 0, 2 * d)
        assert rl.env_model.sample_weights(law, [], seeds).shape == (4, 0, 2 * d)
        assert rl.env_model.sample_weights(law, sites, []).shape == (0, n, 2 * d), where


@pytest.mark.parametrize("name", sorted(SAMPLER_LAWS))
def test_sample_weights_refuses_an_unbounded_slab(name):
    with pytest.raises(rl.RegionError):
        rl.env_model.sample_weights(SAMPLER_LAWS[name], rl.SlabRegion(2, None, 2), [1, 2])


def test_site_hash_over_box_axes_equals_the_product_grid():
    # the open mesh of a box hashes as its (n, d) site list, in C order
    box = rl.BoxRegion([-3, 2 ** 40, -1], [1, 2 ** 40 + 2, 3])
    axes = [np.arange(lo, hi + 1) for lo, hi in zip(box.lo, box.hi)]
    grid = box.interior_array()
    seeds = np.array([0, 2 ** 64 - 1, 2 ** 63 + 12345], dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (2 ** 64 - 1, 7):
            got = rl.rng.site_hash(seed, np.ix_(*axes))
            assert got.shape == tuple(len(a) for a in axes)
            assert np.array_equal(got.ravel(), rl.rng.site_hash(seed, grid))
        got = rl.rng.site_hash(seeds.reshape(3, 1, 1, 1), np.ix_(*axes))
        assert np.array_equal(got.reshape(3, -1), rl.rng.site_hash(seeds[:, None], grid))
        assert np.array_equal(rl.rng.site_uniforms(seeds.reshape(3, 1, 1, 1), np.ix_(*axes)),
                              rl.rng.site_uniforms(seeds[:, None], grid).reshape(got.shape))


# zero-probability atoms, and a cdf whose last entry falls short of 1 in floating point
DRAW_CDFS = [np.cumsum([0.25, 0.0, 0.5, 0.25]), np.cumsum([0.0, 0.5, 0.5]),
             np.cumsum([0.1] * 10), np.array([0.3, 0.3, 0.7, 1.0 - 2 ** -40])]


@pytest.mark.parametrize("cdf", DRAW_CDFS)
def test_draw_matches_bisect_on_both_methods(cdf):
    K = len(cdf)
    vecs = np.arange(K * 3, dtype=np.float64).reshape(K, 3)
    edges = np.concatenate([cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 2), [0.0, 1 - 2 ** -53]])
    edges = edges[edges < 1]
    want = vecs[[min(bisect.bisect_right(cdf.tolist(), u), K - 1) for u in edges]]
    # a few uniforms take the binary search; past 256 per atom they count thresholds
    for reps in (1, -(-256 * K // len(edges))):
        u = np.tile(edges, (reps, 1))
        assert np.array_equal(rl.env_model._draw(cdf, vecs, u), np.broadcast_to(want, u.shape + (3,)))


def test_sample_weights_hashes_a_batch_once(monkeypatch):
    calls = []
    site_hash = rl.rng.site_hash

    def spy(seed, coords):
        calls.append(np.shape(seed))
        return site_hash(seed, coords)

    monkeypatch.setattr(rl.rng, "site_hash", spy)
    sites = rl.BoxRegion([-2, -2], [2, 2]).interior_array()
    rl.env_model.sample_weights(rl.SignedAxisKickLaw(2, 0.05), sites, list(range(400)))
    assert calls == [(400, 1)]


def test_sample_weights_hashes_a_box_batch_once(monkeypatch):
    sizes = []
    site_hash = rl.rng.site_hash

    def spy(seed, coords):
        out = site_hash(seed, coords)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(rl.rng, "site_hash", spy)
    box = rl.SlabRegion(2, 3, 3)
    rl.env_model.sample_weights(rl.SignedAxisKickLaw(3, 0.05), box, list(range(20)))
    assert sizes == [20 * box.interior_count()]


def test_sample_environment_takes_the_seed_second():
    law = rl.SignedAxisKickLaw(2, 0.05)
    sites = rl.BoxRegion([-3, -3], [3, 3]).interior_array()
    env = rl.sample_environment(law, 5)
    assert env.seed == 5
    assert np.array_equal(env.weights_block(sites),
                          rl.sample_environment(law, seed=5).weights_block(sites))
    assert not np.array_equal(env.weights_block(sites),
                              rl.sample_environment(law, seed=0).weights_block(sites))


def test_sampling_determinism_and_order_independence():
    law = rl.SignedAxisKickLaw(2, 0.05)
    sites = [(0, 0), (3, -2), (100, 7), (-40, 11)]
    env1 = rl.sample_environment(law, seed=42)
    first = [env1.weights(s).copy() for s in sites]
    env2 = rl.sample_environment(law, seed=42)
    second = [env2.weights(s).copy() for s in reversed(sites)][::-1]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    block = env1.weights_block(np.array(sites))
    assert np.array_equal(block, np.stack(first))


def test_point_mass_sampling_is_constant():
    law = rl.PointMassLaw([0.30, 0.20, 0.25, 0.25])
    env = rl.sample_environment(law, seed=9)
    for s in [(0, 0), (5, 5), (-3, 17)]:
        assert np.array_equal(env.weights(s), law.weights)


def test_inhomogeneous_weights_are_rows_of_the_block():
    law = rl.InhomogeneousTestLaw({(0, 0): rl.PointMassLaw([0.3, 0.2, 0.25, 0.25])}, d=2)
    env = rl.sample_environment(law, seed=4)
    sites = np.array([(0, 0), (5, -5)])
    block = env.weights_block(sites)
    assert np.array_equal(block, [[0.3, 0.2, 0.25, 0.25], [0.25] * 4])
    for site, row in zip(sites, block):
        assert np.array_equal(env.weights(site), row)


def test_kick_support_table_by_hand():
    a, s = 0.05, 0.01
    q, h = 0.25, s / 2.0
    probs, vecs = rl.SignedAxisKickLaw(2, a, s).support()
    assert np.array_equal(probs, [0.25] * 4)
    assert np.array_equal(vecs, [[q + a + h, q - a - h, q, q],
                                 [q - a + h, q + a - h, q, q],
                                 [q + h, q - h, q + a, q - a],
                                 [q + h, q - h, q - a, q + a]])


def test_kick_sampled_variance_matches_exact_moments():
    # empirical per-direction variance within 4 standard errors of a^2/d
    a, d, side = 0.05, 2, 316
    n = side * side  # ~1e5 sites
    law = rl.SignedAxisKickLaw(d, a)
    env = rl.sample_environment(law, seed=11)
    coords = np.stack(np.meshgrid(np.arange(side), np.arange(side),
                                  indexing="ij"), axis=-1).reshape(-1, 2)
    w = env.weights_block(coords)
    target = a * a / d
    se_var = a * a / (2 * np.sqrt(n))
    for e in range(2 * d):
        emp = w[:, e].var()
        assert abs(emp - target) <= 4 * se_var
    means = w.mean(axis=0)
    se_mean = np.sqrt(target / n)
    assert np.all(np.abs(means - 0.25) <= 4 * se_mean)


def test_degenerate_flags():
    assert rl.ssrw_law(2).degenerate
    assert not rl.SignedAxisKickLaw(2, 0.01).degenerate
    strong = rl.PointMassLaw([0.5, 0.0, 0.25, 0.25])
    assert not strong.in_perturbation_range
    assert rl.SignedAxisKickLaw(2, 0.01).in_perturbation_range


def test_random_law_outside_perturbation_range_rejected():
    p_hot = [0.55, 0.05, 0.20, 0.20]
    with pytest.raises(ValueError):
        rl.EmpiricalLaw([(0.5, p_hot), (0.5, ssrw_weights(2))], d=2)


def test_serialization_round_trip():
    laws = [
        rl.SignedAxisKickLaw(3, 0.01, 1e-4),
        rl.PointMassLaw([0.30, 0.20, 0.25, 0.25]),
        rl.build_shifted_law(rl.SignedAxisKickLaw(2, 0.02), 0.01),
        rl.EmpiricalLaw([(0.25, [0.27, 0.23, 0.25, 0.25]),
                         (0.75, [0.24, 0.26, 0.25, 0.25])], d=2),
    ]
    for law in laws:
        clone = rl.law_from_dict(law.to_dict())
        m0, m1 = rl.law_moments(law), rl.law_moments(clone)
        assert m0.eps == pytest.approx(m1.eps, abs=1e-15)
        assert m0.sigma2 == pytest.approx(m1.sigma2, abs=1e-18)
        assert m0.lam == pytest.approx(m1.lam, abs=1e-18)


class TestKConditions:
    def test_kick_law_all_pass(self):
        law = rl.SignedAxisKickLaw(3, 0.01, 1e-7)
        rep = rl.check_k_conditions(law, rho=1 / 3, eps0=0.2)
        assert rep.all_pass
        k5 = rep.entry("K5")
        # rho*sigma2 = 6.67e-5 against 32 d^2 lambda = 2.88e-5
        assert k5.margin == pytest.approx(2e-4 / 3 - 32 * 9 * 1e-7, rel=1e-9)

    def test_negative_drift_fails_k5(self):
        law = rl.build_shifted_law(rl.SignedAxisKickLaw(2, 0.05), -0.001)
        rep = rl.check_k_conditions(law, rho=0.5, eps0=0.9)
        assert not rep.entry("K5").passed

    def test_unbalanced_axis_variance_fails_k3(self):
        atoms = [(0.5, [0.29, 0.25, 0.23, 0.23]),
                 (0.5, [0.21, 0.25, 0.27, 0.27])]
        law = rl.EmpiricalLaw(atoms, d=2)
        rep = rl.check_k_conditions(law, rho=0.5, eps0=0.9)
        k3 = rep.entry("K3")
        assert not k3.passed
        assert "Var(+e1)" in k3.detail and "Var(-e1)" in k3.detail

    def test_point_mass_zero_variance_fails_k4(self):
        rep = rl.check_k_conditions(rl.PointMassLaw([0.3, 0.2, 0.25, 0.25]),
                                    rho=0.5, eps0=0.9)
        assert not rep.entry("K4").passed

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            rl.check_k_conditions(rl.SignedAxisKickLaw(2, 0.01), rho=0.0, eps0=0.5)


SSRW_D3_JSON = json.dumps({"family": "point_mass", "d": 3,
                           "weights": {lbl: 1 / 6 for lbl in
                                       ["+e1", "-e1", "+e2", "-e2", "+e3", "-e3"]}})


@pytest.mark.parametrize("law", [
    rl.SignedAxisKickLaw(3, 0.01, 1e-7),
    rl.SignedAxisKickLaw(4, 0.01, 1e-3),
    rl.build_shifted_law(rl.SignedAxisKickLaw(3, 0.01), 1e-7),
    rl.law_from_dict(json.loads(SSRW_D3_JSON)),
], ids=["kick-d3", "kick-d4", "shifted-kick-d3", "ssrw-d3-json"])
def test_k2_passes_on_e1_fixing_symmetric_tables(law):
    assert rl.check_k_conditions(law, rho=0.5, eps0=0.9).entry("K2").passed


@pytest.mark.parametrize("law, generator", [
    (rl.PointMassLaw([0.3, 0.2, 0.3, 0.2]), "the flip of e2"),
    (rl.PointMassLaw([1 / 6, 1 / 6, 0.2, 0.2, 2 / 15, 2 / 15]), "the swap of e2 and e3"),
], ids=["point-mass-flip", "point-mass-swap"])
def test_k2_fails_naming_the_generator(law, generator):
    k2 = rl.check_k_conditions(law, rho=0.5, eps0=0.9).entry("K2")
    assert not k2.passed
    assert generator in k2.detail


def test_k2_fails_on_equal_moments_without_the_flip():
    # perpendicular means and variances agree, yet the flip of e2 maps the
    # atoms to a different table
    law = rl.EmpiricalLaw([(2 / 3, [0.25, 0.25, 0.27, 0.23]),
                           (1 / 3, [0.25, 0.25, 0.21, 0.29])], 2)
    m = rl.law_moments(law)
    assert m.mean[2] == pytest.approx(m.mean[3], abs=1e-15)
    assert m.var[2] == pytest.approx(m.var[3], abs=1e-15)
    k2 = rl.check_k_conditions(law, rho=0.5, eps0=0.9).entry("K2")
    assert not k2.passed
    assert "the flip of e2" in k2.detail
