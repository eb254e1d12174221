import numpy as np
import pytest

import rwre_lab as rl
from rwre_lab.lattice import ExitClass, RegionError


def test_ballisticity_box_m2_d2_counts():
    # direct enumeration: interior {0,1} x [-199,199], core {1} x [-7,7]
    box = rl.BallisticityBox(2, 2)
    assert box.interior_count() == 798
    star = box.star_array()
    assert star.shape[0] == 15
    assert set(star[:, 0].tolist()) == {1}
    assert star[:, 1].min() == -7 and star[:, 1].max() == 7


def test_ballisticity_box_odd_m_left_edge():
    # -M/2 < y.e1 taken literally on integers: M=3 gives y1 >= -1
    box = rl.BallisticityBox(3, 2)
    assert box.lo[0] == -1 and box.hi[0] == 2
    star = box.star_array()
    assert set(star[:, 0].tolist()) == {2}


def test_slab_count():
    slab = rl.SlabRegion(3, 10, 2)
    assert slab.interior_count() == 126  # 6 * 21


def test_corollary_box_count():
    box = rl.CorollaryBox(4, 2)
    assert box.interior_count() == 217  # 7 * 31
    assert not box.lateral_capped


def test_corollary_box_lateral_cap_is_declared():
    box = rl.CorollaryBox(4, 2, lateral_cap=5)
    assert box.lateral_capped
    assert box.interior_count() == 7 * 11


def test_classify_exit_frontal_and_other():
    box = rl.BallisticityBox(2, 2)
    assert rl.classify_exit(box, (2, 0)) is ExitClass.FRONTAL
    assert rl.classify_exit(box, (-1, 0)) is ExitClass.OTHER
    assert rl.classify_exit(box, (0, 200)) is ExitClass.OTHER


def test_classify_exit_rejects_non_boundary_sites():
    box = rl.BallisticityBox(2, 2)
    with pytest.raises(RegionError):
        rl.classify_exit(box, (0, 0))  # interior
    with pytest.raises(RegionError):
        rl.classify_exit(box, (-2, 0))  # distance two from the interior
    with pytest.raises(RegionError):
        rl.classify_exit(rl.HalfSpaceTrunc(1, 3, 2), (4, 0))  # no frontal side


def test_boundary_partition_for_frontal_regions():
    box = rl.BallisticityBox(2, 2)
    boundary = box.boundary_array()
    frontal = sum(1 for s in boundary if box.is_frontal_site(s))
    other = sum(1 for s in boundary if not box.is_frontal_site(s))
    assert frontal + other == boundary.shape[0]
    assert frontal == 399  # right face only


def test_interior_neighbors_are_interior_or_boundary():
    regions = [
        rl.SlabRegion(2, 4, 2),
        rl.BoxRegion([-1, -1, -1], [1, 1, 1]),
        rl.SiteSetRegion([(0, 0), (1, 0), (1, 1), (2, 1)], 2),
    ]
    for region in regions:
        boundary = {tuple(s) for s in region.boundary_array()}
        interior = {tuple(s) for s in region.interior_array()}
        for s in interior:
            for k in range(region.d):
                for step in (1, -1):
                    nb = list(s)
                    nb[k] += step
                    assert tuple(nb) in boundary or tuple(nb) in interior
        assert not boundary & interior


def test_enumeration_is_lexicographic():
    for region in (rl.SlabRegion(2, 3, 2), rl.SiteSetRegion([(2, 0), (0, 0), (1, 0)], 2)):
        arr = region.interior_array()
        as_tuples = [tuple(s) for s in arr]
        assert as_tuples == sorted(as_tuples)
        barr = region.boundary_array()
        btuples = [tuple(s) for s in barr]
        assert btuples == sorted(btuples)


@pytest.mark.parametrize("region", [
    rl.BoxRegion([-2, 0, -1], [1, 3, 2]),
    rl.SlabRegion(2, 3, 3),
    rl.SlabRegion(2, None, 3),
    rl.SiteSetRegion([(0, 0, 0), (1, -2, 0), (-3, 1, 2), (2, 2, -2)], 3),
])
def test_contains_block_matches_contains(region):
    coords = np.random.default_rng(4).integers(-4, 5, size=(600, 3))
    coords[:4] = [(0, 0, 0), (1, -2, 0), (-3, 1, 2), (2, 2, -2)]
    expected = [region.contains(c) for c in coords]
    assert region.contains_block(coords).tolist() == expected
    assert region.contains_block(coords.reshape(30, 20, 3)).ravel().tolist() == expected
    # an open mesh of per-axis arrays answers as its stacked broadcast would
    mesh = np.ix_(np.arange(-4, 3), np.arange(-3, 4), np.arange(-2, 5))
    stacked = np.stack(np.broadcast_arrays(*mesh), axis=-1)
    got = np.broadcast_to(region.contains_block(mesh), stacked.shape[:-1])
    assert np.array_equal(got, region.contains_block(stacked))
    assert got.any() and not got.all()


def test_index_block_round_trip():
    region = rl.SlabRegion(3, 5, 2)
    sites = region.interior_array()
    idx = region.index_block(sites)
    assert np.array_equal(idx, np.arange(sites.shape[0]))
    outside = np.array([[10, 0], [0, 99]])
    assert np.all(region.index_block(outside) == -1)


def test_unbounded_slab_membership_but_no_enumeration():
    slab = rl.SlabRegion(4, None, 2)
    assert slab.contains((0, 10 ** 9))
    assert not slab.contains((4, 0))
    assert slab.is_frontal_site((4, 123456))
    with pytest.raises(RegionError):
        slab.interior_array()


def test_half_space_orientation():
    plus = rl.HalfSpaceTrunc(1, 3, 2)
    minus = rl.HalfSpaceTrunc(-1, 3, 2)
    assert plus.contains((0, 0)) and plus.contains((3, 3))
    assert not plus.contains((-1, 0))
    assert minus.contains((0, 0)) and minus.contains((-3, 3))
    assert not minus.contains((1, 0))


def test_sites_to_csv(tmp_path):
    from rwre_lab.lattice import sites_to_csv
    region = rl.SlabRegion(2, 3, 2)
    path = tmp_path / "sites.csv"
    sites_to_csv(region, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "y1,y2"
    assert len(lines) == 1 + region.interior_count()
    sites_to_csv(region, path, which="boundary")
    assert len(path.read_text().strip().splitlines()) \
        == 1 + region.boundary_array().shape[0]
    with pytest.raises(ValueError):
        sites_to_csv(region, path, which="corners")


def test_build_region_factory_and_errors():
    slab = rl.build_region("slab", {"L": 3, "W": 10}, 2)
    assert isinstance(slab, rl.SlabRegion)
    assert rl.build_region("ballisticity_box", {"M": 2}, 2).interior_count() == 798
    assert rl.build_region("half_space", {"sign": -1, "N": 2}, 2).contains((-2, 0))
    with pytest.raises(RegionError):
        rl.build_region("slab", {"L": 5, "W": 3}, 2)  # W < L
    with pytest.raises(RegionError):
        rl.build_region("ballisticity_box", {"M": 0}, 2)
    with pytest.raises(RegionError):
        rl.build_region("nonsense", {}, 2)
    with pytest.raises(RegionError):
        rl.BoxRegion([0, 0], [-1, 0])
