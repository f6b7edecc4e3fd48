"""Coverer invariants per FIXTURES.md §4 and the reference coverer tests
(/root/reference/src/region_coverer.rs:831-924): covering covers the region,
respects max_cells/levels/level_mod, interior subset of region, normalized."""

import numpy as np
import pytest

from s2_geometry_rust_ray.functions import cellid
from s2_geometry_rust_ray.geometry import cell_union, fixtures
from s2_geometry_rust_ray.geometry.cap import Cap
from s2_geometry_rust_ray.geometry.coverer import (
    CapRegion,
    PolygonRegion,
    RectRegion,
    RegionCoverer,
)
from s2_geometry_rust_ray.geometry.loop import latlng_deg_to_unit_xyz
from s2_geometry_rust_ray.geometry.rect import LatLngRect

U = np.uint64


def random_points_in_region(region, box, n=300, seed=1):
    """Rejection-sample inside a (lat_lo, lng_lo, lat_hi, lng_hi) degree box
    that encloses the region (keeps sampling tractable for small regions)."""
    rng = np.random.default_rng(seed)
    lat_lo, lng_lo, lat_hi, lng_hi = box
    if lng_hi < lng_lo:  # box crosses the antimeridian
        lng_hi += 360.0
    pts = []
    for _ in range(4000):
        lat = rng.uniform(lat_lo, lat_hi, 256)
        lng = rng.uniform(lng_lo, lng_hi, 256)
        lng = ((lng + 180.0) % 360.0) - 180.0
        xyz = latlng_deg_to_unit_xyz(lat, lng)
        for p in xyz:
            if region.contains_point(p):
                pts.append(p)
                if len(pts) >= n:
                    return np.array(pts)
    assert pts, "no points sampled in region"
    return np.array(pts)


REGIONS = {
    "cap_1deg": (CapRegion(Cap.from_latlng_deg(47.6, -122.3, 1.0)), (46, -125, 49, -120)),
    "cap_pole": (CapRegion(Cap.from_latlng_deg(89.5, 10.0, 5.0)), (84, -180, 90, 180)),
    "rect_eu": (RectRegion(LatLngRect.from_degrees(40.0, 0.0, 50.0, 20.0)), (39, -1, 51, 21)),
    "poly_arctic": (PolygonRegion(fixtures.make_loop("arctic_80")), (79, -180, 90, 180)),
    "poly_candy": (PolygonRegion(fixtures.make_loop("candy_cane")), (-25, -180, 15, 180)),
    "poly_loop_a": (PolygonRegion(fixtures.make_loop("loop_a")), (-1.2, 177, 1.2, -178.5)),
}


@pytest.mark.parametrize("name", list(REGIONS))
def test_covering_covers_region(name):
    region, box = REGIONS[name]
    cov = RegionCoverer(max_cells=8, max_level=12).get_covering(region)
    assert 0 < cov.size
    assert np.all(cellid.is_valid(cov))
    # normalized: sorted, disjoint
    assert np.all(np.diff(cov.view(np.int64)) != 0)
    rmax = cellid.range_max(cov)
    rmin = cellid.range_min(cov)
    assert np.all(rmin[1:] > rmax[:-1])
    # every point of the region is in some covering cell
    pts = random_points_in_region(region, box, n=200, seed=3)
    leaves = cellid.from_xyz(pts[:, 0], pts[:, 1], pts[:, 2])
    assert cell_union.contains_ids(cov, leaves).all()


@pytest.mark.parametrize("name", ["cap_1deg", "poly_arctic", "poly_loop_a"])
def test_interior_covering_inside_region(name):
    region, _ = REGIONS[name]
    cov = RegionCoverer(max_cells=20, max_level=14).get_interior_covering(region)
    # every interior cell is fully contained (verified with random points in
    # the cell: decode a few children centers and check containment)
    for cid in cov[:12]:
        kids = cellid.children(cellid.children(np.array([cid], U))[0])
        x, y, z = cellid.to_xyz(kids.ravel())
        n = np.sqrt(x * x + y * y + z * z)
        for p in np.stack([x / n, y / n, z / n], axis=-1):
            assert region.contains_point(p)


def test_max_cells_respected():
    region, _ = REGIONS["cap_1deg"]
    for mc in (4, 8, 16):
        cov = RegionCoverer(max_cells=mc, max_level=18).get_covering(region)
        assert cov.size <= mc * 4  # normalization may merge; C++ guarantees
        # <= max_cells before normalize except tiny regions
        assert cov.size <= max(mc, 6)


def test_level_constraints():
    region, _ = REGIONS["cap_1deg"]
    cov = RegionCoverer(max_cells=64, min_level=4, max_level=10).get_covering(region)
    lv = cellid.level(cov)
    assert lv.min() >= 4 and lv.max() <= 10
    cov2 = RegionCoverer(max_cells=64, min_level=2, max_level=10, level_mod=2).get_covering(region)
    lv2 = cellid.level(cov2)
    assert np.all((lv2 - 2) % 2 == 0)


def test_covering_deterministic_and_contains_center():
    region, _ = REGIONS["cap_1deg"]
    c1 = RegionCoverer(max_cells=8, max_level=10).get_covering(region)
    c2 = RegionCoverer(max_cells=8, max_level=10).get_covering(region)
    assert np.array_equal(c1, c2)
    center_leaf = cellid.from_latlng_deg(np.array([47.6]), np.array([-122.3]))
    assert cell_union.contains_ids(c1, center_leaf)[0]
    # interior covering is a subset of the covering's coverage
    icov = RegionCoverer(max_cells=8, max_level=10).get_interior_covering(region)
    if icov.size:
        assert cell_union.contains_ids(c1, icov).all()


def test_cell_union_algebra():
    rng = np.random.default_rng(5)
    leaf = cellid.from_latlng_deg(rng.uniform(-80, 80, 40), rng.uniform(-180, 180, 40))
    a = cell_union.normalize(cellid.parent(leaf[:25], 8))
    b = cell_union.normalize(cellid.parent(leaf[15:], 8))
    u = cell_union.union_of(a, b)
    i = cell_union.intersection(a, b)
    d = cell_union.difference(a, b)
    # every leaf of a is in union; intersection ⊆ both; difference ∩ b = ∅
    assert cell_union.contains_ids(u, a).all()
    assert cell_union.contains_ids(u, b).all()
    if i.size:
        assert cell_union.contains_ids(a, i).all() or cell_union.intersects_ids(a, i).all()
        assert cell_union.contains_ids(b, i).all() or cell_union.intersects_ids(b, i).all()
    if d.size:
        assert not cell_union.intersects_ids(b, d).any()
        assert cell_union.contains_ids(a, d).all()


def test_leaf_cells_covered():
    faces = cellid.from_face(np.arange(6))
    assert cell_union.leaf_cells_covered(faces) == 6 << 60
    leaf = cellid.from_face_ij(np.array([3]), np.array([1 << 26]), np.array([1 << 26]))
    assert cell_union.leaf_cells_covered(leaf) == 1
    far = cellid.from_face_ij(np.array([1]), np.array([5]), np.array([5]))
    union = np.concatenate([cellid.parent(leaf, 29), cellid.parent(far, 20)])
    assert cell_union.leaf_cells_covered(union) == 4 + 4 ** 10
    assert cell_union.leaf_cells_covered(np.array([], dtype=np.uint64)) == 0


def test_normalize_merges_siblings():
    face = cellid.from_face(np.array([1]))
    kids = cellid.children(face)[0]
    assert np.array_equal(cell_union.normalize(kids), face)
    # three siblings don't merge
    assert cell_union.normalize(kids[:3]).size == 3


def test_canonicalize_covering():
    import numpy as np

    from s2_geometry_rust_ray.functions import cellid
    from s2_geometry_rust_ray.geometry import cell_union
    from s2_geometry_rust_ray.geometry.coverer import RegionCoverer

    U = np.uint64
    leaf = cellid.from_face_ij(np.array([3]), np.array([1 << 26]), np.array([1 << 26]))
    cells = np.concatenate(
        [cellid.parent(leaf, l) for l in (4, 7, 9, 12, 15, 18)]
    )  # nested chain -> normalize keeps only level 4
    spread = np.concatenate(
        [cellid.parent(cellid.from_face_ij(np.array([1]), np.array([i << 26]),
                                           np.array([j << 26])), 10)
         for i, j in ((1, 1), (3, 1), (5, 5), (7, 3), (1, 7))]
    )
    rc = RegionCoverer(max_cells=4, min_level=0, max_level=12, level_mod=2)
    cov = rc.canonicalize_covering(np.concatenate([cells, spread]))
    assert rc.is_canonical(cov)
    # coverage never shrinks: every input cell is inside the output
    inputs = cell_union.normalize(np.concatenate([cells, spread]))
    assert cell_union.contains_ids(cov, inputs).all()
    # level constraints hold
    lv = cellid.level(cov)
    assert (lv <= 12).all()
    assert ((lv.astype(np.int64) % 2) == 0).all()
    # a min_level that makes max_cells unsatisfiable leaves a valid-level,
    # over-count covering rather than dropping coverage
    rc2 = RegionCoverer(max_cells=2, min_level=2, max_level=12, level_mod=2)
    cov2 = rc2.canonicalize_covering(np.concatenate([cells, spread]))
    assert cell_union.contains_ids(cov2, inputs).all()
    assert (cellid.level(cov2) >= 2).all()


def test_is_canonical_rejects():
    import numpy as np

    from s2_geometry_rust_ray.functions import cellid
    from s2_geometry_rust_ray.geometry.coverer import RegionCoverer

    U = np.uint64
    leaf = cellid.from_face_ij(np.array([0]), np.array([5]), np.array([9]))
    rc = RegionCoverer(max_cells=8, min_level=3, max_level=10)
    assert not rc.is_canonical(cellid.parent(leaf, 1))   # too coarse
    assert not rc.is_canonical(cellid.parent(leaf, 14))  # too fine
    assert rc.is_canonical(cellid.parent(leaf, 5))
    # duplicate cells are not normalized
    dup = np.concatenate([cellid.parent(leaf, 5)] * 2)
    assert not rc.is_canonical(dup)
