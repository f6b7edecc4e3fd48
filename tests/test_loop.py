"""Loop PIP semantics — ported truth tables from
/root/reference/tests/test_s2loop_port.rs and C++ s2loop tests, plus a
scalar-vs-vectorized cross-check."""

import numpy as np
import pytest

from s2_geometry_rust_ray.functions import predicates as pred
from s2_geometry_rust_ray.geometry import fixtures
from s2_geometry_rust_ray.geometry.loop import (
    TILE_PAIRS,
    Loop,
    latlng_deg_to_unit_xyz,
    validate_loop,
)


def pt(lat, lng):
    return latlng_deg_to_unit_xyz(np.array([lat], float), np.array([lng], float))


CASES = [
    # (loop, lat, lng, expected_inside)
    ("north_hemi", 90, 0, True), ("north_hemi", -90, 0, False),
    ("north_hemi", 45, 100, True), ("north_hemi", -45, 100, False),
    ("south_hemi", 90, 0, False), ("south_hemi", -45, 100, True),
    ("west_hemi", 0, -90, True), ("west_hemi", 0, 90, False),
    ("east_hemi", 0, 90, True), ("east_hemi", 0, -90, False),
    ("near_hemi", 0, 0, True), ("far_hemi", 0, 180, True),
    ("arctic_80", 90, 0, True), ("arctic_80", 70, 0, False), ("arctic_80", 85, 40, True),
    ("antarctic_80", -90, 0, True), ("antarctic_80", -70, 0, False),
    # small CW loop: interior is the COMPLEMENT of the small triangle
    ("small_ne_cw", 90, 0, True), ("small_ne_cw", 40, 22, False), ("small_ne_cw", -40, 22, True),
    ("loop_a", 0, 179.5, True), ("loop_a", 0, 170, False), ("loop_a", 0.5, -179.8, True),
    ("loop_b", 0, -179.5, True), ("loop_b", 0, 170, False),
]


@pytest.mark.parametrize("name,lat,lng,expected", CASES)
def test_loop_contains_truth_table(name, lat, lng, expected):
    lp = fixtures.make_loop(name)
    assert bool(lp.contains_points(pt(lat, lng))[0]) == expected


def test_hemisphere_complements():
    """north/south and east/west partition the sphere: every random point is
    in exactly one of each pair (boundary points excluded by construction)."""
    rng = np.random.default_rng(4)
    lat = rng.uniform(-89, 89, 500) + 0.001
    lng = rng.uniform(-179, 179, 500) + 0.001
    pts = latlng_deg_to_unit_xyz(lat, lng)
    for a, b in [("north_hemi", "south_hemi"), ("east_hemi", "west_hemi"),
                 ("near_hemi", "far_hemi")]:
        ia = fixtures.make_loop(a).contains_points(pts)
        ib = fixtures.make_loop(b).contains_points(pts)
        assert np.all(ia ^ ib), f"{a}/{b} must partition the sphere"


def _scalar_contains(lp, p) -> bool:
    inside = lp.origin_inside
    for e in range(lp.num_vertices()):
        if pred.edge_or_vertex_crossing(pred.ORIGIN, p, lp.v[e], lp.vnext[e]):
            inside = not inside
    return inside


def _random_pts(rng, m):
    return latlng_deg_to_unit_xyz(rng.uniform(-89, 89, m), rng.uniform(-180, 180, m))


def test_vectorized_matches_scalar_crossing():
    """The vectorized parity kernel must agree with a per-point scalar loop
    over edge_or_vertex_crossing (independent code path)."""
    rng = np.random.default_rng(77)
    lp = fixtures.make_loop("candy_cane")
    pts = _random_pts(rng, 300)
    fast = lp.contains_points(pts)
    for i in range(pts.shape[0]):
        assert _scalar_contains(lp, pts[i]) == bool(fast[i]), f"mismatch at point {i}"
    # behind one full tile of filler, the same points and the loop's own
    # vertices (uncertain pairs) land in the second tile: a slow-path row
    # offset error shows in either tile
    tile = TILE_PAIRS // lp.num_vertices()
    filler = _random_pts(rng, tile)
    multi = lp.contains_points(np.concatenate([filler, pts, lp.v]))
    assert np.array_equal(multi[:tile], lp.contains_points(filler))
    assert np.array_equal(multi[tile:tile + pts.shape[0]], fast)
    for j, v in enumerate(lp.v):
        assert bool(multi[tile + pts.shape[0] + j]) == _scalar_contains(lp, v)


def test_point_equals_vertex_is_deterministic():
    """Degenerate query: point exactly equal to a loop vertex must not crash
    and must match the scalar path (exercises the exact/SoS machinery)."""
    lp = fixtures.make_loop("arctic_80")
    got = lp.contains_points(lp.v)
    for i in range(lp.num_vertices()):
        assert bool(got[i]) == _scalar_contains(lp, lp.v[i])
    # the same vertices behind one full tile of filler: their uncertain
    # pairs sit in the second tile
    tile = TILE_PAIRS // lp.num_vertices()
    filler = _random_pts(np.random.default_rng(3), tile)
    multi = lp.contains_points(np.concatenate([filler, lp.v]))
    assert np.array_equal(multi[:tile], lp.contains_points(filler))
    assert np.array_equal(multi[tile:], got)


def test_many_edge_loop_refine_memory_is_bounded():
    """1,440 edges x 13,240 points: the tiled kernel stays under a fixed
    tracemalloc bound (a one-shot (points x edges) kernel peaks near
    1 GB here) and matches per-point evaluation."""
    import tracemalloc

    ang = np.linspace(0.0, 2.0 * np.pi, 1440, endpoint=False)
    lp = Loop.from_latlng_deg(40.0 + 3.0 * np.sin(ang), -74.0 + 3.0 * np.cos(ang))
    rng = np.random.default_rng(11)
    m = 13234
    pts = np.concatenate([
        latlng_deg_to_unit_xyz(rng.uniform(36, 44, m), rng.uniform(-78, -70, m)),
        lp.v[::240],  # point == vertex: uncertain pairs
    ])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = lp.contains_points(pts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"kernel peak {peak / 2**20:.1f} MB"
    want = np.array([lp.contains_points(p[None, :])[0] for p in pts])
    assert np.array_equal(got, want)
    assert 0 < got.sum() < got.size


def test_polygon_shell_hole():
    layer = fixtures.polygon_layer()
    ring = layer["urban_0_ring"]
    from s2_geometry_rust_ray.functions.geo import CLUSTER_LAT, CLUSTER_LNG

    clat, clng = float(CLUSTER_LAT[0]), float(CLUSTER_LNG[0])
    assert not bool(ring.contains_points(pt(clat, clng))[0])  # in the hole
    assert bool(ring.contains_points(pt(clat + 1.5, clng))[0])  # in the ring
    assert not bool(ring.contains_points(pt(clat + 10, clng))[0])  # outside


def test_loop_bound_contains_all_inside_points():
    rng = np.random.default_rng(8)
    lat = rng.uniform(-89, 89, 2000)
    lng = rng.uniform(-180, 180, 2000)
    pts = latlng_deg_to_unit_xyz(lat, lng)
    for name in ["candy_cane", "arctic_80", "loop_a", "small_ne_cw"]:
        lp = fixtures.make_loop(name)
        inside = lp.contains_points(pts)
        in_bound = lp.bound_contains_latlng_rad(np.deg2rad(lat), np.deg2rad(lng))
        assert np.all(~inside | in_bound), f"{name}: bound must cover interior"


def test_validate_loop():
    ok = fixtures.LOOP_COORDS_DEG["arctic_80"]
    v = latlng_deg_to_unit_xyz(
        np.array([c[0] for c in ok], float), np.array([c[1] for c in ok], float)
    )
    assert validate_loop(v) is None
    assert validate_loop(v[:2]) is not None  # too few
    bad = np.vstack([v, v[-1]])  # duplicate adjacent vertex
    assert validate_loop(bad) is not None
    # self-crossing bow-tie
    bow = latlng_deg_to_unit_xyz(
        np.array([0.0, 10.0, 0.0, 10.0]), np.array([0.0, 10.0, 10.0, 0.0])
    )
    assert validate_loop(bow) is not None
