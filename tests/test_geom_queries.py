"""Query system (closest-edge / contains-point models / crossing-edge /
convex hull), polylines, snap functions, boolean ops via rasters —
semantics per the reference's placeholder specs (test_s2query_system_port.rs)
and the vendored C++ headers."""

import numpy as np
import pytest

from s2_geometry_rust_ray.functions import cellid, snap
from s2_geometry_rust_ray.geometry import fixtures, queries, raster
from s2_geometry_rust_ray.geometry.cap import Cap, radians_from_chord2
from s2_geometry_rust_ray.geometry.coverer import CapRegion, PolygonRegion
from s2_geometry_rust_ray.geometry.loop import latlng_deg_to_unit_xyz
from s2_geometry_rust_ray.geometry.polyline import Polyline


def pts(lat, lng):
    return latlng_deg_to_unit_xyz(np.asarray(lat, float), np.asarray(lng, float))


def test_polyline_length_interpolate():
    # equator quarter arc: 90 degrees
    pl = Polyline.from_latlng_deg([0, 0], [0, 90])
    assert abs(pl.get_length() - np.pi / 2) < 1e-12
    mid = pl.interpolate(0.5)
    expect = pts([0], [45])[0]
    assert np.allclose(mid, expect, atol=1e-12)
    assert np.allclose(pl.interpolate(0.0), pl.v[0])
    assert np.allclose(pl.interpolate(1.0), pl.v[-1])


def test_polyline_project():
    pl = Polyline.from_latlng_deg([0, 0, 10], [0, 10, 20])
    q = pts([1.0, -2.0], [5.0, 0.1])
    closest, eidx, d2 = pl.project(q)
    # first query is near the first edge; distance roughly 1 degree of arc
    assert eidx[0] == 0
    ang = radians_from_chord2(float(d2[0]))
    assert abs(ang - np.deg2rad(1.0)) < 0.01
    # projected points lie on the polyline's great-circle edges
    n = np.cross(pl.v[eidx[0]], pl.v[eidx[0] + 1])
    assert abs(float(closest[0] @ n) / np.linalg.norm(n)) < 1e-12


def test_polyline_intersects():
    a = Polyline.from_latlng_deg([-5, 5], [0, 0])
    b = Polyline.from_latlng_deg([0, 0], [-5, 5])
    c = Polyline.from_latlng_deg([10, 20], [10, 10])
    assert a.intersects(b)
    assert not a.intersects(c)


def test_closest_edge_and_distance():
    lp = fixtures.make_loop("arctic_80")
    q = pts([85.0, 0.0], [0.0, 0.0])
    res = queries.closest_edge_query(lp, q, max_results=2)
    assert len(res[0]) == 2
    assert res[0][0][1] <= res[0][1][1]  # sorted by distance
    d2 = queries.distance_to_boundary(lp, q)
    # equator point is much farther from the arctic boundary than the 85N point
    assert d2[1] > d2[0]
    # max_distance filter
    res2 = queries.closest_edge_query(lp, q, max_results=2, max_distance=1e-6)
    assert res2[0] == [] or res2[0][0][1] <= 4e-12


def test_crossing_edge_query():
    lp = fixtures.make_loop("loop_a")
    # a meridian segment through the loop crosses exactly 2 edges
    # (lng 179.5, off the loop's vertices which sit on the 180 meridian)
    c, d = pts([3, -3], [179.5, 179.5])
    hits = queries.crossing_edge_query(lp, c, d)
    assert len(hits) == 2
    far_c, far_d = pts([3, -3], [0, 0])
    assert queries.crossing_edge_query(lp, far_c, far_d) == []


def test_contains_point_vertex_models():
    lp = fixtures.make_loop("arctic_80")
    vertex = lp.v[0:1]
    interior = pts([89.0], [0.0])
    semi = queries.contains_point_query(lp, np.vstack([vertex, interior]), "semi_open")
    closed = queries.contains_point_query(lp, np.vstack([vertex, interior]), "closed")
    open_ = queries.contains_point_query(lp, np.vstack([vertex, interior]), "open")
    assert closed[0] and not open_[0]  # vertex: in closed, not in open
    assert semi[1] and closed[1] and open_[1]  # interior in all models


def test_convex_hull():
    rng = np.random.default_rng(6)
    cloud = pts(rng.uniform(10, 30, 60), rng.uniform(-20, 10, 60))
    hull = queries.convex_hull_query(cloud)
    assert len(hull) >= 3
    # every input point is inside or on the hull polygon
    from s2_geometry_rust_ray.geometry.loop import Loop

    hull_loop = Loop(hull)
    inside = hull_loop.contains_points(cloud)
    boundary = queries.distance_to_boundary(hull_loop, cloud) < 1e-20
    assert np.all(inside | boundary)


def test_snap_functions():
    lat = np.array([47.123456789, -33.000000049])
    lng = np.array([-122.987654321, 151.000000049])
    slat, slng = snap.snap_e7(lat, lng)
    assert abs(slat[0] - 47.1234568) < 1e-9
    ilat, ilng = snap.snap_e7_int(lat, lng)
    assert ilat[0] == 471234568 and ilng[0] == -1229876543
    clat, clng, cell = snap.snap_to_cell_center(lat, lng, 12)
    assert np.all(cellid.level(cell) == 12)
    # snapped point re-encodes into the same cell
    again = cellid.parent(cellid.from_latlng_deg(clat, clng), 12)
    assert np.array_equal(again, cell)
    # dedup keys: two points < cell size apart share a key at coarse level
    k = snap.snap_dedup_keys(np.array([10.0, 10.00001]), np.array([20.0, 20.00001]), 12)
    assert k[0] == k[1]


def test_boolean_ops_via_raster():
    a = CapRegion(Cap.from_latlng_deg(0.0, 0.0, 3.0))
    b = CapRegion(Cap.from_latlng_deg(0.0, 2.0, 3.0))
    lvl = 8
    u = raster.boolean_op(a, b, "union", lvl)
    i = raster.boolean_op(a, b, "intersection", lvl)
    d = raster.boolean_op(a, b, "difference", lvl)
    x = raster.boolean_op(a, b, "symmetric_difference", lvl)
    ra = raster.rasterize(a, lvl, mode="centers")
    rb = raster.rasterize(b, lvl, mode="centers")
    assert set(u) == set(ra) | set(rb)
    assert set(i) == set(ra) & set(rb)
    assert set(d) == set(ra) - set(rb)
    assert set(x) == set(ra) ^ set(rb)
    assert len(i) > 0 and len(d) > 0


def test_closest_cell_distance():
    cell = int(cellid.parent(cellid.from_latlng_deg(np.array([10.0]), np.array([10.0])), 8)[0])
    inside = pts([10.0], [10.0])[0]
    assert queries.closest_cell_distance(cell, inside) == 0.0
    far = pts([-40.0], [100.0])[0]
    assert queries.closest_cell_distance(cell, far) > 0.1


def test_furthest_edge_query():
    import math

    from s2_geometry_rust_ray.geometry.loop import Loop, latlng_deg_to_unit_xyz
    from s2_geometry_rust_ray.geometry.queries import (
        closest_edge_query,
        furthest_edge_query,
    )

    lats = np.array([-1.0, -1.0, 1.0, 1.0])
    lngs = np.array([-1.0, 1.0, 1.0, -1.0])
    lp = Loop(latlng_deg_to_unit_xyz(lats, lngs))
    # query from a point far east: the west edge is furthest
    q = latlng_deg_to_unit_xyz(np.array([0.0]), np.array([90.0]))
    far = furthest_edge_query(lp, q)[0][0]
    near = closest_edge_query(lp, q)[0][0]
    assert far[1] > near[1]
    # furthest distance from inside the loop to its own edges < pi chord
    q2 = latlng_deg_to_unit_xyz(np.array([0.0]), np.array([0.0]))
    d2 = furthest_edge_query(lp, q2)[0][0][1]
    assert 0 < d2 < 4.0
    # antipode of the center: every edge is nearly max distance
    q3 = latlng_deg_to_unit_xyz(np.array([0.0]), np.array([180.0]))
    d3 = furthest_edge_query(lp, q3)[0][0][1]
    assert d3 > 3.9


def test_cap_add_point_add_cap_union():
    import math

    from s2_geometry_rust_ray.geometry.cap import Cap, radians_from_chord2
    from s2_geometry_rust_ray.geometry.loop import latlng_deg_to_unit_xyz

    empty = Cap(np.array([1.0, 0.0, 0.0]), -1.0)
    p1 = latlng_deg_to_unit_xyz(np.array([0.0]), np.array([0.0]))[0]
    p2 = latlng_deg_to_unit_xyz(np.array([0.0]), np.array([10.0]))[0]
    c = empty.add_point(p1)
    assert c.r2 == 0.0 and np.allclose(c.center, p1)
    c = c.add_point(p2)
    assert bool(c.contains_xyz(*p1)) and bool(c.contains_xyz(*p2))
    assert radians_from_chord2(c.r2) == pytest.approx(math.radians(10.0), abs=1e-12)
    # union of two separated caps contains both
    a = Cap.from_latlng_deg(0.0, 0.0, 5.0)
    b = Cap.from_latlng_deg(0.0, 20.0, 3.0)
    u = a.union(b)
    assert u.contains_cap(a) and u.contains_cap(b)
    # containment shortcut
    small = Cap.from_latlng_deg(0.0, 0.0, 1.0)
    assert np.allclose(a.union(small).center, a.center)
    assert a.union(small).r2 == a.r2
    assert a.add_cap(small).r2 == a.r2
    assert empty.add_cap(a).r2 == a.r2


def test_rect_distance():
    import math

    from s2_geometry_rust_ray.geometry.rect import LatLngRect

    r = LatLngRect.from_degrees(0.0, 0.0, 10.0, 10.0)
    # inside -> 0
    assert r.distance_to_latlng_rad(math.radians(5), math.radians(5)) == 0.0
    # due east of the rect at the equator: distance = delta lng
    d = r.distance_to_latlng_rad(math.radians(0.0), math.radians(15.0))
    assert d == pytest.approx(math.radians(5.0), abs=1e-12)
    r2 = LatLngRect.from_degrees(0.0, 20.0, 10.0, 30.0)
    # closest corners sit at lat 10 deg: great-circle distance between
    # (10,10) and (10,20) is shorter than 10 deg of equator longitude
    want = math.acos(
        math.sin(math.radians(10)) ** 2
        + math.cos(math.radians(10)) ** 2 * math.cos(math.radians(10))
    )
    assert r.distance_to_rect_rad(r2) == pytest.approx(want, abs=1e-9)
    assert r.distance_to_rect_rad(r) == 0.0


def test_stable_sign_tier():
    from s2_geometry_rust_ray.functions import predicates as P

    rng = np.random.default_rng(9)
    for _ in range(500):
        a = rng.normal(size=3); a /= np.linalg.norm(a)
        d = rng.normal(size=3) * 10 ** rng.uniform(-15, -9)
        b = a + rng.uniform(-1, 1) * d; b /= np.linalg.norm(b)
        c = a + rng.uniform(-1, 1) * d; c /= np.linalg.norm(c)
        s = P.stable_sign(a, b, c)
        if s != 0:  # certain answers must agree with exact arithmetic
            assert s == P.exact_sign(a, b, c)
        # the full cascade never returns 0 for distinct points
        if not (np.array_equal(a, b) or np.array_equal(b, c)
                or np.array_equal(a, c)):
            assert P.sign(a, b, c) in (-1, 1)


def test_interval_hausdorff():
    import math

    from s2_geometry_rust_ray.geometry.interval import PI, R1Interval, S1Interval

    a = R1Interval(0.0, 2.0)
    b = R1Interval(1.0, 5.0)
    assert a.directed_hausdorff(b) == 1.0      # a.lo=0 is 1 from b.lo=1
    assert b.directed_hausdorff(a) == 3.0      # b.hi=5 is 3 from a.hi=2
    assert a.directed_hausdorff(a) == 0.0
    s = S1Interval(0.0, 1.0)
    t = S1Interval(0.5, 2.0)
    assert s.directed_hausdorff(t) == pytest.approx(0.5, abs=1e-15)
    assert t.directed_hausdorff(s) == pytest.approx(1.0, abs=1e-15)
    # wraparound: interval near pi vs interval near -pi
    u = S1Interval(math.pi - 0.1, math.pi)
    v = S1Interval(-math.pi, -math.pi + 0.1)
    assert u.directed_hausdorff(v) == pytest.approx(0.1, abs=1e-12)
    assert S1Interval(0.0, 1.0).directed_hausdorff(S1Interval(0.0, 1.0)) == 0.0


def test_edge_crosser_chain_matches_pairwise():
    """EdgeCrosser chain results must equal standalone crossing_sign for
    every edge of a random chain, including shared-vertex cases."""
    from s2_geometry_rust_ray.functions import predicates as pred

    rng = np.random.default_rng(13)
    pts = rng.normal(size=(40, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    a, b = pts[0], pts[1]
    chain = pts[2:]
    crosser = pred.EdgeCrosser(a, b)
    crosser.restart_at(chain[0])
    for i in range(len(chain) - 1):
        want = pred.crossing_sign(a, b, chain[i], chain[i + 1])
        got = crosser.crossing_sign_chain(chain[i + 1])
        assert got == want, i
    # shared-vertex chain step -> 0, state still advances
    crosser.restart_at(chain[0])
    assert crosser.crossing_sign_chain(a) == 0
    assert crosser.crossing_sign_chain(chain[5]) == pred.crossing_sign(
        a, b, a, chain[5]
    )
    # pairwise entry point restarts automatically
    c2 = pred.EdgeCrosser(a, b)
    for i in range(0, len(chain) - 1, 2):  # non-chained call pattern
        assert c2.crossing_sign(chain[i], chain[i + 1]) == pred.crossing_sign(
            a, b, chain[i], chain[i + 1]
        )


def test_brute_knn_zero_queries_string_key_schema():
    """Zero queries over a string key column yield the documented partial
    schema (query_id int64, neighbor typed like the key, d2 float64) from
    the kNN scan without rings (brute force)."""
    import pyarrow as pa

    from s2_geometry_rust_ray.stages.knn import KnnScan

    empty = {c: np.array([], dtype=np.float64) for c in ("x", "y", "z")}
    empty["query_id"] = np.array([], dtype=np.int64)
    batch = pa.table({"name": pa.array(["a", "b"]),
                      "lat": [1.0, 2.0], "lng": [3.0, 4.0]})
    out = KnnScan(empty, 3, "name")(batch)
    assert out.num_rows == 0
    assert out.schema == pa.schema([("query_id", pa.int64()),
                                    ("neighbor", pa.string()),
                                    ("d2", pa.float64())])
