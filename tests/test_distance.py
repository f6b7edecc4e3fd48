"""Distance-r join kernel + expand_with_radius vs brute force, and the
broadcast region joins (PIP modes, within-distance, route buffer)."""

import math

import numpy as np
import pytest

from s2_geometry_rust_ray.functions import cellid
from s2_geometry_rust_ray.geometry import cell_union
from s2_geometry_rust_ray.geometry.cap import chord2_from_radians
from s2_geometry_rust_ray.geometry.coverer import (
    PolygonRegion,
    RegionCoverer,
    _point_to_arc_chord2,
)
from s2_geometry_rust_ray.geometry.loop import (
    TILE_PAIRS,
    Polygon,
    latlng_deg_to_unit_xyz,
)
from s2_geometry_rust_ray.stages import distance as D

U = np.uint64


def square(lat0, lng0, half):
    lats = [lat0 - half, lat0 - half, lat0 + half, lat0 + half]
    lngs = [lng0 - half, lng0 + half, lng0 + half, lng0 - half]
    return [(np.array(lats, float), np.array(lngs, float))]


def test_min_edge_chord2_matches_scalar():
    poly = Polygon.from_loops_latlng_deg(square(10.0, 30.0, 5.0))
    consts = D.edge_constants(poly)
    rng = np.random.default_rng(5)
    lat = rng.uniform(-30, 50, 200)
    lng = rng.uniform(-10, 70, 200)
    pts = latlng_deg_to_unit_xyz(lat, lng)
    got = D.points_min_edge_chord2(pts[:, 0], pts[:, 1], pts[:, 2], consts)
    a, b, n = consts[0], consts[1], consts[2]
    for i in range(0, 200, 17):
        want = min(
            _point_to_arc_chord2(pts[i], a[e], b[e], n[e]) for e in range(len(a))
        )
        assert abs(got[i] - want) < 1e-12
    # m x E over the tile pair budget: the row-tiled min equals the
    # one-shot matrix min bit for bit, and rows in later tiles match scalar
    m = TILE_PAIRS // len(a) * 2 + 123
    pts = latlng_deg_to_unit_xyz(rng.uniform(-30, 50, m), rng.uniform(-10, 70, m))
    got = D.points_min_edge_chord2(pts[:, 0], pts[:, 1], pts[:, 2], consts)
    full = D.points_edge_chord2_matrix(pts[:, 0], pts[:, 1], pts[:, 2], consts)
    assert np.array_equal(got, full.min(axis=1))
    for i in range(m - 1, 0, -(m // 11)):
        want = min(
            _point_to_arc_chord2(pts[i], a[e], b[e], n[e]) for e in range(len(a))
        )
        assert abs(got[i] - want) < 1e-12


def test_normalize_drops_nested_both_directions():
    face = cellid.from_face_ij(np.array([1]), np.array([1 << 27]), np.array([1 << 27]))
    anc = cellid.parent(face, 4)
    desc1 = cellid.parent(face, 9)
    desc2 = cellid.parent(face, 13)
    for arrangement in ([desc1, anc, desc2], [anc, desc1], [desc2, anc]):
        out = cell_union.normalize(np.concatenate(arrangement))
        assert np.array_equal(out, anc)


def test_expand_with_radius_buffers():
    """Every point within r of the region must land inside the expanded
    covering (the prefilter-correctness property the join relies on)."""
    poly = Polygon.from_loops_latlng_deg(square(20.0, 100.0, 3.0))
    rc = RegionCoverer(max_cells=48, max_level=14)
    cov = cell_union.normalize(rc.get_covering(PolygonRegion(poly)))
    r = math.radians(1.5)
    exp = cell_union.expand_with_radius(cov, r)
    c2 = chord2_from_radians(r)
    consts = D.edge_constants(poly)
    rng = np.random.default_rng(7)
    lat = rng.uniform(14.0, 26.0, 4000)
    lng = rng.uniform(94.0, 106.0, 4000)
    pts = latlng_deg_to_unit_xyz(lat, lng)
    d2 = D.points_min_edge_chord2(pts[:, 0], pts[:, 1], pts[:, 2], consts)
    inside = poly.contains_points(pts)
    within = inside | (d2 <= c2)
    from s2_geometry_rust_ray.functions.coords import (
        st_to_ij,
        uv_to_st,
        xyz_to_face_uv,
    )

    face, u, v = xyz_to_face_uv(pts[:, 0], pts[:, 1], pts[:, 2])
    leaves = cellid.from_face_ij(face, st_to_ij(uv_to_st(u)), st_to_ij(uv_to_st(v)))
    in_exp = cell_union.contains_ids(exp, leaves)
    assert np.all(in_exp[within]), "expanded covering cut a true match"


def test_within_distance_join_end_to_end(ray_session):
    import ray.data

    from s2_geometry_rust_ray.pipelines import pip as ppip

    ds = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id"]
    )
    got = ppip.within_distance_join(ds, "doc_id", radius_deg=1.5).to_pandas()
    pip = ppip.pip_join(ds, "doc_id").to_pandas()
    got_pairs = set(zip(got["doc_id"], got["polygon_id"]))
    pip_pairs = set(zip(pip["doc_id"], pip["polygon_id"]))
    # superset of the PIP join (inside => within distance)
    assert pip_pairs <= got_pairs
    assert len(got_pairs) > len(pip_pairs)


def test_within_distance_layer_reuses_prepare_memo(ray_session, monkeypatch):
    """With the standard layer already prepared, building the
    within-distance layer runs no coverer: its coverings are the memoized
    ones expanded by the radius."""
    import ray.data

    from s2_geometry_rust_ray.pipelines import pip as ppip
    from s2_geometry_rust_ray.stages import pip as pip_stages

    pip_stages.prepare_layer(ppip.standard_polygon_layer())

    def no_coverer(self, region):
        raise AssertionError("the coverer ran again")

    monkeypatch.setattr(RegionCoverer, "get_covering", no_coverer)
    monkeypatch.setattr(RegionCoverer, "get_interior_covering", no_coverer)
    ds = ray.data.from_items([{"doc_id": 1}])
    ppip.within_distance_join(ds, "doc_id", radius_deg=1.5)  # lazy: prepares only


def test_buffered_layer_is_memoized(ray_session, monkeypatch):
    """A second within-distance join over the same layer and radius
    reuses the buffered layer: no expand_with_radius runs, and the join
    gives the same rows.  Another radius is another layer."""
    import ray.data

    from s2_geometry_rust_ray.pipelines import pip as ppip

    a, b = ppip.boolean_fixture_polys()
    layer = {"sq_a": a, "sq_b": b}
    ds = ray.data.range(20000).map_batches(
        lambda t: t.rename_columns(["doc_id"]), batch_format="pyarrow")
    def run(radius_deg):
        out = ppip.within_distance_join(ds, "doc_id", layer=layer, radius_deg=radius_deg)
        return out.to_pandas().sort_values(["doc_id", "polygon_id"], ignore_index=True)

    first = run(0.5)

    def no_expand(ids, radius):
        raise AssertionError("expand_with_radius ran again")

    monkeypatch.setattr(cell_union, "expand_with_radius", no_expand)
    again = run(0.5)
    assert len(first) > 0 and again.equals(first)
    with pytest.raises(AssertionError, match="ran again"):
        ppip.within_distance_join(ds, "doc_id", layer=layer, radius_deg=0.25)


def test_pip_join_semi_anti_modes(ray_session):
    """semi keeps exactly the points with an inner match, anti the rest,
    and both pass the input's columns through unchanged."""
    import pandas as pd
    import ray.data

    from s2_geometry_rust_ray.pipelines import pip as ppip
    from tests.test_textops import SF

    ds = ray.data.read_parquet(f"{SF}/documents.parquet")
    cols = ds.schema().names
    src = ds.to_pandas()
    inner = ppip.pip_join(ds, "doc_id").to_pandas()
    semi = ppip.pip_join(ds, "doc_id", mode="semi").to_pandas()
    anti = ppip.pip_join(ds, "doc_id", mode="anti").to_pandas()
    assert len(inner) > 0 and len(semi) > 0 and len(anti) > 0
    assert list(semi.columns) == cols and list(anti.columns) == cols
    assert sorted(semi["doc_id"]) == sorted(set(inner["doc_id"]))
    assert not set(semi["doc_id"]) & set(anti["doc_id"])
    both = pd.concat([semi, anti]).sort_values("doc_id").reset_index(drop=True)
    assert both.equals(src.sort_values("doc_id").reset_index(drop=True))


def test_compare_distance_predicates():
    import math

    from s2_geometry_rust_ray.functions import predicates as P
    from s2_geometry_rust_ray.geometry.cap import chord2_from_radians

    a = latlng_deg_to_unit_xyz(np.array([0.0]), np.array([0.0]))[0]
    b = latlng_deg_to_unit_xyz(np.array([0.0]), np.array([10.0]))[0]
    x = latlng_deg_to_unit_xyz(np.array([0.0]), np.array([3.0]))[0]
    assert P.compare_distances(x, a, b) == -1  # closer to a
    assert P.compare_distances(x, b, a) == 1
    assert P.compare_distances(a, b, b) == 0
    r2 = chord2_from_radians(math.radians(5.0))
    assert P.compare_distance(x, a, r2) == -1  # 3 deg < 5 deg
    assert P.compare_distance(b, a, r2) == 1   # 10 deg > 5 deg
    # edge distance: point above the middle of the arc
    p = latlng_deg_to_unit_xyz(np.array([2.0]), np.array([5.0]))[0]
    assert P.compare_edge_distance(p, a, b, chord2_from_radians(math.radians(3.0))) == -1
    assert P.compare_edge_distance(p, a, b, chord2_from_radians(math.radians(1.0))) == 1


def test_cell_union_varint_roundtrip():
    from s2_geometry_rust_ray.geometry.coverer import PolygonRegion, RegionCoverer

    poly = Polygon.from_loops_latlng_deg(square(10.0, 30.0, 5.0))
    rc = RegionCoverer(max_cells=32, max_level=12)
    cov = cell_union.normalize(rc.get_covering(PolygonRegion(poly)))
    enc = cell_union.encode_varint(cov)
    dec = cell_union.decode_varint(enc)
    assert np.array_equal(dec, cov)
    assert len(enc) < 8 * len(cov)  # beats raw fixed-width


def test_route_buffer_join(ray_session):
    import math

    import ray.data

    from s2_geometry_rust_ray.functions import geo
    from s2_geometry_rust_ray.pipelines import pip as ppip
    from s2_geometry_rust_ray.stages import distance as DD

    ds = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id"]
    )
    routes = ppip.standard_routes()
    got = ppip.route_buffer_join(ds, "doc_id", routes=routes,
                                 radius_deg=0.75).to_pandas()
    # brute force: min edge chord^2 per (doc, route)
    import pyarrow.parquet as pq

    ids = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                        columns=["doc_id"])["doc_id"].to_numpy()
    lat, lng = geo.derive_latlng(ids)
    from s2_geometry_rust_ray.functions.coords import latlng_deg_to_xyz
    from s2_geometry_rust_ray.geometry.cap import chord2_from_radians

    x, y, z = latlng_deg_to_xyz(lat, lng)
    c2 = chord2_from_radians(math.radians(0.75))
    want = set()
    for rid, line in routes.items():
        d2 = DD.points_min_edge_chord2(x, y, z, DD.polyline_edge_constants(line))
        for i in np.nonzero(d2 <= c2)[0]:
            want.add((int(ids[i]), rid))
    assert set(zip(got["doc_id"], got["route_id"])) == want
    assert len(want) > 0


def test_degenerate_edge_no_nan():
    """A duplicate-vertex (or antipodal) edge has zero normal; the kernel
    must take the endpoint branch instead of poisoning every row with NaN
    through min(axis=1)."""
    from s2_geometry_rust_ray.stages.distance import (
        _edge_consts_from_ab, points_edge_chord2_matrix, points_min_edge_chord2,
    )

    a = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    b = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    consts = _edge_consts_from_ab(a, b)
    p = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    mat = points_edge_chord2_matrix(p[:, 0], p[:, 1], p[:, 2], consts)
    assert np.isfinite(mat).all()
    d = points_min_edge_chord2(p[:, 0], p[:, 1], p[:, 2], consts)
    assert d[0] == 0.0  # p0 IS a vertex of edge 2
    assert d[1] == 0.0  # p1 IS the degenerate edge 0


def test_degenerate_edge_queries_no_nan():
    """distance_to_boundary through the unified kernel must stay finite
    with a duplicate consecutive vertex in the geometry."""
    from s2_geometry_rust_ray.geometry.polyline import Polyline
    from s2_geometry_rust_ray.geometry.queries import distance_to_boundary

    v = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    line = Polyline(v)
    pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    d = distance_to_boundary(line, pts)
    assert np.isfinite(d).all()
    assert d[1] == 0.0


def test_compare_edge_distance_outside_certain():
    """A point decisively outside the wedge on ONE side (the other wedge
    dot exactly zero) must use the endpoint distance, not report a tie:
    x = -a1 is antipodal to endpoint a1 (chord2 = 2) with r2 = 0.01."""
    from s2_geometry_rust_ray.functions.predicates import compare_edge_distance

    a0 = np.array([1.0, 0.0, 0.0])
    a1 = np.array([0.0, 1.0, 0.0])
    assert compare_edge_distance(-a1, a0, a1, 0.01) == 1
    # and a point clearly within radius of an endpoint still returns -1
    near = np.array([0.9999, 0.01, 0.0])
    near = near / np.linalg.norm(near)
    assert compare_edge_distance(near, a0, a1, 0.01) == -1
