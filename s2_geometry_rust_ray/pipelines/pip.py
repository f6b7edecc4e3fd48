"""PIP / region join pipelines over the synthetic geotagged tables."""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..functions.coords import latlng_deg_to_xyz
from ..geometry import fixtures
from ..geometry.cap import Cap
from ..geometry.rect import LatLngRect
from ..stages import distance as dist_stages
from ..stages import pip as pip_stages
from ..stages.exchange import map_blocks, typed
from ..stages.encode import derive_geotags


def standard_polygon_layer():
    """The polygon layer used by queries/bench: canonical fixture loops +
    urban hot-spot polygons (geometry/fixtures.py)."""
    layer = fixtures.polygon_layer()
    # hemispheres dominate everything (50% hit rate each); keep the layer
    # representative but selective for join output sizes
    for k in ["north_hemi", "south_hemi", "east_hemi", "west_hemi"]:
        layer.pop(k)
    return layer


class _ShapeIndexPIP:
    """The shape-index point-location stage: the layer's MutableShapeIndex
    (coverings, postings and seeds) is built once, where the plan is
    built, never per task or batch."""

    mode, id_col = "inner", "polygon_id"

    def __init__(self, layer, key_col: str):
        from ..geometry import shape_index as si
        from ..geometry.loop import Polygon

        self.key_col = key_col
        self.index = si.MutableShapeIndex(max_cells_per_shape=32, max_level=12)
        pids = sorted(layer)
        for pid in pids:
            poly = layer[pid]
            if not isinstance(poly, Polygon):
                poly = Polygon.from_loops_latlng_deg(poly)
            self.index.add_shape(si.PolygonShape(poly))
        self.index.build()
        self.pid_array = pa.array(pids, pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = derive_geotags(batch, self.key_col)  # fused: no separate stage
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lng = batch["lng"].to_numpy(zero_copy_only=False)
        pt_idx, sids = self.index.contains_points(
            np.stack(latlng_deg_to_xyz(lat, lng), axis=-1))
        return pa.table({self.key_col: batch[self.key_col].take(pt_idx),
                         self.id_col: self.pid_array.take(sids)})


def shape_index_pip_join(ds, key_col: str, layer=None):
    """PIP join computed through the MutableShapeIndex point-location path
    (geometry/shape_index.py) — a THIRD independent implementation of the
    same join (the broadcast PIPJoin and the range-partitioned shuffle
    being the other two), sharing the same SQL oracle.  Point location is
    fully batched (MutableShapeIndex.contains_points: leaf ids for the
    whole batch, searchsorted ancestor probes per index level, vectorized
    crossing-parity per located cell with the scalar robust predicates
    only as the uncertain-pair fallback).  Output (key_col, polygon_id),
    identical to pip_join, typed as `stages/pip.run_join` types it."""
    if layer is None:
        layer = standard_polygon_layer()
    return pip_stages.run_join(ds, _ShapeIndexPIP(layer, key_col), 131072)


def standard_caps() -> dict[str, Cap]:
    from ..functions.geo import CLUSTER_LAT, CLUSTER_LNG

    caps = {}
    for i, (clat, clng) in enumerate(zip(CLUSTER_LAT, CLUSTER_LNG)):
        caps[f"cap_urban_{i}"] = Cap.from_latlng_deg(float(clat), float(clng), 2.0)
    caps["cap_equator"] = Cap.from_latlng_deg(0.0, 0.0, 10.0)
    caps["cap_north_pole"] = Cap.from_latlng_deg(90.0, 0.0, 12.0)
    return caps


def standard_rects() -> dict[str, LatLngRect]:
    return {
        "rect_europe": LatLngRect.from_degrees(35.0, -10.0, 60.0, 30.0),
        "rect_antimeridian": LatLngRect.from_degrees(-20.0, 170.0, 20.0, -170.0),
        "rect_south": LatLngRect.from_degrees(-80.0, -180.0, -60.0, 180.0),
    }


class _GeotagEncodeJoin(pip_stages.PIPJoin):
    """Pipeline-layer fusion: geotag + encode + region join in ONE call —
    one wrapper layer fewer per batch than a separate geotag stage (~25%
    faster end-to-end at sf0.1; Ray fuses chained stages into one
    operator either way, but each extra map wrapper re-slices and
    re-wraps every batch).  The geotag and encode run inside PIPJoin's
    tile loop, one tile at a time, so their temporaries are bounded by
    the tile; the semi/anti pass-through modes filter the input batch,
    which never carries the derived columns."""

    def __init__(self, layer, key_col: str, **join_kwargs):
        from ..stages.encode import geotag_and_encode

        super().__init__(layer, key_col=key_col, **join_kwargs)
        self.enc = geotag_and_encode(key_col)

    def points(self, tile):
        return pip_stages.batch_latlng_leaves(self.enc(tile))


def _region_join(ds, key_col: str, **join_kwargs):
    """The one broadcast region join behind pip_join, within_distance_join
    and route_buffer_join (`join_kwargs` go to PIPJoin): a fused
    geotag+encode+PIPJoin stage, built once here with the prepared layer
    and run by `stages/pip.run_join` (`exchange.map_blocks`): over a
    computed input one raw task per block, so the query starts no Ray
    Data executor; over a lazy input a map fused with the read.  The
    stage rides the object store once per job, never per task or batch.
    The join runs each batch in row tiles (stages/pip.TILE_ROWS), so a
    batch's memory is its columns and matches plus a per-tile constant,
    whatever the candidate and edge counts.

    batch_size 131072: each batch pays a fixed cost (slicing and wrapping
    the block, the per-tile passes), which 131072 rows amortize.
    The size was chosen when this stage was an actor pool (32768 -> 131072
    took a 4-slot run from 10.7 s to 5.9 s; 262144 regressed on cache
    pressure) and is kept for the task maps."""
    return pip_stages.run_join(
        ds, _GeotagEncodeJoin(key_col=key_col, **join_kwargs), 131072)


def pip_join(ds, key_col: str, layer=None, mode: str = "inner"):
    """Broadcast PIP join (`_region_join`): (key_col, polygon_id) rows, or
    the matching (semi) / non-matching (anti) input rows."""
    if layer is None:
        layer = standard_polygon_layer()
    prepared = pip_stages.prepare_layer(layer)  # coverer runs ONCE per process
    return _region_join(ds, key_col, layer=prepared, mode=mode)


def standard_routes():
    """Fixture polylines ('routes') for the route-buffer join: one passing
    through urban cluster 0, one along the equator cluster band."""
    import numpy as np

    from ..geometry.polyline import Polyline

    return {
        "route_nyc": Polyline.from_latlng_deg(
            np.array([39.5, 40.5, 40.75, 41.2, 42.0]),
            np.array([-75.5, -74.4, -74.0, -73.6, -72.8]),
        ),
        "route_equator": Polyline.from_latlng_deg(
            np.array([5.5, 6.5, 7.0, 7.5]),
            np.array([2.0, 3.375, 4.5, 6.0]),
        ),
    }


def route_buffer_join(ds, key_col: str, routes=None, radius_deg: float = 0.75):
    """(key_col, route_id) for points within `radius_deg` of each route
    Polyline — the 'images within r of route' join: the routes' coverings
    (64 cells, level 12) expanded by the radius, refined by min edge
    chord^2 (stages/distance.buffered)."""
    if routes is None:
        routes = standard_routes()
    prepared = pip_stages.prepare_layer(routes, covering_max_cells=64,
                                        covering_max_level=12)
    return _region_join(
        ds, key_col,
        layer=dist_stages.buffered(prepared, math.radians(radius_deg)),
        id_col="route_id")


def boolean_fixture_polys():
    """Two overlapping squares straddling urban cluster 0 (40.75, -74) —
    the A/B inputs for the boolean-op pipeline and its oracle."""
    from ..geometry.loop import Polygon, latlng_deg_to_unit_xyz
    from ..geometry.loop import Loop

    import numpy as np

    def sq(lat1, lng1, lat2, lng2):
        lats = np.array([lat1, lat1, lat2, lat2], float)
        lngs = np.array([lng1, lng2, lng2, lng1], float)
        return Polygon([Loop(latlng_deg_to_unit_xyz(lats, lngs))])

    return sq(40.4, -74.3, 40.8, -73.9), sq(40.6, -74.1, 41.1, -73.7)


def boolean_pip_join(ds, key_col: str):
    """PIP join against CLIPPED boolean products of the fixture squares:
    the engine geometrically clips union/intersection/difference
    (geometry/boolean.py) and joins points against the RESULT polygons;
    the oracle (oracle/pip_sql.q_boolean_pip) instead applies set algebra
    (OR/AND/EXCEPT) to crossing-parity membership in the ORIGINAL squares
    — agreement is a genuine independent verification of the clipping."""
    from ..geometry import boolean as B

    pa, pb = boolean_fixture_polys()
    layer = {
        "union": B.boolean_op(pa, pb, "union"),
        "intersection": B.boolean_op(pa, pb, "intersection"),
        "difference": B.boolean_op(pa, pb, "difference"),
    }
    return pip_join(ds, key_col, layer=layer)


def within_distance_join(ds, key_col: str, layer=None, radius_deg: float = 1.5):
    """Buffered region join: (key_col, polygon_id) for points within
    `radius_deg` of each polygon (inside or near the boundary).  The
    layer is prepared as for pip_join (so its coverings come from the
    same per-process memo), then expanded by the radius
    (stages/distance.buffered) and joined by the same broadcast stage."""
    if layer is None:
        layer = standard_polygon_layer()
    prepared = pip_stages.prepare_layer(layer)
    return _region_join(
        ds, key_col,
        layer=dist_stages.buffered(prepared, math.radians(radius_deg)))


def _mask_join(ds, key_col: str, masks):
    """(key_col, region_id) rows of the points of `ds` inside each region:
    geotag and `stages/pip.mask_join` fused in one stateless `map_blocks`
    fn, `masks(lat, lng)` giving the (region id, row mask) pairs."""
    def fn(b: pa.Table) -> pa.Table:
        b = derive_geotags(b, key_col)
        lat = b["lat"].to_numpy(zero_copy_only=False)
        lng = b["lng"].to_numpy(zero_copy_only=False)
        return pip_stages.mask_join(b, key_col, masks(lat, lng))

    return typed(ds, map_blocks(ds, fn), [key_col, ("region_id", pa.string())])


def cap_join(ds, key_col: str, caps=None):
    """(key_col, region_id) rows of the points inside each Cap."""
    if caps is None:
        caps = standard_caps()

    def masks(lat, lng):
        xyz = latlng_deg_to_xyz(lat, lng)
        return ((rid, cap.contains_xyz(*xyz)) for rid, cap in caps.items())

    return _mask_join(ds, key_col, masks)


def rect_join(ds, key_col: str, rects=None):
    """(key_col, region_id) rows of the points inside each LatLngRect
    (degree-space comparisons)."""
    if rects is None:
        rects = standard_rects()
    return _mask_join(ds, key_col, lambda lat, lng: (
        (rid, rect.contains_latlng_deg(lat, lng)) for rid, rect in rects.items()))
