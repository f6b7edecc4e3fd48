"""Distance-r ("buffered") region join: points within radius r of a
polygon layer.

The headline spatial op after PIP (VERDICT r1 #4): emits (key, polygon_id)
for every point whose spherical distance to the polygon REGION is <= r —
i.e. inside it, or within r of its boundary.  Composition:

  * prefilter: polygon covering EXPANDED by r
    (geometry/cell_union.expand_with_radius — canonical
    S2CellUnion::Expand(S1Angle); port src/cell_union.rs:427-467), leaf-id
    range membership exactly like the PIP prefilter;
  * fast-accept: interior-covering membership (inside => distance 0);
  * exact refine: crossing-parity containment OR min point-to-edge
    chord^2 <= chord^2(r), with the edge kernel written in explicit
    left-associated mul/adds over DRIVER-PRECOMPUTED per-edge constants
    (n, n x a, b x n, |n|^2) so the DuckDB oracle
    (oracle/pip_sql.q_within_distance_join) reproduces every float bit.
    This is the compare_edge_distance predicate family
    (src/predicates.rs:503-562) specialised to a fixed chord^2 threshold,
    where exact-arithmetic tiers are unnecessary because chord^2 is
    totally ordered and the threshold comparison is reproduced bit-for-bit
    by the oracle.

Broadcast stages for `exchange.actor_map` (a task-pool map with a cached
per-worker instance), sharing stages/pip's covering filter and its
candidate-only, bounded-memory refine.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geometry.loop import Polygon, row_tiles
from .pip import batch_latlng_leaves, covering_filter, rows_xyz


class PreparedDistanceLayer:
    """Driver-side broadcast state: per polygon the edge-constant arrays
    and the radius-expanded covering ranges."""

    def __init__(self, edge_consts, coverings, interiors, chord2):
        self.edge_consts = edge_consts
        self.coverings = coverings
        self.interiors = interiors
        self.chord2 = chord2
        self.polys = None  # filled by prepare (needed for the parity path)


def _edge_consts_from_ab(a: np.ndarray, b: np.ndarray):
    n = np.cross(a, b)
    na = np.cross(n, a)
    bn = np.cross(b, n)
    nn = n[:, 0] * n[:, 0] + n[:, 1] * n[:, 1] + n[:, 2] * n[:, 2]
    return a, b, n, na, bn, nn


def edge_constants(poly: Polygon):
    """Per-edge precomputed float arrays (a, b, n, n x a, b x n, |n|^2)
    shared verbatim with the SQL oracle's VALUES literals."""
    a = np.concatenate([lp.v for lp in poly.loops])
    b = np.concatenate([lp.vnext for lp in poly.loops])
    n = np.concatenate([lp.edge_normals for lp in poly.loops])
    na = np.cross(n, a)
    bn = np.cross(b, n)
    nn = n[:, 0] * n[:, 0] + n[:, 1] * n[:, 1] + n[:, 2] * n[:, 2]
    return a, b, n, na, bn, nn


def polyline_edge_constants(line):
    """Edge constants for a Polyline (open chain: n-1 edges)."""
    return _edge_consts_from_ab(line.v[:-1], line.v[1:])


def points_edge_chord2_matrix(px, py, pz, consts) -> np.ndarray:
    """Chord^2 from each point to each edge: (m, E) matrix.

    Identical expression structure to the SQL twin:
      wa = px*nax + py*nay + pz*naz           (>=0: past edge start)
      wb = px*bnx + py*bny + pz*bnz           (>=0: before edge end)
      w  = (px*nx + py*ny + pz*nz) / sqrt(nn)
      in-wedge: 2 - 2*sqrt(max(0, 1 - w_clamped^2))
      else:     min(2 - 2*(p.a), 2 - 2*(p.b))

    The shared kernel behind the distance-r join refine AND the query
    system's closest-edge / distance-to-boundary (geometry/queries.py) —
    one implementation, no scalar per-(point, edge) loops anywhere.
    """
    a, b, n, na, bn, nn = consts
    wa = (
        px[:, None] * na[None, :, 0]
        + py[:, None] * na[None, :, 1]
        + pz[:, None] * na[None, :, 2]
    )
    wb = (
        px[:, None] * bn[None, :, 0]
        + py[:, None] * bn[None, :, 1]
        + pz[:, None] * bn[None, :, 2]
    )
    # degenerate edges (duplicate or antipodal endpoints: nn == 0) take
    # the endpoint branch — dividing by sqrt(0) would poison the whole
    # row with NaN through min(axis=1).  Real layers have none, and for
    # nn > 0 the arithmetic is bit-identical to before (the SQL-twin
    # contract), so this guard changes nothing on the oracle path.
    ok = nn > 0.0
    w = (
        px[:, None] * n[None, :, 0]
        + py[:, None] * n[None, :, 1]
        + pz[:, None] * n[None, :, 2]
    ) / np.sqrt(np.where(ok, nn, 1.0))[None, :]
    wc = np.maximum(-1.0, np.minimum(1.0, w))
    d2_arc = 2.0 - 2.0 * np.sqrt(np.maximum(0.0, 1.0 - wc * wc))
    da = 2.0 - 2.0 * (
        px[:, None] * a[None, :, 0]
        + py[:, None] * a[None, :, 1]
        + pz[:, None] * a[None, :, 2]
    )
    db = 2.0 - 2.0 * (
        px[:, None] * b[None, :, 0]
        + py[:, None] * b[None, :, 1]
        + pz[:, None] * b[None, :, 2]
    )
    d2_end = np.minimum(da, db)
    return np.where((wa >= 0.0) & (wb >= 0.0) & ok[None, :], d2_arc, d2_end)


def points_min_edge_chord2(px, py, pz, consts) -> np.ndarray:
    """Min chord^2 from each point to any edge.  (m,) for m points, over
    row tiles of at most TILE_PAIRS point-edge pairs (the min is per row,
    so the tiling does not change a bit)."""
    out = np.empty(len(px), dtype=np.float64)
    for rows in row_tiles(len(px), len(consts[0])):
        out[rows] = points_edge_chord2_matrix(
            px[rows], py[rows], pz[rows], consts).min(axis=1)
    return out


def prepare_distance_layer(layer: dict, radius_rad: float, chord2: float,
                           covering_max_cells: int = 48,
                           covering_max_level: int = 14) -> PreparedDistanceLayer:
    from ..functions import cellid as _cellid
    from ..geometry import cell_union
    from ..geometry.coverer import PolygonRegion, RegionCoverer

    rc = RegionCoverer(max_cells=covering_max_cells, max_level=covering_max_level)
    polys, edge_consts, coverings, interiors = {}, {}, {}, {}
    for pid, loops in layer.items():
        poly = loops if isinstance(loops, Polygon) else Polygon.from_loops_latlng_deg(loops)
        polys[pid] = poly
        edge_consts[pid] = edge_constants(poly)
        region = PolygonRegion(poly)
        cov = cell_union.normalize(rc.get_covering(region))
        cov = cell_union.expand_with_radius(cov, radius_rad)
        icov = cell_union.normalize(rc.get_interior_covering(region))
        coverings[pid] = (_cellid.range_min(cov), _cellid.range_max(cov))
        interiors[pid] = (_cellid.range_min(icov), _cellid.range_max(icov))
    out = PreparedDistanceLayer(edge_consts, coverings, interiors, chord2)
    out.polys = polys
    return out


def prepare_polyline_layer(routes: dict, radius_rad: float, chord2: float,
                           covering_max_cells: int = 64,
                           covering_max_level: int = 12):
    """Broadcast state for the route-buffer join: per polyline the edge
    constants and radius-expanded covering ranges (dim-1 region: no
    interior covering, no parity component)."""
    from ..functions import cellid as _cellid
    from ..geometry import cell_union
    from ..geometry.coverer import PolylineRegion, RegionCoverer
    from ..geometry.polyline import Polyline

    rc = RegionCoverer(max_cells=covering_max_cells, max_level=covering_max_level)
    consts, coverings = {}, {}
    for rid, line in routes.items():
        if not isinstance(line, Polyline):
            line = Polyline.from_latlng_deg(np.asarray(line[0]), np.asarray(line[1]))
        consts[rid] = polyline_edge_constants(line)
        cov = cell_union.normalize(rc.get_covering(PolylineRegion(line)))
        cov = cell_union.expand_with_radius(cov, radius_rad)
        coverings[rid] = (_cellid.range_min(cov), _cellid.range_max(cov))
    out = PreparedDistanceLayer(consts, coverings, None, chord2)
    return out


class RouteBufferJoin:
    """Broadcast stage for `exchange.actor_map`: (key, route_id) for points
    within r of a polyline — the 'images within r of route' join (min edge
    chord^2 only; a 1-D region has no interior)."""

    def __init__(self, prepared, key_col: str = "k"):
        import ray

        if isinstance(prepared, ray.ObjectRef):
            prepared = ray.get(prepared)
        self.p = prepared
        self.key_col = key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        lat, lng, leaves = batch_latlng_leaves(batch)
        keys = batch[self.key_col].to_numpy(zero_copy_only=False)

        out_keys, out_rids = [], []
        for rid, _, idx in covering_filter(leaves, self.p.coverings):
            pts = rows_xyz(lat, lng, idx)
            d2 = points_min_edge_chord2(pts[:, 0], pts[:, 1], pts[:, 2],
                                        self.p.edge_consts[rid])
            hit = idx[d2 <= self.p.chord2]
            if hit.size:
                out_keys.append(keys[np.sort(hit)])
                out_rids.append(np.full(hit.size, rid, dtype=object))

        if out_keys:
            k = np.concatenate(out_keys)
            r = np.concatenate(out_rids)
            order = np.argsort(k, kind="stable")
            return pa.table(
                {self.key_col: k[order],
                 "route_id": pa.array(r[order], type=pa.string())}
            )
        return pa.table(
            {self.key_col: pa.array([], type=batch[self.key_col].type),
             "route_id": pa.array([], type=pa.string())}
        )


class WithinDistanceJoin:
    """Broadcast stage for `exchange.actor_map`: (key, polygon_id) for
    points with distance(point, polygon region) <= r."""

    def __init__(self, prepared, key_col: str = "k"):
        import ray

        if isinstance(prepared, ray.ObjectRef):
            prepared = ray.get(prepared)
        self.p = prepared
        self.key_col = key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        lat, lng, leaves = batch_latlng_leaves(batch)
        keys = batch[self.key_col].to_numpy(zero_copy_only=False)

        out_keys, out_pids = [], []
        for pid, accepted, exact_idx in covering_filter(
                leaves, self.p.coverings, self.p.interiors):
            pts = rows_xyz(lat, lng, exact_idx)
            inside = self.p.polys[pid].contains_points(pts)
            near = np.zeros(exact_idx.size, dtype=bool)
            check = ~inside
            if check.any():
                c = pts[check]
                d2 = points_min_edge_chord2(c[:, 0], c[:, 1], c[:, 2],
                                            self.p.edge_consts[pid])
                near[check] = d2 <= self.p.chord2
            hit = np.concatenate([accepted, exact_idx[inside | near]])
            if hit.size:
                hit = np.sort(hit)
                out_keys.append(keys[hit])
                out_pids.append(np.full(hit.size, pid, dtype=object))

        if out_keys:
            k = np.concatenate(out_keys)
            p = np.concatenate(out_pids)
            order = np.argsort(k, kind="stable")
            return pa.table(
                {self.key_col: k[order],
                 "polygon_id": pa.array(p[order], type=pa.string())}
            )
        return pa.table(
            {self.key_col: pa.array([], type=batch[self.key_col].type),
             "polygon_id": pa.array([], type=pa.string())}
        )
