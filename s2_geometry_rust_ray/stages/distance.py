"""Distance-r ("buffered") regions: points within radius r of a polygon
or a polyline.

The headline spatial op after PIP (VERDICT r1 #4): (key, region id) for
every point whose spherical distance to the REGION is <= r — inside the
polygon, or within r of its edges.  A buffered layer is derived from a
prepared one (stages/pip.prepare_layer, so the coverer work is shared
with the plain PIP join through its memo) and joined by the one
broadcast region join, stages/pip.PIPJoin:

  * prefilter: the covering EXPANDED by r
    (geometry/cell_union.expand_with_radius — canonical
    S2CellUnion::Expand(S1Angle); port src/cell_union.rs:427-467);
  * fast-accept: the unexpanded interior covering (inside => distance 0;
    a polyline has none);
  * exact refine (`BufferedRegion.contains_points`): crossing-parity
    containment, then min point-to-edge chord^2 <= chord^2(r) for the
    points outside, with the edge kernel written in explicit
    left-associated mul/adds over DRIVER-PRECOMPUTED per-edge constants
    (n, n x a, b x n, |n|^2) so the DuckDB oracle
    (oracle/pip_sql.q_within_distance_join, q_route_buffer_join)
    reproduces every float bit.  This is the compare_edge_distance
    predicate family (src/predicates.rs:503-562) specialised to a fixed
    chord^2 threshold, where exact-arithmetic tiers are unnecessary
    because chord^2 is totally ordered and the threshold comparison is
    reproduced bit-for-bit by the oracle.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..geometry.loop import Polygon, row_tiles
from .pip import PreparedLayer, cell_ranges, covering_ids, memoized


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


class BufferedRegion:
    """A polygon or polyline grown by a chord^2 radius: a point is inside
    if the shape contains it (never, for a polyline) or its min edge
    chord^2 is <= `chord2`."""

    def __init__(self, shape, chord2: float):
        self.shape = shape
        self.edge_consts = (edge_constants(shape) if isinstance(shape, Polygon)
                            else polyline_edge_constants(shape))
        self.chord2 = chord2

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        inside = self.shape.contains_points(pts)
        check = ~inside
        if check.any():
            c = pts[check]
            d2 = points_min_edge_chord2(c[:, 0], c[:, 1], c[:, 2], self.edge_consts)
            inside[check] = d2 <= self.chord2
        return inside


_BUFFER_CACHE: "OrderedDict[tuple, PreparedLayer]" = OrderedDict()


def buffered(prepared: PreparedLayer, radius_rad: float) -> PreparedLayer:
    """The layer of points within `radius_rad` of each region of
    `prepared`: coverings expanded by the radius, interiors kept.
    Memoized by the prepared layer's content digest and the radius when
    the layer has one (it came from prepare_layer or buffered), like
    prepare_layer's memo: the expansion costs ~2.5 s for the standard
    layer at 1.5 degrees on one core."""
    from ..geometry import cell_union
    from ..geometry.cap import chord2_from_radians

    def build():
        chord2 = chord2_from_radians(radius_rad)
        coverings = {
            rid: cell_ranges(cell_union.expand_with_radius(covering_ids(r), radius_rad))
            for rid, r in prepared.coverings.items()
        }
        return PreparedLayer(
            {rid: BufferedRegion(r, chord2) for rid, r in prepared.regions.items()},
            coverings, prepared.interiors)

    if prepared.digest is None:
        return build()
    return memoized(_BUFFER_CACHE, (prepared.digest, float(radius_rad)), build)
