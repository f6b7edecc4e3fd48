"""The S2 query system — specified by the reference's placeholder tests
(/root/reference/tests/test_s2query_system_port.rs:13-311, all
#[should_panic] because the Rust port never implemented it) with canonical
API semantics from the vendored C++ (s2closest_point_query.h:37-189,
s2closest_edge_query.h, s2contains_point_query.h, s2convex_hull_query.h).

Point queries (S2ClosestPointQuery) are the distributed kNN pipelines
(pipelines/knn.py); this module holds the edge/cell/hull queries that run
against broadcast geometry, built once where the plan is built.
"""

from __future__ import annotations

import numpy as np

from ..functions import predicates as pred
from .cell import Cell


def _edges_of(geom) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) edge endpoint arrays for Loop / Polygon / Polyline."""
    from .loop import Loop, Polygon
    from .polyline import Polyline

    if isinstance(geom, Polygon):
        a = np.concatenate([lp.v for lp in geom.loops])
        b = np.concatenate([lp.vnext for lp in geom.loops])
    elif isinstance(geom, Loop):
        a, b = geom.v, geom.vnext
    elif isinstance(geom, Polyline):
        a, b = geom.v[:-1], geom.v[1:]
    else:
        raise TypeError(type(geom))
    return a, b


def _edge_chord2_matrix(geom, pts: np.ndarray) -> np.ndarray:
    """(n_pts, n_edges) chord^2 matrix via the shared vectorized kernel
    (stages/distance.points_edge_chord2_matrix) — the ONE point-to-edge
    implementation in the engine."""
    from ..stages.distance import _edge_consts_from_ab, points_edge_chord2_matrix

    a, b = _edges_of(geom)
    consts = _edge_consts_from_ab(a, b)
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    return points_edge_chord2_matrix(pts[:, 0], pts[:, 1], pts[:, 2], consts)


def closest_edge_query(geom, pts: np.ndarray, max_results: int = 1,
                       max_distance: float | None = None):
    """S2ClosestEdgeQuery semantics: for each query point the nearest
    edge(s) of `geom`, sorted by distance; optional max_distance (radians)
    filter.  Returns list per point of (edge_index, chord2)."""
    d2_mat = _edge_chord2_matrix(geom, pts)
    max_c2 = None
    if max_distance is not None:
        from .cap import chord2_from_radians

        max_c2 = chord2_from_radians(max_distance)
    out = []
    for d2 in d2_mat:
        order = np.argsort(d2, kind="stable")
        res = []
        for e in order[:max_results]:
            if max_c2 is not None and d2[e] > max_c2:
                break
            res.append((int(e), float(d2[e])))
        out.append(res)
    return out


def _point_to_arc_max_chord2(c: np.ndarray, a: np.ndarray, b: np.ndarray,
                             n: np.ndarray) -> float:
    """MAX squared-chord distance from point c to arc (a,b): the farthest
    great-circle point is the negated in-plane projection of c; if the arc
    wedge contains it, 2 + 2*sqrt(1-w^2) with w = c.n_hat, else the
    farther endpoint."""
    import math

    nn = float(n @ n)
    if nn > 0.0:
        cn = float(c @ n)
        cp = c - (cn / nn) * n
        norm = float(np.linalg.norm(cp))
        if norm > 0.0:
            q = -cp / norm
            if float(np.dot(np.cross(a, q), n)) >= 0.0 and float(
                np.dot(np.cross(q, b), n)
            ) >= 0.0:
                w = cn / math.sqrt(nn)
                w = max(-1.0, min(1.0, w))
                return 2.0 + 2.0 * math.sqrt(max(0.0, 1.0 - w * w))
    return float(max(((c - a) ** 2).sum(), ((c - b) ** 2).sum()))


def furthest_edge_query(geom, pts: np.ndarray, max_results: int = 1):
    """S2FurthestEdgeQuery (the one query-system member the reference
    never implemented — tests/test_s2query_system_port.rs:241-259): for
    each query point the farthest edge(s), sorted by DESCENDING chord^2.
    Returns list per point of (edge_index, chord2)."""
    a, b = _edges_of(geom)
    normals = np.cross(a, b)
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    out = []
    for p in pts:
        d2 = np.array(
            [_point_to_arc_max_chord2(p, a[e], b[e], normals[e]) for e in range(len(a))]
        )
        order = np.argsort(-d2, kind="stable")
        out.append([(int(e), float(d2[e])) for e in order[:max_results]])
    return out


def distance_to_boundary(geom, pts: np.ndarray) -> np.ndarray:
    """Min chord^2 from each point to the geometry's boundary (canonical
    point<->edge great-circle distance — the port uses vertex-only distance,
    src/loop.rs:541-547; SURVEY §0).  Routed through the shared vectorized
    kernel; no per-(point, edge) scalar loop."""
    return _edge_chord2_matrix(geom, pts).min(axis=1)


def crossing_edge_query(geom, c: np.ndarray, d: np.ndarray,
                        include_touching: bool = False) -> list[int]:
    """S2CrossingEdgeQuery: indices of `geom` edges crossing segment (c,d);
    include_touching adds shared-vertex / vertex-crossing contacts.

    Walks each loop/polyline as a CHAIN through an EdgeCrosser fixed at
    (c,d): sign((c,d), vertex) is computed once per chain vertex instead
    of twice per edge (the S2EdgeCrosser amortization, canonical
    s2edge_crosser.h; see functions/predicates.EdgeCrosser)."""
    from .loop import Loop, Polygon
    from .polyline import Polyline

    if isinstance(geom, Polygon):
        chains = [(lp.v, True) for lp in geom.loops]
    elif isinstance(geom, Loop):
        chains = [(geom.v, True)]
    elif isinstance(geom, Polyline):
        chains = [(geom.v, False)]
    else:
        raise TypeError(type(geom))
    crosser = pred.EdgeCrosser(c, d)
    hits = []
    base = 0
    for verts, closed in chains:
        n = len(verts)
        n_edges = n if closed else n - 1
        crosser.restart_at(verts[0])
        for e in range(n_edges):
            nxt = verts[(e + 1) % n]
            cs = crosser.crossing_sign_chain(nxt)
            if cs > 0 or (
                include_touching
                and cs == 0
                and pred.vertex_crossing(verts[e], nxt, c, d)
            ):
                hits.append(base + e)
        base += n_edges
    return hits


def contains_point_query(geom, pts: np.ndarray, vertex_model: str = "semi_open"):
    """S2ContainsPointQuery with OPEN/SEMI_OPEN/CLOSED vertex models
    (s2contains_point_query.h).  SEMI_OPEN is the crossing-parity default;
    CLOSED additionally accepts points exactly on vertices/edges, OPEN
    rejects them."""
    from .loop import Polygon

    poly = geom if isinstance(geom, Polygon) else Polygon([geom])
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    base = poly.contains_points(pts)
    if vertex_model == "semi_open":
        return base
    a, b = _edges_of(poly)
    on_boundary = np.zeros(pts.shape[0], dtype=bool)
    for i, p in enumerate(pts):
        for e in range(len(a)):
            if np.array_equal(p, a[e]) or np.array_equal(p, b[e]):
                on_boundary[i] = True
                break
            # on-edge test: collinear (sign==0 exactly) and within the arc
            if pred.sign(a[e], b[e], p) == 0 or (
                pred.exact_sign(a[e], b[e], p, perturb=False) == 0
                and float(np.dot(np.cross(a[e], p), np.cross(a[e], b[e]))) >= 0
                and float(np.dot(np.cross(p, b[e]), np.cross(a[e], b[e]))) >= 0
            ):
                on_boundary[i] = True
                break
    if vertex_model == "closed":
        return base | on_boundary
    if vertex_model == "open":
        return base & ~on_boundary
    raise ValueError(vertex_model)


def convex_hull_query(pts: np.ndarray) -> np.ndarray:
    """S2ConvexHullQuery: convex hull vertex chain (CCW) of points that fit
    in a hemisphere — incremental Graham scan with the robust Sign
    predicate around the centroid direction."""
    pts = np.asarray(pts, dtype=np.float64)
    c = pts.mean(axis=0)
    n = np.linalg.norm(c)
    if n == 0:
        raise ValueError("points not hemisphere-bounded")
    c = c / n
    # sort by angle in the tangent frame at c
    u = pred.ortho(c)
    v = np.cross(c, u)
    ang = np.arctan2(pts @ v, pts @ u)
    order = np.argsort(ang, kind="stable")
    sorted_pts = pts[order]
    hull: list[np.ndarray] = []
    for p in sorted_pts:
        while len(hull) >= 2 and pred.sign(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    # wrap-around fix
    changed = True
    while changed and len(hull) > 2:
        changed = False
        if pred.sign(hull[-2], hull[-1], hull[0]) <= 0:
            hull.pop()
            changed = True
        elif pred.sign(hull[-1], hull[0], hull[1]) <= 0:
            hull.pop(0)
            changed = True
    return np.array(hull)


def closest_cell_distance(cell_id: int, p: np.ndarray) -> float:
    """S2ClosestCellQuery primitive: chord^2 from point to a cell (0 if
    inside)."""
    from ..stages.distance import _edge_consts_from_ab, points_min_edge_chord2

    cell = Cell(int(cell_id))
    if cell.contains_point(p):
        return 0.0
    verts = cell.vertices()
    nxt = np.roll(verts, -1, axis=0)
    consts = _edge_consts_from_ab(verts, nxt)
    p = np.asarray(p, dtype=np.float64)
    return float(points_min_edge_chord2(p[0:1], p[1:2], p[2:3], consts)[0])
