"""S2Loop / S2Polygon with a VECTORIZED point-in-polygon kernel.

Canonical semantics (crossing parity from S2::Origin with cached
origin_inside) per C++ s2loop.cc BruteForceContains / InitOriginAndBound —
the Rust port's sign-sum winding heuristic (src/loop.rs:380-394) is one of
its documented simplifications and is NOT reproduced (SURVEY.md §0).

The kernel evaluates all four crossing orientation signs for (points x
edges) with two matmuls, one row tile of at most TILE_PAIRS pairs at a
time, so its memory is constant however many points and edges.  Pairs
whose float triage is inconclusive (|det| <= 3.6548*eps — <1% in
practice, src/lib.rs:71) are re-evaluated with exact rational predicates +
Simulation-of-Simplicity (functions/predicates.py), so results are
deterministic and boundary cases (point == vertex, point on edge) follow
C++ semantics exactly.
"""

from __future__ import annotations

import math

import numpy as np

from ..functions import predicates as pred
from ..functions.coords import latlng_deg_to_xyz
from .interval import PI, R1Interval, S1Interval


# Point-edge pairs one kernel tile evaluates: the (points x edges)
# temporaries stay a few MB whatever the candidate and edge counts.
TILE_PAIRS = 1 << 16


def row_tiles(m: int, cols: int) -> list[slice]:
    """Row slices covering m rows, each at most TILE_PAIRS // cols rows
    (at least one row)."""
    step = max(1, TILE_PAIRS // max(1, cols))
    return [slice(lo, lo + step) for lo in range(0, m, step)]


def latlng_deg_to_unit_xyz(lat_deg, lng_deg):
    x, y, z = latlng_deg_to_xyz(np.asarray(lat_deg, float), np.asarray(lng_deg, float))
    v = np.stack([x, y, z], axis=-1)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class Loop:
    """Single CCW loop (interior on the left); shell or hole of a polygon.

    vertices: (n,3) float64 unit vectors, n >= 3, no duplicates, no
    degenerate edges (validate() checks; src/loop.rs:123-175).
    """

    def __init__(self, vertices: np.ndarray):
        v = np.asarray(vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 3:
            raise ValueError("loop needs >=3 xyz vertices")
        self.v = v
        self.vnext = np.roll(v, -1, axis=0)
        self.edge_normals = np.cross(self.v, self.vnext)  # (n,3), un-normalized
        # dac[e] = Sign(v_e, v_e+1, ORIGIN), robust (never 0)
        dets = self.edge_normals @ pred.ORIGIN
        dac = pred.triage_sign(dets)
        for e in np.nonzero(dac == 0)[0]:
            dac[e] = pred.sign(self.v[e], self.vnext[e], pred.ORIGIN)
        self.dac = dac.astype(np.int64)
        self.origin_inside = self._init_origin_inside()
        self.bound = self._compute_rect_bound()

    @classmethod
    def from_latlng_deg(cls, lat_deg, lng_deg):
        return cls(latlng_deg_to_unit_xyz(np.asarray(lat_deg), np.asarray(lng_deg)))

    # -- init ---------------------------------------------------------------

    def _init_origin_inside(self) -> bool:
        """C++ s2loop.cc InitOriginAndBound: guess outside, check vertex 1."""
        v0, v1, v2 = self.v[0], self.v[1], self.v[2]
        v1_inside = (
            not np.array_equal(v0, v1)
            and not np.array_equal(v2, v1)
            and pred.angle_contains_vertex(v0, v1, v2)
        )
        self.origin_inside = False
        contains_v1 = bool(self.contains_points(v1[None, :])[0])
        return bool(v1_inside != contains_v1)

    def _compute_rect_bound(self):
        """Conservative lat/lng bound: vertex extremes + per-edge latitude
        extrema + pole containment (C++ RectBounder semantics with a margin;
        the bound is only a pruning device — exactness comes from contains)."""
        x, y, z = self.v[:, 0], self.v[:, 1], self.v[:, 2]
        lats = np.arctan2(z, np.sqrt(x * x + y * y))
        lngs = np.arctan2(y, x)
        lat_iv = R1Interval(float(lats.min()), float(lats.max()))
        lng_iv = S1Interval.empty()
        for e in range(len(self.v)):
            lng_iv = lng_iv.union(
                S1Interval.from_point_pair(float(lngs[e]), float(lngs[(e + 1) % len(self.v)]))
            )
        # per-edge latitude extrema: the great circle with normal n attains
        # |lat| = atan2(hypot(nx,ny) ... ) at m = +-((z*|n|^2 - n*nz)); include
        # if the extremum point lies on the (minor) edge arc.
        for e in range(len(self.v)):
            n = self.edge_normals[e]
            nn = float(n @ n)
            if nn == 0.0:
                continue
            for sgn in (1.0, -1.0):
                m = sgn * (np.array([0.0, 0.0, 1.0]) * nn - n * float(n[2]))
                norm = np.linalg.norm(m)
                if norm == 0.0:
                    continue
                m = m / norm
                a, b = self.v[e], self.vnext[e]
                if float(np.dot(np.cross(a, m), n)) >= 0.0 and float(
                    np.dot(np.cross(m, b), n)
                ) >= 0.0:
                    mlat = math.atan2(m[2], math.hypot(m[0], m[1]))
                    lat_iv = lat_iv.add_point(mlat)
        # pole containment adjustments
        north = np.array([[0.0, 0.0, 1.0]])
        south = np.array([[0.0, 0.0, -1.0]])
        full_lng = False
        if bool(self.contains_points(north)[0]):
            lat_iv = R1Interval(lat_iv.lo, PI / 2)
            full_lng = True
        if bool(self.contains_points(south)[0]):
            lat_iv = R1Interval(-PI / 2, lat_iv.hi)
            full_lng = True
        if full_lng:
            lng_iv = S1Interval.full()
        else:
            lng_iv = lng_iv.expanded(1e-13)
        lat_iv = R1Interval(
            max(lat_iv.lo - 1e-13, -PI / 2), min(lat_iv.hi + 1e-13, PI / 2)
        )
        return lat_iv, lng_iv

    # -- queries ------------------------------------------------------------

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        """(m,3) unit points -> bool (m,).  Crossing parity from ORIGIN,
        evaluated over row tiles of at most TILE_PAIRS point-edge pairs, so
        the kernel's memory is constant in m (rows are independent: the
        result does not depend on the tiling)."""
        pts = np.asarray(pts, dtype=np.float64)
        parity = np.empty(pts.shape[0], dtype=bool)
        for rows in row_tiles(pts.shape[0], self.v.shape[0]):
            parity[rows] = self._crossing_parity(pts[rows])
        return np.logical_xor(parity, self.origin_inside)

    def _crossing_parity(self, pts: np.ndarray) -> np.ndarray:
        """Odd number of edge crossings on the segment ORIGIN -> p, per row
        of one tile."""
        ov = np.cross(np.broadcast_to(pred.ORIGIN, pts.shape), pts)  # (m,3)
        # A[i,j] = det(O, p_i, v_j) = (O x p_i) . v_j.  Written as explicit
        # left-associated mul/adds (not BLAS matmul) so the DuckDB PIP oracle
        # (ox*vx + oy*vy + oz*vz) reproduces every float bit-exactly.
        A = (
            ov[:, 0, None] * self.v[None, :, 0]
            + ov[:, 1, None] * self.v[None, :, 1]
            + ov[:, 2, None] * self.v[None, :, 2]
        )
        sA = pred.triage_sign(A)
        sA_next = np.roll(sA, -1, axis=1)
        acb = -sA
        bda = sA_next
        # B[i,e] = det(v_e, v_e+1, p_i) = n_e . p_i
        B = (
            pts[:, 0, None] * self.edge_normals[None, :, 0]
            + pts[:, 1, None] * self.edge_normals[None, :, 1]
            + pts[:, 2, None] * self.edge_normals[None, :, 2]
        )
        sB = pred.triage_sign(B)
        cbd = -sB
        crossing = (
            (acb == bda) & (acb == cbd) & (acb == self.dac[None, :]) & (acb != 0)
        )
        uncertain = (sA == 0) | (sA_next == 0) | (sB == 0)
        parity = ((crossing & ~uncertain).sum(axis=1) & 1) == 1
        # exact slow path for inconclusive (point, edge) pairs; i indexes
        # this tile's rows of both pts and parity
        if uncertain.any():
            rows, cols = np.nonzero(uncertain)
            for i, e in zip(rows.tolist(), cols.tolist()):
                p = pts[i]
                if np.array_equal(p, pred.ORIGIN):
                    continue  # degenerate query segment: parity contribution 0
                if pred.edge_or_vertex_crossing(
                    pred.ORIGIN, p, self.v[e], self.vnext[e]
                ):
                    parity[i] ^= True
        return parity

    def contains_latlng_deg(self, lat_deg, lng_deg):
        return self.contains_points(latlng_deg_to_unit_xyz(lat_deg, lng_deg))

    def bound_contains_latlng_rad(self, lat_rad, lng_rad):
        """Vectorized conservative bbox test (pre-filter)."""
        lat_iv, lng_iv = self.bound
        lat_ok = (lat_rad >= lat_iv.lo) & (lat_rad <= lat_iv.hi)
        if lng_iv.is_full():
            return lat_ok
        if lng_iv.is_empty():
            return np.zeros_like(lat_ok)
        if lng_iv.is_inverted():
            lng_ok = (lng_rad >= lng_iv.lo) | (lng_rad <= lng_iv.hi)
        else:
            lng_ok = (lng_rad >= lng_iv.lo) & (lng_rad <= lng_iv.hi)
        return lat_ok & lng_ok

    def num_vertices(self):
        return len(self.v)


class Polygon:
    """Shell + holes with even-odd semantics (C++ S2Polygon::Contains ==
    XOR of loop containment over all loops; src/polygon_shape.rs:13-313)."""

    def __init__(self, loops: list[Loop]):
        if not loops:
            raise ValueError("polygon needs >= 1 loop")
        self.loops = loops

    @classmethod
    def from_loops_latlng_deg(cls, loops_latlng):
        """loops_latlng: list of (lat_list, lng_list) pairs, shell first."""
        return cls([Loop.from_latlng_deg(np.asarray(a), np.asarray(b)) for a, b in loops_latlng])

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        inside = np.zeros(pts.shape[0], dtype=bool)
        for lp in self.loops:
            inside ^= lp.contains_points(pts)
        return inside

    def bound(self):
        """Union of shell bounds (holes don't extend the bound)."""
        lat = R1Interval.empty()
        lng = S1Interval.empty()
        for lp in self.loops:
            lat_iv, lng_iv = lp.bound
            lat = lat.union(lat_iv)
            lng = lng.union(lng_iv)
        return lat, lng


def validate_loop(vertices: np.ndarray) -> str | None:
    """Returns an error string or None (src/loop.rs:123-175 semantics:
    >=3 vertices, unit length, no duplicate adjacent vertices, no
    degenerate (antipodal-adjacent) edges, no self-intersections)."""
    v = np.asarray(vertices, dtype=np.float64)
    if v.shape[0] < 3:
        return "loop must have >= 3 vertices"
    norms = np.linalg.norm(v, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-12):
        return "vertices must be unit length"
    nxt = np.roll(v, -1, axis=0)
    if np.any(np.all(v == nxt, axis=1)):
        return "duplicate adjacent vertices"
    if np.any(np.all(v == -nxt, axis=1)):
        return "degenerate (antipodal) edge"
    n = v.shape[0]
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = v[j], v[(j + 1) % n]
            if pred.crossing_sign(a, b, c, d) > 0:
                return f"edges {i} and {j} cross"
    return None
