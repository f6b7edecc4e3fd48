"""S2Polyline — vertex-chain ops per /root/reference/src/polyline.rs:101-374:
length, arc-length interpolation, closest-point projection, intersects.
Used for linear-feature layers (project imagery onto routes, dim-1
rasterization)."""

from __future__ import annotations

import numpy as np

from ..functions import predicates as pred


class Polyline:
    def __init__(self, vertices: np.ndarray):
        v = np.asarray(vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 2:
            raise ValueError("polyline needs >= 2 xyz vertices")
        self.v = v
        a, b = v[:-1], v[1:]
        dots = np.clip((a * b).sum(axis=1), -1.0, 1.0)
        self.edge_angles = np.arccos(dots)
        self.cum = np.concatenate([[0.0], np.cumsum(self.edge_angles)])

    @classmethod
    def from_latlng_deg(cls, lat_deg, lng_deg):
        from .loop import latlng_deg_to_unit_xyz

        return cls(latlng_deg_to_unit_xyz(np.asarray(lat_deg), np.asarray(lng_deg)))

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        """A 1-D region contains no point (S2Polyline::Contains is always
        false); the region-join refine calls this like Polygon's."""
        return np.zeros(len(pts), dtype=bool)

    def get_length(self) -> float:
        """Total arc length in radians (src/polyline.rs get_length)."""
        return float(self.cum[-1])

    def interpolate(self, fraction: float) -> np.ndarray:
        """Point at `fraction` of total arc length (slerp within the edge;
        src/polyline.rs interpolate / src/point.rs:148-176)."""
        fraction = min(max(fraction, 0.0), 1.0)
        target = fraction * self.cum[-1]
        e = int(np.searchsorted(self.cum[1:], target, side="right"))
        e = min(e, len(self.edge_angles) - 1)
        seg = self.edge_angles[e]
        t = 0.0 if seg == 0 else (target - self.cum[e]) / seg
        a, b = self.v[e], self.v[e + 1]
        if seg == 0:
            return a
        out = (np.sin((1 - t) * seg) * a + np.sin(t * seg) * b) / np.sin(seg)
        return out / np.linalg.norm(out)

    def project(self, pts: np.ndarray):
        """Vectorized closest point on the polyline for each query point:
        returns (closest_xyz (m,3), edge_index (m,), chord2 (m,))."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        m = pts.shape[0]
        best_d2 = np.full(m, np.inf)
        best_pt = np.zeros((m, 3))
        best_e = np.zeros(m, dtype=np.int64)
        for e in range(len(self.edge_angles)):
            a, b = self.v[e], self.v[e + 1]
            n = np.cross(a, b)
            nn = float(n @ n)
            if nn == 0.0:
                cand = np.broadcast_to(a, pts.shape)
            else:
                # perpendicular foot if within the arc wedge, else endpoints
                w = (pts @ n) / np.sqrt(nn)
                foot = pts - w[:, None] * (n / np.sqrt(nn))
                norms = np.linalg.norm(foot, axis=1)
                norms[norms == 0] = 1.0
                foot = foot / norms[:, None]
                in_wedge = (np.cross(a, foot) @ n >= 0) & (np.cross(foot, b) @ n >= 0)
                da = ((pts - a) ** 2).sum(axis=1)
                db = ((pts - b) ** 2).sum(axis=1)
                endpoint = np.where(da[:, None] <= db[:, None], a, b)
                cand = np.where(in_wedge[:, None], foot, endpoint)
            d2 = ((pts - cand) ** 2).sum(axis=1)
            upd = d2 < best_d2
            best_d2 = np.where(upd, d2, best_d2)
            best_pt = np.where(upd[:, None], cand, best_pt)
            best_e = np.where(upd, e, best_e)
        return best_pt, best_e, best_d2

    def intersects(self, other: "Polyline") -> bool:
        """Any edge pair crossing (robust predicates)."""
        for e in range(len(self.edge_angles)):
            for f in range(len(other.edge_angles)):
                if (
                    pred.crossing_sign(
                        self.v[e], self.v[e + 1], other.v[f], other.v[f + 1]
                    )
                    >= 0
                ):
                    return True
        return False

    def reverse(self) -> "Polyline":
        return Polyline(self.v[::-1].copy())
