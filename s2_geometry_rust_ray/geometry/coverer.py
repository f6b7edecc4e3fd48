"""S2RegionCoverer — region -> normalized set of covering cells.

Canonical algorithm per /root/reference/src/region_coverer.rs:459-733 (BFS
from the 6 face cells, priority queue preferring larger cells with fewer
intersecting children, subdivision until max_cells) with the C++ containment
test (region.contains_cell) instead of the port's vertex-only shortcut
(:769-778, SURVEY.md §0).

Regions implement: may_intersect_cell(cell) (conservative TRUE allowed) and
contains_cell(cell) (conservative FALSE allowed) — soundness: the covering
always covers the region; interior coverings contain only cells fully
inside.

Runs per-region as a plain Python function: the polygon layer has 10^1..10^5
rows vs 10^12 points, so coverings are computed once per region, never per
point: `stages/pip.prepare_layer` runs one Ray task per region (memoized per
process by layer content).
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from ..functions import cellid
from . import cell_union
from .cap import Cap
from .cell import Cell
from .loop import Loop, Polygon
from .rect import LatLngRect

U = np.uint64


# ---------------------------------------------------------------------------
# Region adapters
# ---------------------------------------------------------------------------

def _point_to_arc_chord2(c: np.ndarray, a: np.ndarray, b: np.ndarray, n: np.ndarray) -> float:
    """Min squared-chord distance from point c to great-circle arc (a,b)
    with precomputed (un-normalized) normal n = a x b."""
    nn = float(n @ n)
    if nn == 0.0:
        return float(min(((c - a) ** 2).sum(), ((c - b) ** 2).sum()))
    # is the perpendicular projection inside the arc wedge?
    if float(np.dot(np.cross(a, c), n)) >= 0.0 and float(np.dot(np.cross(c, b), n)) >= 0.0:
        w = float(c @ n) / math.sqrt(nn)
        w = max(-1.0, min(1.0, w))
        return 2.0 - 2.0 * math.sqrt(max(0.0, 1.0 - w * w))
    return float(min(((c - a) ** 2).sum(), ((c - b) ** 2).sum()))


class CapRegion:
    def __init__(self, cap: Cap):
        self.cap = cap

    def may_intersect_cell(self, cell: Cell) -> bool:
        if self.cap.is_empty():
            return False
        if self.cap.is_full():
            return True
        verts = cell.vertices()
        ins = self.cap.contains_xyz(verts[:, 0], verts[:, 1], verts[:, 2])
        if ins.any():
            return True
        if cell.contains_point(self.cap.center):
            return True
        nxt = np.roll(verts, -1, axis=0)
        normals = np.cross(verts, nxt)
        for e in range(4):
            if _point_to_arc_chord2(self.cap.center, verts[e], nxt[e], normals[e]) <= self.cap.r2:
                return True
        return False

    def contains_cell(self, cell: Cell) -> bool:
        if self.cap.is_full():
            return True
        if self.cap.is_empty():
            return False
        verts = cell.vertices()
        return bool(
            self.cap.contains_xyz(verts[:, 0], verts[:, 1], verts[:, 2]).all()
        )

    def contains_point(self, p) -> bool:
        return bool(self.cap.contains_xyz(p[0], p[1], p[2]))


class RectRegion:
    def __init__(self, rect: LatLngRect):
        self.rect = rect

    def may_intersect_cell(self, cell: Cell) -> bool:
        lat, lng = cell.get_rect_bound()
        return self.rect.intersects(LatLngRect(lat, lng))

    def contains_cell(self, cell: Cell) -> bool:
        lat, lng = cell.get_rect_bound()
        return self.rect.contains_rect(LatLngRect(lat, lng))

    def contains_point(self, p) -> bool:
        lat = math.atan2(p[2], math.hypot(p[0], p[1]))
        lng = math.atan2(p[1], p[0])
        return bool(self.rect.lat.contains(lat) and self.rect.lng.contains(lng))


class PolygonRegion:
    """Exact loop-vs-cell tests, vectorized: all (loop edge x cell edge)
    crossing orientations come from four sign matrices (float triage, exact
    fallback only for inconclusive pairs) — same structure as the PIP
    kernel in geometry/loop.py."""

    def __init__(self, poly: Polygon | Loop):
        self.poly = poly if isinstance(poly, Polygon) else Polygon([poly])
        lat, lng = self.poly.bound()
        self._bound = LatLngRect(lat, lng)
        self._va = np.concatenate([lp.v for lp in self.poly.loops])
        self._vb = np.concatenate([lp.vnext for lp in self.poly.loops])
        self._en = np.concatenate([lp.edge_normals for lp in self.poly.loops])

    def _any_edge_crossing(self, cell_verts: np.ndarray) -> bool:
        from ..functions import predicates as pred

        cv_next = np.roll(cell_verts, -1, axis=0)
        cn = np.cross(cell_verts, cv_next)  # (4,3) cell edge normals
        acb = -pred.triage_sign(self._en @ cell_verts.T)  # (E,4): -Sign(a,b,c)
        bda = pred.triage_sign(self._en @ cv_next.T)
        cbd = -pred.triage_sign((cn @ self._vb.T).T)  # (E,4): -Sign(c,d,b)
        dac = pred.triage_sign((cn @ self._va.T).T)  # (E,4): Sign(c,d,a)
        crossing = (acb == bda) & (acb == cbd) & (acb == dac) & (acb != 0)
        if crossing.any():
            return True
        uncertain = (acb == 0) | (bda == 0) | (cbd == 0) | (dac == 0)
        if uncertain.any():
            for e, k in zip(*np.nonzero(uncertain)):
                if (
                    pred.crossing_sign(
                        self._va[e], self._vb[e], cell_verts[k], cv_next[k]
                    )
                    >= 0
                ):
                    return True
        return False

    def _any_loop_vertex_in_cell(self, cell: Cell) -> bool:
        from ..functions import coords

        v = self._va
        # half-space check for the cell's face, then uv bounds (vectorized
        # C++ FaceXYZtoUV over the vertex array)
        f = cell.face
        axis = f % 3
        comp = v[:, axis]
        valid = comp > 0 if f < 3 else comp < 0
        if not valid.any():
            return False
        vv = v[valid]
        u, w = coords.valid_face_xyz_to_uv(
            np.full(len(vv), f, dtype=np.int64), vv[:, 0], vv[:, 1], vv[:, 2]
        )
        return bool(
            (
                (u >= cell.u_lo) & (u <= cell.u_hi)
                & (w >= cell.v_lo) & (w <= cell.v_hi)
            ).any()
        )

    def may_intersect_cell(self, cell: Cell) -> bool:
        lat, lng = cell.get_rect_bound()
        if not self._bound.intersects(LatLngRect(lat, lng)):
            return False
        verts = cell.vertices()
        if self.poly.contains_points(verts).any():
            return True
        if self._any_loop_vertex_in_cell(cell):
            return True
        return self._any_edge_crossing(verts)

    def contains_cell(self, cell: Cell) -> bool:
        verts = cell.vertices()
        if not self.poly.contains_points(verts).all():
            return False
        if self._any_loop_vertex_in_cell(cell):
            return False
        return not self._any_edge_crossing(verts)

    def contains_point(self, p) -> bool:
        return bool(self.poly.contains_points(np.asarray(p)[None, :])[0])


# ---------------------------------------------------------------------------
# The coverer
# ---------------------------------------------------------------------------

class PolylineRegion:
    """Dim-1 region adapter for route/linear-feature coverings: a cell may
    intersect iff it holds a polyline vertex or a polyline edge crosses a
    cell edge; no cell is ever CONTAINED by a 1-D region, so the coverer
    subdivides to its level limits along the line (S2Polyline-as-region
    semantics).  Borrows PolygonRegion's vectorized edge-crossing kernel."""

    def __init__(self, line):
        self.line = line
        self._va = line.v[:-1]
        self._vb = line.v[1:]
        self._en = np.cross(self._va, self._vb)

    _any_edge_crossing = PolygonRegion._any_edge_crossing

    def may_intersect_cell(self, cell: Cell) -> bool:
        for p in self.line.v:
            if cell.contains_point(p):
                return True
        return self._any_edge_crossing(cell.vertices())

    def contains_cell(self, cell: Cell) -> bool:
        return False


class RegionCoverer:
    """max_cells default 8, level_mod in {1,2,3}
    (src/region_coverer.rs:204-309)."""

    def __init__(self, max_cells=8, min_level=0, max_level=30, level_mod=1):
        assert 1 <= level_mod <= 3
        self.max_cells = max_cells
        self.min_level = min_level
        self.max_level = max_level
        self.level_mod = level_mod

    def _adjust_level(self, level: int) -> int:
        if self.level_mod > 1 and level > self.min_level:
            level -= (level - self.min_level) % self.level_mod
        return level

    def is_canonical(self, ids: np.ndarray) -> bool:
        """True iff the covering satisfies the coverer's constraints
        (src/region_coverer.rs:511-534): <= max_cells, every level in
        [min_level, max_level] with (level - min_level) % level_mod == 0,
        and already normalized."""
        ids = np.asarray(ids, dtype=np.uint64)
        if ids.size > self.max_cells:
            return False
        lv = cellid.level(ids)
        if (lv < self.min_level).any() or (lv > self.max_level).any():
            return False
        if ((lv.astype(np.int64) - self.min_level) % self.level_mod != 0).any():
            return False
        return np.array_equal(
            cell_union.normalize(ids, self.min_level, self.level_mod), ids
        )

    def canonicalize_covering(self, ids: np.ndarray) -> np.ndarray:
        """Adjust a covering to satisfy the constraints WITHOUT shrinking
        coverage (canonical s2region_coverer.cc CanonicalizeCovering — the
        port's variant at src/region_coverer.rs:537-596 truncates cells and
        loses coverage, one of its documented simplifications):

          * too-coarse cells (level < min_level) are replaced by their
            descendants at the first allowed level;
          * too-fine / off-mod cells are replaced by the nearest allowed
            ANCESTOR (coverage can only grow);
          * while over max_cells, merge the pair of adjacent cells with
            the deepest lowest-common-ancestor into that ancestor.
        """
        ids = cell_union.normalize(np.asarray(ids, dtype=np.uint64))
        U = np.uint64
        out: list[int] = []
        for cid in ids.tolist():
            lv = int(cellid.level(np.array([cid], U))[0])
            if lv < self.min_level:
                # descend: exact-coverage replacement by children
                frontier = [cid]
                while int(cellid.level(np.array([frontier[0]], U))[0]) < self.min_level:
                    frontier = [
                        int(ch)
                        for c in frontier
                        for ch in cellid.children(np.array([c], U))[0]
                    ]
                out.extend(frontier)
            else:
                tgt = self._adjust_level(min(lv, self.max_level))
                if tgt != lv:
                    cid = int(cellid.parent(np.array([cid], U), tgt)[0])
                out.append(cid)
        ids = cell_union.normalize(
            np.array(out, dtype=U), self.min_level, self.level_mod
        )
        # reduce count by merging at the deepest common ancestor
        while ids.size > self.max_cells:
            best_i, best_lvl = -1, -2
            for i in range(ids.size - 1):
                lvl = common_ancestor_level(int(ids[i]), int(ids[i + 1]))
                if lvl > best_lvl:
                    best_i, best_lvl = i, lvl
            if best_lvl < self.min_level:
                break  # cannot merge further within constraints
            anc_lvl = self._adjust_level(best_lvl)
            anc = cellid.parent(ids[best_i : best_i + 1], anc_lvl)
            ids = cell_union.normalize(
                np.concatenate([ids, anc]), self.min_level, self.level_mod
            )
        return ids

    def _covering(self, region, interior: bool) -> np.ndarray:
        counter = itertools.count()
        result: list[int] = []
        heap: list = []

        def make(cid: int):
            cell = Cell(cid)
            if not region.may_intersect_cell(cell):
                return None
            terminal = False
            if cell.level >= self.min_level:
                if interior:
                    if region.contains_cell(cell):
                        terminal = True
                    elif cell.level + self.level_mod > self.max_level:
                        return None
                else:
                    if cell.level + self.level_mod > self.max_level or region.contains_cell(cell):
                        terminal = True
            return cell, terminal

        def child_ids(cell: Cell, num_levels: int) -> list[int]:
            ids = [cell.id]
            for _ in range(num_levels):
                nxt = []
                for cid in ids:
                    nxt.extend(int(c) for c in cellid.children(np.array([cid], U))[0])
                ids = nxt
            return ids

        def push(cand):
            cell, terminal = cand
            if terminal:
                result.append(cell.id)
                return
            num_levels = self.level_mod if cell.level >= self.min_level else 1
            kids = [c for c in child_ids(cell, num_levels)
                    if region.may_intersect_cell(Cell(c))]
            heapq.heappush(heap, (cell.level, len(kids), next(counter), cell, kids))

        for f in range(6):
            cand = make(int(cellid.from_face(np.array([f]))[0]))
            if cand:
                push(cand)

        while heap:
            if interior and len(result) >= self.max_cells:
                break
            level, nkids, _, cell, kids = heapq.heappop(heap)
            if (
                cell.level < self.min_level
                or nkids == 1
                or len(result) + len(heap) + nkids <= self.max_cells
            ):
                for ch in kids:
                    cand = make(ch)
                    if cand:
                        push(cand)
            elif interior:
                continue
            else:
                result.append(cell.id)

        ids = np.array(result, dtype=U)
        if self.min_level > 0 or self.level_mod > 1:
            # plain sort/dedup/drop-contained (no sibling merge, which could
            # violate min_level / level_mod)
            ids = np.unique(ids)
            if ids.size:
                rmax = cellid.range_max(ids)
                run = np.maximum.accumulate(rmax)
                keep = np.ones(ids.size, dtype=bool)
                keep[1:] = rmax[1:] > run[:-1]
                ids = ids[keep]
            return ids
        return cell_union.normalize(ids)

    def get_covering(self, region) -> np.ndarray:
        return self._covering(region, interior=False)

    def get_interior_covering(self, region) -> np.ndarray:
        return self._covering(region, interior=True)

    def get_fast_covering(self, region) -> np.ndarray:
        """API-parity alias: the reference's get_fast_covering is literally
        get_covering (/root/reference/src/region_coverer.rs:499-503 — no
        separate fast path exists there either)."""
        return self.get_covering(region)


def common_ancestor_level(a: int, b: int) -> int:
    """Level of the lowest common ancestor of two cell ids, or -1 for
    different faces (C++ S2CellId::GetCommonAncestorLevel)."""
    import numpy as _np

    aa = _np.array([a], dtype=_np.uint64)
    bb = _np.array([b], dtype=_np.uint64)
    bits = max(int(aa[0] ^ bb[0]), int(cellid.lsb(aa)[0]), int(cellid.lsb(bb)[0]))
    msb = bits.bit_length() - 1
    lvl = (60 - msb) >> 1
    return lvl if lvl >= 0 else -1
