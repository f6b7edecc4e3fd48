"""Raster <-> vector conversion (north_rule operator; absent from the
reference — composed from cell algebra + boundary tracing per SURVEY §2.10).

rasterize: region -> the set of level-L cells intersecting it ("cells as
pixels"); `mode='centers'` gives the H3-polyfill-like center-containment
raster instead.

vectorize: set of same-level cells -> boundary loops (CCW, interior-left)
by tracing the shared-corner graph of boundary edges.  Cube-face seams are
exact: face_uv_to_xyz produces bit-identical corner coordinates from both
adjacent faces, so corners key exactly with no tolerance.

Distributed variant: for giant rasters the boundary-edge extraction
(cell -> 4 neighbors, membership via sorted search) is a row-local map over
the cell table + a groupby on corner keys; the final loop-walk runs on the
(boundary-sized, not area-sized) edge set.
"""

from __future__ import annotations

import numpy as np

from ..functions import cellid
from .cell import Cell
from .coverer import RegionCoverer

U = np.uint64


def rasterize(region, level: int, mode: str = "intersects") -> np.ndarray:
    """All level-L cells for the region (sorted uint64)."""
    cov = RegionCoverer(
        max_cells=10_000_000, min_level=level, max_level=level
    ).get_covering(region)
    if mode == "centers":
        x, y, z = cellid.to_xyz(cov)
        n = np.sqrt(x * x + y * y + z * z)
        pts = np.stack([x / n, y / n, z / n], axis=-1)
        keep = np.array([region.contains_point(p) for p in pts])
        cov = cov[keep]
    return np.sort(cov)


def _cell_corners(cells: np.ndarray) -> np.ndarray:
    """(n, 4, 3) corner xyz (normalized), CCW: (u_lo,v_lo) (u_hi,v_lo)
    (u_hi,v_hi) (u_lo,v_hi)."""
    out = np.zeros((len(cells), 4, 3))
    for i, c in enumerate(cells):
        out[i] = Cell(int(c)).vertices()
    return out


def boundary_edges(cells: np.ndarray) -> list[tuple[tuple, tuple]]:
    """Directed boundary segments (a, b) with the raster interior on the
    left.  cells must all be the same level."""
    cells = np.sort(np.asarray(cells, dtype=U))
    if cells.size == 0:
        return []
    nbrs = cellid.edge_neighbors(cells)  # (n,4): down,right,up,left
    member = np.isin(nbrs, cells)
    corners = _cell_corners(cells)
    # edge k of the CCW corner walk faces neighbor k:
    # down=(v0,v1), right=(v1,v2), up=(v2,v3), left=(v3,v0)
    segs = []
    for i in range(len(cells)):
        for k in range(4):
            if not member[i, k]:
                a = tuple(corners[i, k])
                b = tuple(corners[i, (k + 1) % 4])
                segs.append((a, b))
    return segs


def vectorize(cells: np.ndarray) -> list[np.ndarray]:
    """Cell set -> closed boundary loops, each an (m, 3) xyz array (CCW,
    interior-left).  Multiple loops for disconnected rasters / holes."""
    segs = boundary_edges(cells)
    out_edges: dict[tuple, list[int]] = {}
    for idx, (a, b) in enumerate(segs):
        out_edges.setdefault(a, []).append(idx)
    used = [False] * len(segs)
    loops = []
    for start_idx in range(len(segs)):
        if used[start_idx]:
            continue
        a0, b = segs[start_idx]
        used[start_idx] = True
        loop = [a0]
        guard = 0
        while b != a0 and guard <= len(segs):
            loop.append(b)
            cand = [i for i in out_edges.get(b, []) if not used[i]]
            if not cand:
                break
            # at pinch vertices (two outgoing edges) any consistent choice
            # closes both loops; take the first unused
            nxt_idx = cand[0]
            used[nxt_idx] = True
            b = segs[nxt_idx][1]
            guard += 1
        if b == a0 and len(loop) >= 3:
            loops.append(np.array(loop))
    return loops


def boolean_op(region_a, region_b, op: str, level: int) -> np.ndarray:
    """Approximate boolean ops via center-containment rasters at level L
    (the reference's S2BooleanOperation is entirely absent — placeholder
    tests only, tests/test_s2boolean_operation_port.rs:5-8; this composes
    the semantics from cell algebra per SURVEY §2.10).  Error is bounded by
    one cell width at level L.  Returns sorted level-L cells."""
    ra = rasterize(region_a, level, mode="centers")
    rb = rasterize(region_b, level, mode="centers")
    if op == "union":
        return np.union1d(ra, rb)
    if op == "intersection":
        return np.intersect1d(ra, rb)
    if op == "difference":
        return np.setdiff1d(ra, rb)
    if op == "symmetric_difference":
        return np.setxor1d(ra, rb)
    raise ValueError(op)


def vectorize_to_polygon(cells: np.ndarray):
    """Cell set -> even-odd Polygon of its boundary loops.

    Even-odd contains() equals crossing parity from S2::Origin XOR'd with
    the loops' combined origin_inside; boundary tracing directs every loop
    with the RASTER interior on the left, so hole loops wind 'backwards'
    for the Loop abstraction.  We repair the parity constant globally:
    if XOR(origin_inside) disagrees with whether the raster actually
    contains Origin (an exact cell-union test), inverting any single loop
    flips it — crossing parity itself is direction-independent."""
    from ..functions import predicates as pred
    from . import cell_union
    from .loop import Loop, Polygon

    loops = [Loop(arr) for arr in vectorize(cells)]
    xor_oi = False
    for lp in loops:
        xor_oi ^= lp.origin_inside
    origin_leaf = cellid.from_xyz(
        np.array([pred.ORIGIN[0]]), np.array([pred.ORIGIN[1]]), np.array([pred.ORIGIN[2]])
    )
    origin_in_raster = bool(
        cell_union.contains_ids(cell_union.normalize(np.asarray(cells, U)), origin_leaf)[0]
    )
    if xor_oi != origin_in_raster and loops:
        loops[0] = Loop(loops[0].v[::-1].copy())
    return Polygon(loops)
