"""Point-in-polygon / region JOIN stages (the north-star operator).

Broadcast path (this module): the polygon layer is tiny relative to the
point table (10^1..10^5 polygons vs 10^12 points), so it is broadcast ONCE
per worker — `ray.put(layer_spec)` on the driver, then `exchange.actor_map`
(a task-pool map) builds the Loop/Polygon state once per worker process
and caches the instance.  Every batch runs the covering filter, then a
vectorized (points x edges) crossing-parity refine on the candidates the
interior covering did not accept; the refine builds point geometry for
those rows only and tiles its kernel, so its memory is bounded whatever
the candidate and edge counts.  No shuffle at all.  (SURVEY.md §2.10
"Joins/lookups".)

Shuffle path (pipelines/pip.py builds it from the coverer): explode polygon
coverings at level K -> equi-join on cell_lK -> exact refine — for layers
too large to broadcast.

Modes: inner (emit (key, polygon_id) match rows), semi (keep matching
points), anti (keep non-matching points).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.coords import latlng_deg_to_xyz
from ..geometry.loop import Polygon


class PreparedLayer:
    """Driver-side precomputed broadcast state for the PIP join: polygons +
    covering / interior-covering cell ranges (the S2ShapeIndex equivalent,
    SURVEY §2.7).  Candidate pruning = covering membership; fast-accept =
    interior-covering membership (skip the exact kernel entirely)."""

    def __init__(self, polys, coverings, interiors):
        self.polys = polys
        self.coverings = coverings
        self.interiors = interiors


# content-digest -> PreparedLayer memo.  Bounded LRU (a long-lived driver
# preparing many distinct layers must not retain every Polygon + covering
# forever); 32 entries comfortably covers repeated-pipeline reuse.
from collections import OrderedDict

_PREPARE_CACHE: "OrderedDict[str, PreparedLayer]" = OrderedDict()
_PREPARE_CACHE_MAX = 32


def _layer_digest(layer: dict, extra: tuple) -> str:
    """Content digest of a polygon layer (vertex bytes, not object ids) so
    repeated pipelines reuse the driver-side coverer work."""
    import hashlib

    h = hashlib.md5(repr(extra).encode())
    for pid in sorted(layer):
        h.update(str(pid).encode())
        loops = layer[pid]
        if isinstance(loops, Polygon):
            for lp in loops.loops:
                h.update(lp.v.tobytes())
        else:
            for a, b in loops:
                h.update(np.asarray(a, dtype=np.float64).tobytes())
                h.update(np.asarray(b, dtype=np.float64).tobytes())
    return h.hexdigest()


def _prepare_one(pid, loops, covering_max_cells: int, covering_max_level: int):
    from ..functions import cellid as _cellid
    from ..geometry import cell_union
    from ..geometry.coverer import PolygonRegion, RegionCoverer

    rc = RegionCoverer(max_cells=covering_max_cells, max_level=covering_max_level)
    poly = loops if isinstance(loops, Polygon) else Polygon.from_loops_latlng_deg(loops)
    region = PolygonRegion(poly)
    cov = cell_union.normalize(rc.get_covering(region))
    icov = cell_union.normalize(rc.get_interior_covering(region))
    return (
        pid,
        poly,
        (_cellid.range_min(cov), _cellid.range_max(cov)),
        (_cellid.range_min(icov), _cellid.range_max(icov)),
    )


def prepare_layer(layer: dict, covering_max_cells: int = 48,
                  covering_max_level: int = 14) -> PreparedLayer:
    """Coverer runs ONCE per distinct layer content (process-level memo)
    and the per-polygon coverings are computed as PARALLEL Ray tasks —
    driver-side serial coverer time was the dominant cost of small PIP
    jobs (~350 ms/polygon)."""
    key = _layer_digest(layer, (covering_max_cells, covering_max_level))
    cached = _PREPARE_CACHE.get(key)
    if cached is not None:
        _PREPARE_CACHE.move_to_end(key)
        return cached

    import ray

    items = list(layer.items())
    if ray.is_initialized() and len(items) > 2:
        prep = ray.remote(_prepare_one)
        results = ray.get([
            prep.remote(pid, loops, covering_max_cells, covering_max_level)
            for pid, loops in items
        ])
    else:
        results = [
            _prepare_one(pid, loops, covering_max_cells, covering_max_level)
            for pid, loops in items
        ]
    polys, coverings, interiors = {}, {}, {}
    for pid, poly, cov, icov in results:
        polys[pid] = poly
        coverings[pid] = cov
        interiors[pid] = icov
    out = PreparedLayer(polys, coverings, interiors)
    _PREPARE_CACHE[key] = out
    while len(_PREPARE_CACHE) > _PREPARE_CACHE_MAX:
        _PREPARE_CACHE.popitem(last=False)
    return out


def _ranges_contain(rmin: np.ndarray, rmax: np.ndarray, leaves: np.ndarray) -> np.ndarray:
    """Leaf ids inside any [rmin, rmax] cell range (sorted, disjoint) —
    searchsorted membership, the cell-union pre-filter."""
    if rmin.size == 0:
        return np.zeros(leaves.shape, dtype=bool)
    idx = np.searchsorted(rmax, leaves, side="left")
    ok = idx < rmin.size
    idx = np.minimum(idx, rmin.size - 1)
    return ok & (rmin[idx] <= leaves)


def _face_ij_of(x, y, z):
    from ..functions import coords

    face, u, v = coords.xyz_to_face_uv(x, y, z)
    return face, coords.st_to_ij(coords.uv_to_st(u)), coords.st_to_ij(coords.uv_to_st(v))


def batch_latlng_leaves(batch: pa.Table):
    """(lat, lng, leaf ids) of a point batch.  The leaves come from the
    `cell_id` column, or from lat/lng when the batch has none."""
    from ..functions import cellid as _cellid

    lat = batch["lat"].to_numpy(zero_copy_only=False)
    lng = batch["lng"].to_numpy(zero_copy_only=False)
    if "cell_id" in batch.schema.names:
        leaves = batch["cell_id"].to_numpy(zero_copy_only=False)
    else:
        leaves = _cellid.from_face_ij(*_face_ij_of(*latlng_deg_to_xyz(lat, lng)))
    return lat, lng, leaves


def rows_xyz(lat: np.ndarray, lng: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(len(rows), 3) points of the selected rows — built for refine
    candidates only.  NOT normalized: signs are scale-invariant and the
    raw values are the oracle's bit-exact twins (latlng_deg_to_xyz is
    elementwise, so a subset gives the same bits as the whole batch)."""
    return np.stack(latlng_deg_to_xyz(lat[rows], lng[rows]), axis=-1)


def covering_filter(leaves: np.ndarray, coverings: dict, interiors: dict | None = None):
    """The broadcast joins' shared cell filter.  Yields, per region whose
    covering holds any leaf, (region_id, accepted, refine): the batch rows
    fast-accepted by the region's interior covering and the rows left for
    its exact refine (every candidate when `interiors` is None)."""
    for rid, (rmin, rmax) in coverings.items():
        cand = _ranges_contain(rmin, rmax, leaves)
        if not cand.any():
            continue
        idx = np.nonzero(cand)[0]
        if interiors is None:
            yield rid, idx[:0], idx
            continue
        accepted = _ranges_contain(*interiors[rid], leaves[idx])
        yield rid, idx[accepted], idx[~accepted]


class PIPJoin:
    """Broadcast stage: callable class for `exchange.actor_map` (a task-pool
    map that constructs it once per worker and caches the instance).  The
    layer is either an ObjectRef to put()-data, a PreparedLayer, or a plain
    dict of {polygon_id: [ [(lat,lng),...] loop, ... ]}.  Per batch the
    covering filter picks candidates and the exact refine builds point
    geometry for the non-fast-accepted candidates only, in bounded memory
    (Loop.contains_points tiles its kernel)."""

    def __init__(self, layer, key_col: str = "k", mode: str = "inner"):
        import ray

        if isinstance(layer, ray.ObjectRef):
            layer = ray.get(layer)
        # unpack geometry state ONCE per worker; coverings are computed
        # ONCE on the driver (prepare_layer) and broadcast — a worker must
        # not re-run the coverer
        prepared = layer if isinstance(layer, PreparedLayer) else prepare_layer(layer)
        self.polys = prepared.polys
        self.coverings = prepared.coverings
        self.interiors = prepared.interiors
        self.key_col = key_col
        self.mode = mode

    def __call__(self, batch: pa.Table) -> pa.Table:
        lat, lng, leaves = batch_latlng_leaves(batch)
        keys = batch[self.key_col].to_numpy(zero_copy_only=False)

        out_keys = []
        out_pids = []
        any_match = np.zeros(len(keys), dtype=bool)
        for pid, accepted, exact_idx in covering_filter(
                leaves, self.coverings, self.interiors):
            pts = rows_xyz(lat, lng, exact_idx)
            inside_exact = self.polys[pid].contains_points(pts)
            hit = np.concatenate([accepted, exact_idx[inside_exact]])
            if self.mode == "inner" and hit.size:
                hit = np.sort(hit)
                out_keys.append(keys[hit])
                out_pids.append(np.full(hit.size, pid, dtype=object))
            any_match[hit] = True

        if self.mode == "inner":
            if out_keys:
                k = np.concatenate(out_keys)
                p = np.concatenate(out_pids)
                order = np.argsort(k, kind="stable")
                return pa.table(
                    {self.key_col: k[order], "polygon_id": pa.array(p[order], type=pa.string())}
                )
            return pa.table(
                {
                    self.key_col: pa.array([], type=batch[self.key_col].type),
                    "polygon_id": pa.array([], type=pa.string()),
                }
            )
        if self.mode == "semi":
            return batch.filter(pa.array(any_match))
        if self.mode == "anti":
            return batch.filter(pa.array(~any_match))
        raise ValueError(f"unknown mode {self.mode}")


def cap_join(batch: pa.Table, caps: dict[str, "object"], key_col: str = "k") -> pa.Table:
    """Stateless region join vs a dict of Caps: emits (key, region_id)."""
    lat = batch["lat"].to_numpy(zero_copy_only=False)
    lng = batch["lng"].to_numpy(zero_copy_only=False)
    x, y, z = latlng_deg_to_xyz(lat, lng)
    keys = batch[key_col].to_numpy(zero_copy_only=False)
    out_k, out_r = [], []
    for rid, cap in caps.items():
        m = cap.contains_xyz(x, y, z)
        if m.any():
            out_k.append(keys[m])
            out_r.append(np.full(int(m.sum()), rid, dtype=object))
    if out_k:
        k = np.concatenate(out_k)
        r = np.concatenate(out_r)
        return pa.table({key_col: k, "region_id": pa.array(r, type=pa.string())})
    return pa.table(
        {key_col: pa.array([], type=batch[key_col].type),
         "region_id": pa.array([], type=pa.string())}
    )


def rect_join(batch: pa.Table, rects: dict[str, "object"], key_col: str = "k") -> pa.Table:
    """Stateless region join vs LatLngRects (degree-space comparisons)."""
    lat = batch["lat"].to_numpy(zero_copy_only=False)
    lng = batch["lng"].to_numpy(zero_copy_only=False)
    keys = batch[key_col].to_numpy(zero_copy_only=False)
    out_k, out_r = [], []
    for rid, rect in rects.items():
        m = rect.contains_latlng_deg(lat, lng)
        if m.any():
            out_k.append(keys[m])
            out_r.append(np.full(int(m.sum()), rid, dtype=object))
    if out_k:
        k = np.concatenate(out_k)
        r = np.concatenate(out_r)
        return pa.table({key_col: k, "region_id": pa.array(r, type=pa.string())})
    return pa.table(
        {key_col: pa.array([], type=batch[key_col].type),
         "region_id": pa.array([], type=pa.string())}
    )
