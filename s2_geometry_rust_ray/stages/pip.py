"""Point-in-region JOIN stage (the north-star operator).

Broadcast path (this module): the region layer is tiny relative to the
point table (10^1..10^5 regions vs 10^12 points), so it is prepared ONCE
where the plan is built (`prepare_layer`: coverings memoized per process),
and so is the `PIPJoin` stage that holds it; `run_join` maps the built
stage with `exchange.map_blocks`, which puts it in the object store once
per job.  No task or worker builds it again.  No shuffle (SURVEY.md §2.10).

`PIPJoin` runs a batch in tiles of TILE_ROWS rows.  Per tile and
region, the region's covering picks the candidates, then `refine`: the
interior covering fast-accepts, and the region's exact test runs on the
remaining candidates only, building point geometry for those rows and
tiling its kernel.  So a batch's memory is its columns and matches plus
a per-tile constant, whatever the region, candidate and edge counts.

A region is anything with `contains_points(pts) -> bool`: a Polygon, or
a buffered polygon / polyline (stages/distance.buffered, the distance-r
and route-buffer joins), so one stage serves every broadcast region join.

Shuffle path (pipelines/pip_shuffle.py), for layers too large to
broadcast: the candidate points are range-partitioned on their leaf ids
(bounds from leaf-id quantiles), and each partition runs this `PIPJoin`
over the regions whose coverings meet its range.

Modes: inner (emit (key, region id) match rows), semi (keep matching
points), anti (keep non-matching points).

Caps and lat/lng rects join without coverings (`mask_join`): one row mask
per region, a dot product or a degree comparison per point.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np
import pyarrow as pa

from ..functions import cellid as _cellid
from ..functions.coords import latlng_deg_to_xyz
from ..geometry.loop import Polygon
from ..geometry.polyline import Polyline
from .exchange import known_schema, map_blocks, task, with_schema

# Rows per tile of a PIPJoin batch.  It bounds the per-tile temporaries
# (encode, covering masks, exact-refine points) to ~1 MB.  At 16384 a
# 131072-row batch of the standard layer peaks at 3.3 MB of numpy memory
# (11.4 MB untiled, 5.2 MB at 32768) at about the untiled stage time;
# 4096 and 8192 ran up to 1.5x slower (more per-tile, per-region passes).
TILE_ROWS = 16384


class PreparedLayer:
    """Precomputed broadcast state of a region join, per
    region id: the region (anything with `contains_points`), its covering
    and its interior-covering cell ranges (the S2ShapeIndex equivalent,
    SURVEY §2.7).  Candidate pruning = covering membership; fast-accept =
    interior-covering membership (skip the exact kernel entirely)."""

    digest = None  # memo key of a memoized layer (prepare_layer, distance.buffered)

    def __init__(self, regions, coverings, interiors):
        self.regions = regions
        self.coverings = coverings
        self.interiors = interiors


# memo key -> PreparedLayer memos (prepare_layer: the layer's content
# digest; distance.buffered: the prepared layer's key and the radius).
# Bounded LRUs (a long-lived driver preparing many distinct layers must not
# retain every Polygon + covering forever); 32 entries comfortably covers
# repeated-pipeline reuse.
_PREPARE_CACHE: "OrderedDict[str, PreparedLayer]" = OrderedDict()
_CACHE_MAX = 32


def memoized(cache: OrderedDict, key, build) -> PreparedLayer:
    """`cache[key]`, else `build()` stored there with `digest` set to
    `key`, evicting the least recently used entry beyond _CACHE_MAX."""
    out = cache.get(key)
    if out is not None:
        cache.move_to_end(key)
        return out
    out = cache[key] = build()
    out.digest = key
    while len(cache) > _CACHE_MAX:
        cache.popitem(last=False)
    return out


def _layer_digest(layer: dict, extra: tuple) -> str:
    """Content digest of a region layer (vertex bytes, not object ids) so
    repeated pipelines reuse the driver-side coverer work.  Each id is
    hashed with its type: ids 1 and "1" are different layers.  Ids are
    visited in (type name, repr) order, defined for mixed id types too."""
    h = hashlib.md5(repr(extra).encode())
    for pid in sorted(layer, key=lambda pid: (type(pid).__qualname__, repr(pid))):
        h.update(repr((type(pid).__qualname__, pid)).encode())
        shape = layer[pid]
        if isinstance(shape, Polyline):
            h.update(b"polyline")
            h.update(shape.v.tobytes())
        elif isinstance(shape, Polygon):
            for lp in shape.loops:
                h.update(lp.v.tobytes())
        else:
            for a, b in shape:
                h.update(np.asarray(a, dtype=np.float64).tobytes())
                h.update(np.asarray(b, dtype=np.float64).tobytes())
    return h.hexdigest()


def cell_ranges(ids: np.ndarray):
    """(range_min, range_max) leaf-id ranges of a normalized cell union —
    how a PreparedLayer stores coverings."""
    return _cellid.range_min(ids), _cellid.range_max(ids)


def covering_ids(ranges) -> np.ndarray:
    """The cell ids of `cell_ranges` output: id = rmin + (rmax - rmin) // 2."""
    rmin, rmax = ranges
    return rmin + (rmax - rmin) // np.uint64(2)


def _prepare_one(pid, shape, covering_max_cells: int, covering_max_level: int):
    """(pid, region, covering ranges, interior ranges) of one layer value:
    a Polygon, a list of (lat, lng) loops, or a Polyline (a 1-D region:
    covered along the line, with an empty interior covering)."""
    from ..geometry import cell_union
    from ..geometry.coverer import PolygonRegion, PolylineRegion, RegionCoverer

    rc = RegionCoverer(max_cells=covering_max_cells, max_level=covering_max_level)
    if isinstance(shape, Polyline):
        cov = cell_union.normalize(rc.get_covering(PolylineRegion(shape)))
        return pid, shape, cell_ranges(cov), cell_ranges(cov[:0])
    poly = shape if isinstance(shape, Polygon) else Polygon.from_loops_latlng_deg(shape)
    region = PolygonRegion(poly)
    cov = cell_union.normalize(rc.get_covering(region))
    icov = cell_union.normalize(rc.get_interior_covering(region))
    return pid, poly, cell_ranges(cov), cell_ranges(icov)


def prepare_layer(layer: dict, covering_max_cells: int = 48,
                  covering_max_level: int = 14) -> PreparedLayer:
    """Coverer runs ONCE per distinct layer content (process-level memo)
    and the per-region coverings are computed as PARALLEL Ray tasks —
    driver-side serial coverer time was the dominant cost of small PIP
    jobs (0.60-0.71 s/polygon on one core).  `layer` maps region id ->
    Polygon, list of (lat, lng) loops, or Polyline."""
    def build():
        import ray

        args = [(pid, shape, covering_max_cells, covering_max_level)
                for pid, shape in layer.items()]
        if ray.is_initialized() and len(args) > 2:
            results = ray.get([task(_prepare_one).remote(*a) for a in args])
        else:
            results = [_prepare_one(*a) for a in args]
        regions, coverings, interiors = {}, {}, {}
        for pid, region, cov, icov in results:
            regions[pid] = region
            coverings[pid] = cov
            interiors[pid] = icov
        return PreparedLayer(regions, coverings, interiors)

    key = _layer_digest(layer, (covering_max_cells, covering_max_level))
    return memoized(_PREPARE_CACHE, key, build)


def _ranges_contain(rmin: np.ndarray, rmax: np.ndarray, leaves: np.ndarray) -> np.ndarray:
    """Leaf ids inside any [rmin, rmax] cell range (sorted, disjoint) —
    searchsorted membership, the cell-union pre-filter."""
    if rmin.size == 0:
        return np.zeros(leaves.shape, dtype=bool)
    idx = np.searchsorted(rmax, leaves, side="left")
    ok = idx < rmin.size
    idx = np.minimum(idx, rmin.size - 1)
    return ok & (rmin[idx] <= leaves)


def batch_latlng_leaves(batch: pa.Table):
    """(lat, lng, leaf ids) of a point batch.  The leaves come from the
    `cell_id` column, or from lat/lng when the batch has none."""
    lat = batch["lat"].to_numpy(zero_copy_only=False)
    lng = batch["lng"].to_numpy(zero_copy_only=False)
    if "cell_id" in batch.schema.names:
        leaves = batch["cell_id"].to_numpy(zero_copy_only=False)
    else:
        leaves = _cellid.from_xyz(*latlng_deg_to_xyz(lat, lng))
    return lat, lng, leaves


def refine(region, interior, lat, lng, leaves, rows: np.ndarray) -> np.ndarray:
    """The rows of `rows` (candidate batch rows) that lie inside `region`:
    those whose leaf is in the `interior` ranges, then those of the rest
    that `region.contains_points` accepts.  Point geometry is built for
    the exact-refine rows only, NOT normalized: signs are scale-invariant
    and the raw values are the oracle's bit-exact twins
    (latlng_deg_to_xyz is elementwise, so a subset gives the same bits as
    the whole batch)."""
    accepted = _ranges_contain(*interior, leaves[rows])
    exact = rows[~accepted]
    pts = np.stack(latlng_deg_to_xyz(lat[exact], lng[exact]), axis=-1)
    return np.concatenate([rows[accepted], exact[region.contains_points(pts)]])


class PIPJoin:
    """Broadcast region-join stage, built once where the plan is built and
    run by `run_join`.  `layer` is a PreparedLayer; per tile of a batch,
    each region's covering picks candidates and `refine` keeps those inside.
    Inner mode emits (key_col, id_col) rows sorted by key, then by the
    region's place in the layer, then by row; it needs string region ids
    (the id column is a string column)."""

    def __init__(self, layer: PreparedLayer, key_col: str = "k", mode: str = "inner",
                 id_col: str = "polygon_id"):
        self.layer = layer
        self.key_col = key_col
        self.mode = mode
        self.id_col = id_col
        self.ids = list(layer.coverings)
        if mode == "inner":
            bad = [rid for rid in self.ids if not isinstance(rid, str)]
            if bad:
                raise ValueError(
                    f"inner PIPJoin emits a string {id_col} column, but region id "
                    f"{bad[0]!r} is a {type(bad[0]).__name__}; use str ids")
            self.id_array = pa.array(self.ids, type=pa.string())

    def points(self, tile: pa.Table):
        """(lat, lng, leaf ids) of a tile of a batch."""
        return batch_latlng_leaves(tile)

    def matches(self, batch: pa.Table):
        """(row, region position) of every point inside a region, ordered
        by (position, row); a region's position is its place in
        `layer.coverings`.  One tile of TILE_ROWS rows at a time."""
        layer = self.layer
        hits = [[np.empty(0, dtype=np.int64)] for _ in self.ids]
        for start in range(0, batch.num_rows, TILE_ROWS):
            lat, lng, leaves = self.points(batch.slice(start, TILE_ROWS))
            for rid, region_hits in zip(self.ids, hits):
                cand = _ranges_contain(*layer.coverings[rid], leaves)
                if cand.any():
                    hit = refine(layer.regions[rid], layer.interiors[rid], lat, lng,
                                 leaves, np.flatnonzero(cand))
                    region_hits.append(np.sort(hit) + start)
        rows = [np.concatenate(h) for h in hits]
        pos = np.repeat(np.arange(len(rows)), [r.size for r in rows])
        return np.concatenate([np.empty(0, dtype=np.int64)] + rows), pos

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows, pos = self.matches(batch)
        if self.mode == "inner":
            if rows.size:
                k = batch[self.key_col].take(rows).to_numpy(zero_copy_only=False)
                order = np.argsort(k, kind="stable")
                return pa.table(
                    {self.key_col: k[order], self.id_col: self.id_array.take(pos[order])}
                )
            return pa.table(
                {
                    self.key_col: pa.array([], type=batch[self.key_col].type),
                    self.id_col: pa.array([], type=pa.string()),
                }
            )
        if self.mode in ("semi", "anti"):
            mask = np.zeros(batch.num_rows, dtype=bool)
            mask[rows] = True
            return batch.filter(pa.array(mask if self.mode == "semi" else ~mask))
        raise ValueError(f"unknown mode {self.mode}")


def run_join(ds, join, batch_size: int):
    """A built region-join stage over `ds` (`exchange.map_blocks`): a
    `PIPJoin`, or any batch callable with its `key_col`, `mode` and
    `id_col`.  An empty computed result is one empty block of (key_col,
    the string id column) in inner mode, of the input's schema in semi
    and anti mode (`exchange.with_schema`)."""
    sch = known_schema(ds)
    if sch is not None and join.mode == "inner":
        sch = pa.schema([sch.field(join.key_col), (join.id_col, pa.string())])
    return with_schema(map_blocks(ds, join, batch_size), sch)


def mask_join(batch: pa.Table, key_col: str, masks) -> pa.Table:
    """Stateless region join: (key_col, region_id) rows, from `masks`, an
    iterable of (region id, row mask over `batch`), in its order."""
    ids, hits = [], []
    for rid, mask in masks:
        ids.append(rid)
        hits.append(np.flatnonzero(mask))
    pos = np.repeat(np.arange(len(hits)), [h.size for h in hits])
    rows = np.concatenate([np.empty(0, dtype=np.int64)] + hits)
    return pa.table({key_col: batch[key_col].take(rows),
                     "region_id": pa.array(ids, pa.string()).take(pos)})
