"""Tile-assignment pipelines: encode points -> groupby S2 cell -> tile stats.

The first shuffle of the engine (SURVEY.md §7.3): groupby key is the parent
cell `cell_l{K}`.  At 100 TB the groupby is preceded by a *partial* per-batch
combine (one row per tile per batch) so the all-to-all exchange moves tile
partials, not raw rows — between 100x and 10^5x less data depending on K.
Hot tiles (urban clusters) are handled by the partial combine itself: a batch
contributes at most one row per tile regardless of skew.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import cellid
from ..stages import agg
from ..stages.encode import geotag_and_encode

BATCH_SIZE = 32768  # rows per tile_counts encode + combine batch


def tokenize(key_col: str, token_col: str, carry, decode=cellid.from_sort_key):
    """Grouped-reduce finish: int64 key column `key_col` -> 16-hex
    `token_col` (`decode` maps a key back to its uint64 id: from_sort_key
    for S2 cells, the raw uint64 view for H3), then the `carry` columns
    ({src: out}, or names kept as-is).  Every tile pipeline builds its
    token here, so the format cannot diverge between them.  A zero-row
    table gives the typed empty result (carried columns default to
    int64)."""
    if not isinstance(carry, dict):
        carry = {c: c for c in carry}

    def fn(t: pa.Table) -> pa.Table:
        keys = agg.column(t, key_col).to_numpy(zero_copy_only=False)
        cols = {token_col: cellid.to_hex(decode(keys))}
        for src, out in carry.items():
            cols[out] = agg.column(t, src)
        return pa.table(cols)

    return fn


def tile_partial_counts(level: int):
    """Per-batch combiner: cell_id column -> one (tile, partial n) row per
    distinct tile in the batch.  This is the map-side combine that makes the
    global groupby small."""

    def fn(batch: pa.Table) -> pa.Table:
        cid = batch["cell_id"].to_numpy(zero_copy_only=False)
        tiles = cellid.to_sort_key(cellid.parent(cid, level))
        uniq, counts = np.unique(tiles, return_counts=True)
        return pa.table({"tile": uniq, "n_partial": counts.astype(np.int64)})

    return fn


def tile_counts(
    ds: "ray.data.Dataset",
    key_col: str,
    level: int,
    final=None,
) -> "ray.data.Dataset":
    """key -> geotag -> leaf cell -> tile counts at `level`.

    Returns a Dataset with columns (tile_token:str, n:int64), also for an
    empty input, hash-partitioned by tile and in no global order.  The
    groupby is agg.reduce_by_key over the map-side partial counts.  The
    encode and per-slice tile count run inside the reduce's map-side
    combine (its `prepare`) and the token inside each partition task
    (`tokenize` as the finish), so the query is one Ray Data execution
    over a lazy input and none over a computed one (stages/agg.py).
    `final` is accepted and ignored, like `agg.reduce_by_key`'s: the
    benchmark harness still passes the old ``final="hash"``.
    """
    enc = geotag_and_encode(key_col)
    tp = tile_partial_counts(level)
    return agg.reduce_by_key(
        ds, "tile", ["n_partial"],
        finish=tokenize("tile", "tile_token", {"n_partial": "n"}),
        prepare=lambda b: tp(enc(b)), batch_size=BATCH_SIZE,
    )


def face_histogram(ds: "ray.data.Dataset", key_col: str) -> "ray.data.Dataset":
    """Rows per cube face — minimal smoke aggregate over the encode kernel."""

    def partial(batch: pa.Table) -> pa.Table:
        batch = geotag_and_encode(key_col, with_face=True)(batch)
        face = batch["face"].to_numpy(zero_copy_only=False)
        uniq, counts = np.unique(face, return_counts=True)
        return pa.table({"face": uniq, "n": counts.astype(np.int64)})

    return agg.reduce_by_key(ds, "face", ["n"], prepare=partial)


def cap_bounds(ds: "ray.data.Dataset", key_col: str, level: int = 5,
               num_parts: int | None = None) -> "ray.data.Dataset":
    """Per-tile BOUNDING-CAP aggregate (S2Cap::add_point folded in key
    order, src/cap.rs:285-295): for each level-K tile, the cap anchored at
    the min-key point whose radius covers every point in the tile.
    Output (tile_token, keep_key, n, r2) — r2 is the squared-chord radius,
    pure +-*/ arithmetic, so the SQL oracle (min-key anchor via argmin +
    MAX of the same chord^2 expression) matches bit-exactly.  Anchoring at
    the min-key point makes the fold order-independent, unlike raw C++
    add_point over arbitrary insertion order."""
    from ..functions.coords import latlng_deg_to_xyz
    from ..stages import exchange

    def project(batch: pa.Table) -> pa.Table:
        batch = geotag_and_encode(key_col)(batch)
        cid = batch["cell_id"].to_numpy(zero_copy_only=False)
        tiles = cellid.to_sort_key(cellid.parent(cid, level))
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lng = batch["lng"].to_numpy(zero_copy_only=False)
        x, y, z = latlng_deg_to_xyz(lat, lng)
        return pa.table(
            {"tile": tiles, "key": batch[key_col].to_numpy(zero_copy_only=False),
             "x": x, "y": y, "z": z}
        )

    if num_parts is None:
        num_parts = exchange.default_num_parts()
    to_token = tokenize("tile", "tile_token", ["keep_key", "n", "r2"])

    def per_partition(tbl: pa.Table) -> pa.Table:
        empty = pa.table(
            {"tile_token": pa.array([], pa.string()),
             "keep_key": pa.array([], pa.int64()),
             "n": pa.array([], pa.int64()),
             "r2": pa.array([], pa.float64())}
        )
        if tbl.num_rows == 0:
            return empty
        t = tbl["tile"].to_numpy(zero_copy_only=False)
        k = tbl["key"].to_numpy(zero_copy_only=False)
        x = tbl["x"].to_numpy(zero_copy_only=False)
        y = tbl["y"].to_numpy(zero_copy_only=False)
        z = tbl["z"].to_numpy(zero_copy_only=False)
        order = np.lexsort((k, t))
        t, k, x, y, z = t[order], k[order], x[order], y[order], z[order]
        uniq, starts, counts = np.unique(t, return_index=True, return_counts=True)
        # anchor = first row of each segment (min key after the lexsort)
        cx = np.repeat(x[starts], counts)
        cy = np.repeat(y[starts], counts)
        cz = np.repeat(z[starts], counts)
        dx, dy, dz = x - cx, y - cy, z - cz
        c2 = (dx * dx + dy * dy) + dz * dz
        r2 = np.maximum.reduceat(c2, starts)
        return to_token(pa.table(
            {"tile": uniq, "keep_key": k[starts],
             "n": counts.astype(np.int64), "r2": r2}
        ))

    # fused exchange: the geotag+encode+project runs inside the split
    # task, the per-tile cap fold in the shard-concat task (one plasma
    # round-trip for the 5-column payload).  Split tasks see WHOLE
    # blocks, so the projection runs on 64k-row slices, a bound on the
    # geotag+encode temporaries (several float64 arrays per row).
    return exchange.hash_exchange_apply(
        ds, "tile", num_parts, per_partition,
        map_fn=exchange.in_slices(project, 65536),
    )


def snap_dedup(
    ds: "ray.data.Dataset", key_col: str, level: int = 16
) -> "ray.data.Dataset":
    """Near-duplicate geotag dedup by snap-to-cell (S2CellIdSnapFunction
    semantics, src/builder/snap_functions.rs:217-290): rows sharing the
    level-K cell collapse to (snap_token, keep_key=min, n)."""

    def partial(batch: pa.Table) -> pa.Table:
        batch = geotag_and_encode(key_col)(batch)
        cid = batch["cell_id"].to_numpy(zero_copy_only=False)
        snap = cellid.to_sort_key(cellid.parent(cid, level))
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        return pa.table(
            {"snap": snap, "keep_key": keys,
             "n": np.ones(len(keys), dtype=np.int64)}
        )

    return agg.reduce_by_key(
        ds, "snap", {"keep_key": "min", "n": "sum"},
        finish=tokenize("snap", "snap_token", ["keep_key", "n"]),
        prepare=partial,
    )


def h3_tile_counts(
    ds: "ray.data.Dataset", key_col: str, res: int
) -> "ray.data.Dataset":
    """H3-parity tile assignment: key -> geotag -> h3 cell at `res` ->
    counts.  Same reduce_by_key shape as the S2 path (hash-partitioned,
    in no global order), keyed by h3_cell viewed as int64 (uint64 < 2^55,
    so the view is lossless and the token decodes it back)."""
    from ..functions import geo, h3

    def partial(batch: pa.Table) -> pa.Table:
        key = batch[key_col].to_numpy(zero_copy_only=False)
        lat, lng = geo.derive_latlng(key)
        cells = h3.latlng_to_h3(lat, lng, res).view(np.int64)
        uniq, counts = np.unique(cells, return_counts=True)
        return pa.table({"h3_cell": uniq, "n_partial": counts.astype(np.int64)})

    return agg.reduce_by_key(
        ds, "h3_cell", ["n_partial"],
        finish=tokenize("h3_cell", "h3_token", {"n_partial": "n"},
                        decode=lambda k: k.view(np.uint64)),
        prepare=partial, batch_size=131072,
    )


def cell_encode_table(
    ds: "ray.data.Dataset", key_col: str, key_name: str
) -> "ray.data.Dataset":
    """Per-row encode result (key, lat, lng, face, cell_token) — the
    oracle-compared per-row pipeline."""

    def fn(batch: pa.Table) -> pa.Table:
        batch = geotag_and_encode(key_col, with_face=True, with_token=True)(batch)
        return pa.table(
            {
                key_name: batch[key_col],
                "lat": batch["lat"],
                "lng": batch["lng"],
                "face": batch["face"],
                "cell_token": batch["cell_token"],
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")
