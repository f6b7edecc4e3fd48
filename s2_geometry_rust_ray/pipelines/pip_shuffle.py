"""Shuffle-path PIP join: covering-explode equi-join + exact refine.

The broadcast join (pipelines/pip.py) ships the whole polygon layer to
every actor — right for small layers.  This path handles layers too large
to broadcast: polygons are EXPLODED into their level-K covering tiles and
hash-partition-joined against the points' cell_lK column; only then does
the exact crossing-parity refine run, on (candidate point, polygon) pairs
co-located by the join.  Skew note: a hot tile (dense city) explodes one
level deeper before the join when its candidate count dominates
(stages/exchange.salted_cell_key is the generic mechanism; here fan-out is
bounded by the covering granularity).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import cellid
from ..stages import exchange
from ..stages.encode import geotag_and_encode

U = np.uint64


def _key_hash(k: np.ndarray) -> np.ndarray:
    """Deterministic uint64 mix of a point-key array, used to derive a
    row's salt slot: golden-ratio multiply-shift for integer keys,
    pd.util.hash_array for strings (stable across workers, unlike the
    PYTHONHASHSEED-randomized builtin).  The hash only spreads rows over
    salt slots — the join runs on the TRUE tile — so any deterministic
    mix keeps the output invariant.  Floats (Arrow's spelling of
    nullable ints) are rejected loudly."""
    k = np.asarray(k)
    if k.dtype.kind in "iu":
        return (k.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                >> np.uint64(33))
    if k.dtype.kind in "OUS":
        import pandas as pd

        return pd.util.hash_array(k).astype(np.uint64)
    raise TypeError(
        f"shuffle_pip_join needs an integer or string point key for "
        f"salting; got dtype {k.dtype}"
    )


def _drop_contained(ids: np.ndarray) -> np.ndarray:
    """Keep only cells not contained in another cell of the set (sort by
    (range_min asc, range_max desc) and sweep) — containment dedup
    WITHOUT the canonical quad-merge (merging 4 grid-level siblings would
    produce an off-grid parent the point side never probes)."""
    rmin = cellid.range_min(ids)
    rmax = cellid.range_max(ids)
    kmax = cellid.to_sort_key(rmax)
    kmin = cellid.to_sort_key(rmin)
    # rmax DESC via bitwise NOT (~k = -k-1, strictly monotone-decreasing on
    # int64) — a float64 negation would collapse distinct 64-bit keys whose
    # difference is below the 53-bit mantissa into ties, letting a contained
    # cell sort first and survive the sweep
    order = np.lexsort((~kmax, kmin))
    keep, hi = [], None
    for i in order.tolist():
        if hi is not None and kmax[i] <= hi:
            continue  # contained in the previously kept cell
        keep.append(i)
        hi = kmax[i]
    return ids[np.array(keep, dtype=np.int64)]


def covering_tiles(layer: dict, level: int, max_cells: int = 48,
                   with_geometry: bool = False,
                   grid_step: int = 4) -> pa.Table:
    """Per polygon: its S2 covering coarsened onto the level GRID
    {level, level-grid_step, ..., >=0} — each covering cell maps to its
    ancestor at the largest grid level <= its own level (never a
    descendant explosion: a snake-shaped polygon whose covering sits at
    coarse levels would otherwise explode into tens of thousands of
    level-K tiles, each dragging the pickled geometry through the
    exchange).  Coarsening only ADDS candidate area; the exact refine
    prunes it, so the join output is invariant.  Contained duplicates are
    swept out so each point matches at most one tile per polygon.  The
    point side probes one ancestor per grid level present (see
    shuffle_pip_join).  With `with_geometry`, each tile row carries the
    polygon's pickled geometry so the exchange delivers vertices to
    exactly the partitions that need them (replication bounded by
    covering size — never a full-layer broadcast).

    Coverer work is delegated to stages.pip.prepare_layer — parallel Ray
    tasks + the process-level content-digest memo, so a broadcast join
    and a shuffle join over the same layer (or repeated shuffle runs)
    pay the coverer ONCE.  Covering cell ids reconstruct exactly from
    the stored ranges: id = rmin + (rmax - rmin) // 2."""
    import pickle

    from ..stages.pip import prepare_layer

    prepared = prepare_layer(layer, covering_max_cells=max_cells)
    grid = sorted({max(0, level - k * grid_step)
                   for k in range((level // grid_step) + 2)})
    rows_tile, rows_pid, rows_geom = [], [], []
    grid_arr = np.array(grid, dtype=np.int64)
    for pid, poly in prepared.polys.items():
        if with_geometry:
            # ship (polygon, interior-covering ranges): the refine fast-
            # accepts points whose leaf lies in an interior cell — same
            # prune the broadcast PIPJoin uses — and runs the exact
            # kernel only on the boundary shell
            irmin, irmax = prepared.interiors[pid]
            geom = pickle.dumps((poly, irmin, irmax))
        else:
            geom = None
        crmin, crmax = prepared.coverings[pid]
        cov = crmin + (crmax - crmin) // U(2)
        lv = cellid.level(cov)
        # largest grid level <= cell level (cells finer than `level`
        # coarsen to `level` itself)
        gi = np.searchsorted(grid_arr, np.minimum(lv, level), side="right") - 1
        coarse = cellid.parent(cov, 0)  # allocate; overwritten per level
        for g in np.unique(gi):
            m = gi == g
            coarse[m] = cellid.parent(cov[m], int(grid_arr[g]))
        tiles = _drop_contained(np.unique(coarse))
        for t in cellid.to_sort_key(tiles).tolist():
            rows_tile.append(t)
            rows_pid.append(pid)
            rows_geom.append(geom)
    cols = {"tile": np.array(rows_tile, dtype=np.int64),
            "polygon_id": pa.array(rows_pid, type=pa.string())}
    if with_geometry:
        cols["geom"] = pa.array(rows_geom, type=pa.binary())
    return pa.table(cols)


def shuffle_pip_join(ds, key_col: str, layer, level: int = 8,
                     num_parts: int | None = None, salt=1,
                     pretagged: bool = False, hot_factor: float = 2.0,
                     max_salt: int = 32, hist_sample=(1, 8)):
    """Equi-join points.cell_lK == covering tile (hash exchange), then exact
    PIP refine per (point, polygon) candidate pair.  Output (key, polygon_id)
    identical to the broadcast join.

    The polygon layer is NEVER broadcast or closure-captured: each covering
    tile row carries its polygon's pickled vertices through the exchange, so
    a partition receives only the polygons whose tiles hash to it (geometry
    replication bounded by covering size, independent of cluster width).

    Skew (`salt` > 1): a hot covering tile (dense city at the explode
    level) would funnel all its candidate points into ONE partition's
    refine task.  Salting partitions by a (tile, salt) mix — point salt
    derived from the point key, the small tile side replicated once per
    salt — so a hot tile's points spread across up to `salt` refine tasks.
    The in-partition equi-join still runs on the TRUE tile (partition-key
    collisions are harmless) after deduping tile rows whose salted copies
    hashed to the same partition, so the output is exactly the salt=1
    output.  Tile-side cost: x`salt` replication of a small table.

    `salt="auto"`: SELF-TUNING skew handling — the candidate tiles of a
    `hist_sample` (num, den) deterministic key-hash sample of the input
    are histogrammed first (exchange.hot_key_histogram, a cheap tree
    reduce whose driver pull is <= top_n+1 rows), counts scaled back by
    den/num, and each tile whose estimated candidate count exceeds
    `hot_factor` partition-shares gets its own per-tile salt count
    ceil(count/share) (capped at `max_salt`); all other tiles stay
    unsalted, so the tile-side replication is paid ONLY for hot tiles.
    Output identical to salt=1 (same dedup + true-tile join) — a hot tile
    the sample misses merely stays unsalted.  Costs one extra encode pass
    over ~num/den of the input; nothing is materialized, so the operator
    streams end to end at any input size.

    `pretagged`: the input already carries lat/lng columns (skips the
    deterministic key->geotag derivation)."""
    import pickle

    import ray.data

    from ..functions.coords import latlng_deg_to_xyz

    tiles_tbl = covering_tiles(layer, level, with_geometry=True)
    # the tile KEY SET is small even when the layer geometry is not —
    # precompute per-grid-level sorted key arrays, closure-shipped to the
    # point stage: each point probes one ancestor per level present and
    # emits ONLY matching rows, so the exchange carries candidates, not
    # the whole input
    tk = tiles_tbl["tile"].to_numpy(zero_copy_only=False)
    tlv = cellid.level(cellid.from_sort_key(tk))
    level_keys = {
        int(l): np.unique(tk[tlv == l]) for l in np.unique(tlv).tolist()
    }
    auto = salt == "auto"
    usalt = 0 if auto else int(salt)

    def encode_points(batch: pa.Table) -> pa.Table:
        if not pretagged:
            batch = geotag_and_encode(key_col)(batch)
        else:
            from ..stages.encode import encode_cells

            batch = encode_cells(batch)
        leaf = batch["cell_id"].to_numpy(zero_copy_only=False)
        k_np = batch[key_col].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lng = batch["lng"].to_numpy(zero_copy_only=False)
        kk, la, ln, tt_ = [], [], [], []
        for lvl, keys in level_keys.items():
            anc = cellid.to_sort_key(cellid.parent(leaf, lvl))
            pos = np.searchsorted(keys, anc)
            pos_c = np.minimum(pos, len(keys) - 1)
            hit = keys[pos_c] == anc
            if hit.any():
                kk.append(k_np[hit])
                la.append(lat[hit])
                ln.append(lng[hit])
                tt_.append(anc[hit])
        if kk:
            k_c = np.concatenate(kk)
            tiles = np.concatenate(tt_)
            out = {
                key_col: pa.array(k_c, type=batch.schema.field(key_col).type),
                "lat": np.concatenate(la),
                "lng": np.concatenate(ln),
                "tile": tiles,
            }
        else:
            k_c = k_np[:0]
            tiles = np.array([], dtype=np.int64)
            out = {
                key_col: pa.array(k_c, type=batch.schema.field(key_col).type),
                "lat": np.array([], dtype=np.float64),
                "lng": np.array([], dtype=np.float64),
                "tile": tiles,
            }
        if usalt > 1:
            s = _key_hash(k_c) % np.uint64(usalt)
            out["part_key"] = (
                tiles.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F) + s
            ).view(np.int64)
        return pa.table(out)

    points = ds.map_batches(encode_points, batch_format="pyarrow")
    if num_parts is None:
        num_parts = exchange.default_num_parts()

    def _replicate_tiles(salt_per_row: np.ndarray) -> pa.Table:
        # one tile row per (row, salt value); refine dedups co-hashed copies
        if tiles_tbl.num_rows == 0:  # empty layer: nothing to replicate
            return tiles_tbl.append_column(
                "part_key", pa.array([], pa.int64())
            )
        idx = np.repeat(
            np.arange(tiles_tbl.num_rows, dtype=np.int64), salt_per_row
        )
        ends = np.cumsum(salt_per_row)
        s = (np.arange(int(ends[-1]), dtype=np.uint64)
             - np.repeat(ends - salt_per_row, salt_per_row).astype(np.uint64))
        rep = tiles_tbl.take(pa.array(idx))
        pk = (
            rep["tile"].to_numpy(zero_copy_only=False).astype(np.uint64)
            * np.uint64(0xC2B2AE3D27D4EB4F)
            + s
        ).view(np.int64)
        return rep.append_column("part_key", pa.array(pk))

    if auto:
        # pass 1: candidate-tile histogram over a bounded deterministic
        # SAMPLE of the input (splitmix64 of the point key), counts scaled
        # back by the sampling ratio.  Nothing is materialized: the old
        # path pinned the FULL encoded candidate set in the object store
        # so the histogram and the exchange shared one encode run — the
        # scale-killer at 10^12 rows.  Instead the sampled pass re-runs
        # the cheap geotag+encode on ~1/den of the rows and the main pass
        # streams.  Salting decisions are heuristic and output-invariant
        # (dedup + true-tile join), so sampled estimates are safe; a hot
        # tile missed by the sample just stays unsalted.
        from .textops import sample_by_hash

        s_num, s_den = hist_sample
        sampled = sample_by_hash(ds, key_col, 0.0, num=s_num, den=s_den)
        hist, s_total = exchange.hot_key_histogram(
            sampled.map_batches(encode_points, batch_format="pyarrow"),
            "tile", top_n=64, with_total=True,
        )
        scale = s_den / s_num
        total = s_total * scale
        share = max(1.0, total / num_parts)
        hot_salt = {
            int(t): int(min(max_salt, -(-(n * scale) // share)))
            for t, n in hist.items() if n * scale > hot_factor * share
        }
        if hot_salt:
            hot_keys = np.array(sorted(hot_salt), dtype=np.int64)
            hot_n = np.array([hot_salt[k] for k in hot_keys.tolist()],
                             dtype=np.uint64)

            def add_part_key(batch: pa.Table) -> pa.Table:
                tiles = batch["tile"].to_numpy(zero_copy_only=False)
                k_np = batch[key_col].to_numpy(zero_copy_only=False)
                pos = np.searchsorted(hot_keys, tiles)
                pos_c = np.minimum(pos, len(hot_keys) - 1)
                sn = np.where(hot_keys[pos_c] == tiles, hot_n[pos_c],
                              np.uint64(1))
                s = _key_hash(k_np) % sn
                pk = (
                    tiles.astype(np.uint64)
                    * np.uint64(0xC2B2AE3D27D4EB4F) + s
                ).view(np.int64)
                return batch.append_column("part_key", pa.array(pk))

            points = points.map_batches(add_part_key, batch_format="pyarrow")
            t_np = tiles_tbl["tile"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(hot_keys, t_np)
            pos_c = np.minimum(pos, len(hot_keys) - 1)
            per_row = np.where(
                hot_keys[pos_c] == t_np, hot_n[pos_c], np.uint64(1)
            ).astype(np.int64)
            tiles_tbl = _replicate_tiles(per_row)
        else:
            auto = False  # no hot tiles: plain unsalted exchange
    elif usalt > 1:
        tiles_tbl = _replicate_tiles(
            np.full(tiles_tbl.num_rows, usalt, dtype=np.int64)
        )
    right = ray.data.from_arrow(tiles_tbl)
    part_col = "part_key" if auto or usalt > 1 else "tile"

    def refine_part(pt: pa.Table, tt: pa.Table) -> pa.Table:
        empty = pa.table(
            {key_col: pa.array([], pt.schema.field(key_col).type),
             "polygon_id": pa.array([], pa.string())}
        )
        if pt.num_rows == 0 or tt.num_rows == 0:
            return empty
        if auto or usalt > 1:
            # salted copies of one tile row can co-hash into this
            # partition; the join key is the true tile, so dedup first
            # (tile tables are covering-sized — a set scan is bounded)
            t_np = tt["tile"].to_numpy(zero_copy_only=False)
            p_np = tt["polygon_id"].to_pylist()
            seen, keep_i = set(), []
            for i, tp in enumerate(zip(t_np.tolist(), p_np)):
                if tp not in seen:
                    seen.add(tp)
                    keep_i.append(i)
            tt = tt.take(pa.array(keep_i, pa.int64()))
        # geometry arrives with the tile rows; deserialize once per polygon
        pids_t = tt["polygon_id"].to_pylist()
        geoms = tt["geom"].to_pylist()
        polys = {}
        for pid, g in zip(pids_t, geoms):
            if pid not in polys:
                polys[pid] = pickle.loads(g)  # (poly, irmin, irmax)
        cand = pt.join(tt.select(["tile", "polygon_id"]), keys="tile",
                       join_type="inner")
        if cand.num_rows == 0:
            return empty
        lat = cand["lat"].to_numpy(zero_copy_only=False)
        lng = cand["lng"].to_numpy(zero_copy_only=False)
        x, y, z = latlng_deg_to_xyz(lat, lng)
        pts = np.stack([x, y, z], axis=-1)
        leaves = cellid.from_xyz(x, y, z)
        pids = np.asarray(cand["polygon_id"].to_pylist(), dtype=object)
        keys = cand[key_col].to_numpy(zero_copy_only=False)
        keep = np.zeros(len(keys), dtype=bool)
        from ..stages.pip import _ranges_contain

        for pid in np.unique(pids):
            m = np.nonzero(pids == pid)[0]
            poly, irmin, irmax = polys[pid]
            # interior fast-accept; exact parity only on the shell
            acc = _ranges_contain(irmin, irmax, leaves[m])
            keep[m[acc]] = True
            shell = m[~acc]
            if shell.size:
                keep[shell] = poly.contains_points(pts[shell])
        return pa.table(
            {key_col: keys[keep],
             "polygon_id": pa.array(pids[keep], type=pa.string())}
        )

    # each refine task concats its own point and tile shards — the point
    # payload crosses the object store exactly once
    return exchange.co_partition(
        [(points, part_col, None), (right, part_col, None)], num_parts,
        refine_part,
    )
