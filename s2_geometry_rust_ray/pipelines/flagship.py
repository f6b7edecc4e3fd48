"""Flagship pipeline over the PRIMARY table (input_hint images schema):

  read images (COLUMN-PRUNED: geometry stages read only image_id/lat/lng;
  the wide `bytes` payload never enters the object store for them)
    -> leaf S2 cell encode + tile parents        (stateless map_batches)
    -> (a) tile assignment groupby               (tree-final reduce)
    -> (b) PIP join vs the polygon layer         (broadcast task-pool map)
    -> (c) indexed pass-through write            (payload + derived cols,
           partitioned by coarse tile, resumable via state/manifest)

The pass-through path (c) preserves `bytes`/`caption` byte-exactly — it
only APPENDS derived columns (cell_id, cell_l{K}) — which is what the
PSNR/caption invariant demands.
"""

from __future__ import annotations

import glob

import pyarrow as pa

from ..functions import cellid
from ..stages.encode import encode_cells
from ..stages.exchange import actor_map as _actor_map
from . import tiling


def geometry_view(images_dir: str):
    """Column-pruned read for geometry stages (never loads payload)."""
    import ray.data

    return ray.data.read_parquet(
        f"{images_dir}", columns=["image_id", "lat", "lng"]
    )


def image_tile_counts(images_dir: str, level: int = 8):
    from ..stages import agg

    tp = tiling.tile_partial_counts(level)
    return agg.reduce_by_key(
        geometry_view(images_dir), "tile", ["n_partial"],
        finish=tiling.tokenize("tile", "tile_token", {"n_partial": "n"}),
        prepare=lambda b: tp(encode_cells(b)), batch_size=131072,
    )


def image_pip_join(images_dir: str, layer=None, mode: str = "inner"):
    from ..stages import pip as pip_stages
    from .pip import standard_polygon_layer

    if layer is None:
        layer = standard_polygon_layer()
    prepared = pip_stages.prepare_layer(layer)
    ds = geometry_view(images_dir)
    return _actor_map(
        ds,
        pip_stages.PIPJoin,
        fn_constructor_kwargs={"layer": prepared, "key_col": "image_id", "mode": mode},
        batch_size=65536,
    )


def indexed_passthrough(images_dir: str, out_dir: str, tile_level: int = 5,
                        max_shards: int | None = None):
    """Resumable pass-through write: full rows + appended cell columns,
    one output dir per input shard (state/manifest lineage)."""
    from ..state.manifest import resumable_shard_write

    def pipeline(ds):
        return ds.map_batches(
            lambda b: encode_cells(b, levels=(tile_level,)),
            batch_format="pyarrow",
            batch_size=8192,  # wide payload rows: keep batches small
        )

    files = sorted(glob.glob(f"{images_dir}/*.parquet"))
    return resumable_shard_write(files, out_dir, pipeline, max_shards=max_shards)


def image_phash_near_dup(images_dir: str, max_hamming: int = 7,
                         num_parts: int | None = None,
                         hot_bucket_cap: int = 1024):
    """Near-duplicate image pairs by perceptual-hash Hamming distance:
    (img_a, img_b, hamming) with hamming <= max_hamming.

    The image-axis twin of textops.simhash_near_dup: candidates share at
    least one of the 8 8-bit bands of the stored 64-bit phash (pigeonhole:
    a pair within hamming 7 differs in at most 7 bands, so some band
    matches — no false negatives for max_hamming <= 7), then exact
    popcount(xor) verification.  Fully distributed: band hash-exchange ->
    per-bucket vectorized pair emission (hot buckets chunk-split) -> pair
    dedup co-located by img_a -> payload hash-join.  The read is
    column-pruned to (image_id, phash) — the wide `bytes` payload never
    enters the pipeline.  Integer-only, so the SQL twin
    (__ray_entry__.oracle_sql img_phash_near_dup) is bit-exact."""
    import numpy as np
    import ray.data

    from ..functions.text import hamming64
    from ..stages import exchange

    if num_parts is None:
        num_parts = exchange.default_num_parts()

    def keyed(batch: pa.Table) -> pa.Table:
        # exchange machinery keys on int64 — image_id ("img%012d") is
        # bijective with its integer suffix
        import pyarrow.compute as pc

        k = pc.cast(pc.utf8_slice_codeunits(batch["image_id"], 3, 99), pa.int64())
        return pa.table({"k": k, "phash": batch["phash"]})

    ds = ray.data.read_parquet(
        images_dir, columns=["image_id", "phash"]
    ).map_batches(keyed, batch_format="pyarrow")

    def band_stage(batch: pa.Table) -> pa.Table:
        sig = batch["phash"].to_numpy(zero_copy_only=False).view(np.uint64)
        shifts = (np.uint64(8) * np.arange(8, dtype=np.uint64))[None, :]
        chunk = ((sig[:, None] >> shifts) & np.uint64(0xFF)).astype(np.int64)
        # integer bucket band*256 + chunk — same expression in the SQL twin
        buckets = np.arange(8, dtype=np.int64)[None, :] * 256 + chunk
        img = np.repeat(batch["k"].to_numpy(zero_copy_only=False), 8)
        return pa.table({"k": img, "bucket": buckets.ravel()})

    bands = ds.map_batches(band_stage, batch_format="pyarrow")
    cand = exchange.lsh_candidate_pairs(
        bands, "k", "bucket", num_parts, "img_a", "img_b",
        hot_bucket_cap=hot_bucket_cap,
    )
    j2 = exchange.attach_pair_payloads(
        cand, ds, "k", "phash", "img_a", "img_b", num_parts
    )

    def verify(batch: pa.Table) -> pa.Table:
        a = batch["phash_a"].to_numpy(zero_copy_only=False).view(np.uint64)
        b = batch["phash_b"].to_numpy(zero_copy_only=False).view(np.uint64)
        ham = hamming64(a, b)
        keep = ham <= max_hamming

        def back(ids: np.ndarray) -> pa.Array:
            s = np.char.zfill(ids.astype("U12"), 12)
            return pa.array(np.char.add("img", s), type=pa.string())

        return pa.table(
            {"img_a": back(batch["img_a"].to_numpy(zero_copy_only=False)[keep]),
             "img_b": back(batch["img_b"].to_numpy(zero_copy_only=False)[keep]),
             "hamming": ham[keep].astype(np.int64)}
        )

    return j2.map_batches(verify, batch_format="pyarrow")


def image_caption_token_tiles(images_dir: str, level: int = 6):
    """The image+caption multimodal aggregate from the north rule: per
    level-K S2 tile, the image count and total caption tokens — geometry
    (stored lat/lng -> leaf encode -> parent tile) and text (ASCII word
    tokens, functions/text.token_count) in ONE map-side combine.  Output
    (tile_token, n, caption_tokens); the SQL twin re-derives the geotags
    from the image key via the recursive-CTE encode and tokenizes captions
    with the same regexp — bit-exact."""
    import numpy as np
    import pandas as pd
    import ray.data

    from ..functions import text as T
    from ..stages import agg

    ds = ray.data.read_parquet(
        images_dir, columns=["image_id", "lat", "lng", "caption"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        enc = encode_cells(batch.select(["image_id", "lat", "lng"]))
        cid = enc["cell_id"].to_numpy(zero_copy_only=False)
        tiles = cellid.to_sort_key(cellid.parent(cid, level))
        toks = T.token_count(pd.Series(batch["caption"].to_pylist()))
        return pa.table(
            {
                "tile": tiles,
                "n": np.ones(batch.num_rows, dtype=np.int64),
                "caption_tokens": np.asarray(toks, dtype=np.int64),
            }
        )

    return agg.reduce_by_key(
        ds, "tile", {"n": "sum", "caption_tokens": "sum"},
        finish=tiling.tokenize("tile", "tile_token", ["n", "caption_tokens"]),
        prepare=partial, batch_size=131072,
    )
