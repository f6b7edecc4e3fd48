"""Flagship pipeline over the PRIMARY table (input_hint images schema):

  read images (COLUMN-PRUNED: geometry stages read only image_id/lat/lng;
  the wide `bytes` payload never enters the object store for them)
    -> leaf S2 cell encode + tile parents        (stateless map_batches)
    -> (a) tile assignment groupby               (hash-partitioned reduce)
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


_PHASH_PAIRS = pa.schema([("img_a", pa.string()), ("img_b", pa.string()),
                          ("hamming", pa.int64())])


def image_phash_near_dup(images_dir: str, max_hamming: int = 7,
                         num_parts: int | None = None,
                         hot_bucket_cap: int = 1024):
    """Near-duplicate image pairs by perceptual-hash Hamming distance:
    (img_a, img_b, hamming) with hamming <= max_hamming.

    The image-axis twin of textops.simhash_near_dup: the same
    `textops.hamming_near_dup` (8 8-bit bands of the signature, no false
    negatives for max_hamming <= 7, exact popcount(xor) verify) over the
    stored 64-bit phash, keyed by the string image_id itself.  The read
    is column-pruned to (image_id, phash) — the wide `bytes` payload
    never enters the pipeline.  Integer-only, so the SQL twin
    (__ray_entry__.oracle_sql img_phash_near_dup) is bit-exact."""
    import ray.data

    from .textops import hamming_near_dup

    ds = ray.data.read_parquet(images_dir, columns=["image_id", "phash"])
    return hamming_near_dup(
        ds, "image_id",
        lambda b: (b["image_id"], b["phash"].to_numpy(zero_copy_only=False)),
        _PHASH_PAIRS, max_hamming, num_parts, hot_bucket_cap,
    )


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
