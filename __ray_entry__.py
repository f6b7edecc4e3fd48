"""Driver contract for the graft builder (Ray Data target).

The driver calls ``entry()`` as a smoke check (Ray already initialised),
runs each ``queries()[name](sf_dir)`` at sf=0.01 and compares against
``oracle_sql()[name]`` via DuckDB (row-count + schema + order-insensitive
value-hash).  No ray.init()/shutdown() here (driver owns the session).

Engine: s2_geometry_rust_ray — see SURVEY.md.  Geotags are derived
deterministically from integer row keys (functions/geo.py) with IEEE-exact
arithmetic so the DuckDB oracles reproduce the engine's float64 lat/lng and
64-bit S2 cell ids BIT-EXACTLY (the oracle's Hilbert encode is an independent
1-bit-per-level recursive-CTE implementation vs the engine's 4-bit nibble
lookup — agreement is a genuine cross-check).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

LINEITEM_KEY_SQL = "l_orderkey * 8 + l_linenumber"
LINEITEM_SRC = f"SELECT {LINEITEM_KEY_SQL} AS k FROM lineitem"
DOCS_SRC = "SELECT doc_id FROM documents"


def _read(sf_dir: str, table: str, columns=None):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


IMG_TABLE_ROWS = 20_000  # fixed size: the oracle SQL (static strings, no
# sf parameter) must read the SAME files the engine queries read at any sf


def _images_for_sf(sf_dir: str):
    """Deterministic synthetic image table (cached in /tmp).  Fixture-sized
    like the polygon/route layers — NOT scaled by sf — so the engine query
    and the path-embedding oracle always agree."""
    from s2_geometry_rust_ray.sources.images import write_images_dataset

    n = IMG_TABLE_ROWS
    path = f"/tmp/graft_images_{n}"
    write_images_dataset(path, n)
    return path, n


def _lineitem_keys(sf_dir: str):
    """lineitem with a unique integer key (l_orderkey*8 + l_linenumber)."""
    import pyarrow.compute as pc

    from s2_geometry_rust_ray.stages import exchange

    ds = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber"])

    def add_key(batch):
        k = pc.add(
            pc.multiply(batch["l_orderkey"], 8),
            pc.cast(batch["l_linenumber"], batch["l_orderkey"].type),
        )
        return batch.append_column("k", k).select(["k"])

    return exchange.map_blocks(ds, add_key)


# ---------------------------------------------------------------------------
# entry — flagship pipeline at sf0.001
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship: lineitem keys -> geotags -> leaf S2 cells -> tile counts."""
    from s2_geometry_rust_ray.pipelines import tiling

    ds = _lineitem_keys("/root/testdata/sf0.001")
    return tiling.tile_counts(ds, "k", level=8)


# ---------------------------------------------------------------------------
# queries / oracle_sql
# ---------------------------------------------------------------------------

def queries() -> dict[str, Callable[[str], Any]]:
    from s2_geometry_rust_ray.pipelines import pip as ppip
    from s2_geometry_rust_ray.pipelines import tiling

    def q_encode_docs(sf_dir: str):
        ds = _read(sf_dir, "documents", columns=["doc_id"])
        return tiling.cell_encode_table(ds, "doc_id", "doc_id")

    def q_tile_l8(sf_dir: str):
        return tiling.tile_counts(_lineitem_keys(sf_dir), "k", level=8)

    def q_tile_l12(sf_dir: str):
        return tiling.tile_counts(_lineitem_keys(sf_dir), "k", level=12)

    def q_face_hist(sf_dir: str):
        return tiling.face_histogram(_lineitem_keys(sf_dir), "k")

    def q_snap_dedup(sf_dir: str):
        ds = _read(sf_dir, "documents", columns=["doc_id"])
        return tiling.snap_dedup(ds, "doc_id", level=10)

    def q_pip(sf_dir: str):
        ds = _read(sf_dir, "documents", columns=["doc_id"])
        return ppip.pip_join(ds, "doc_id")

    def q_pip_lineitem(sf_dir: str):
        # the synthetic lineitem has duplicate (orderkey, linenumber) pairs;
        # the PIP parity oracle groups by key, so join over DISTINCT keys
        from s2_geometry_rust_ray.stages import agg

        return ppip.pip_join(agg.distinct_keys(_lineitem_keys(sf_dir), "k"), "k")

    def q_caps(sf_dir: str):
        ds = _read(sf_dir, "documents", columns=["doc_id"])
        return ppip.cap_join(ds, "doc_id")

    def q_rects(sf_dir: str):
        return ppip.rect_join(_lineitem_keys(sf_dir), "k")

    def q_knn(sf_dir: str):
        from s2_geometry_rust_ray.pipelines import knn

        ds = _read(sf_dir, "documents", columns=["doc_id"])
        return knn.knn_brute(ds, "doc_id", k=5, n_queries=25)

    def q_knn_cell(sf_dir: str):
        from s2_geometry_rust_ray.pipelines import knn

        ds = _read(sf_dir, "documents", columns=["doc_id"])
        return knn.knn_cell(ds, "doc_id", k=5, n_queries=25)

    def q_pip_shuffle(sf_dir: str):
        from s2_geometry_rust_ray.pipelines import pip_shuffle

        ds = _read(sf_dir, "documents", columns=["doc_id"])
        return pip_shuffle.shuffle_pip_join(
            ds, "doc_id", ppip.standard_polygon_layer()
        )

    def q_pip_shape_index(sf_dir: str):
        # THIRD independent PIP implementation (MutableShapeIndex point
        # location) against the SAME oracle as s2_pip_join_docs
        ds = _read(sf_dir, "documents", columns=["doc_id"])
        return ppip.shape_index_pip_join(ds, "doc_id")

    from s2_geometry_rust_ray.pipelines import textops

    def q_token_stats(sf_dir: str):
        return textops.token_stats(_read(sf_dir, "documents", columns=["doc_id", "text"]))

    def q_exact_dedup(sf_dir: str):
        return textops.exact_dedup(_read(sf_dir, "documents", columns=["doc_id", "text"]))

    def q_window(sf_dir: str):
        return textops.window_counts(
            _read(sf_dir, "events", columns=["ts", "event_type", "value"])
        )

    def q_sliding(sf_dir: str):
        return textops.sliding_window_counts(
            _read(sf_dir, "events", columns=["ts", "event_type", "value"])
        )

    def q_term_counts(sf_dir: str):
        return textops.term_counts(
            _read(sf_dir, "documents", columns=["text"])
        )

    def q_grouped_topk(sf_dir: str):
        # per-event-type top-3 events by (floor(value) desc, event_id asc)
        import pyarrow as pa
        import pyarrow.compute as pc

        from s2_geometry_rust_ray.stages import agg, exchange

        ds = _read(sf_dir, "events", columns=["event_id", "event_type", "value"])

        def proj(batch):
            return pa.table({
                "event_type": batch["event_type"],
                "floor_value": pc.cast(pc.floor(batch["value"]), "int64"),
                "event_id": batch["event_id"]})

        # the projection is the top-k's `prepare`, so the query declares
        # its output schema (an empty result keeps it)
        return exchange.with_schema(agg.grouped_topk(
            ds, ["event_type"], [("floor_value", "descending"),
                                 ("event_id", "ascending")], 3, prepare=proj,
        ), pa.schema([("event_type", pa.string()), ("floor_value", pa.int64()),
                      ("event_id", pa.int64()), ("rank", pa.int64())]))

    def q_distinct_users(sf_dir: str):
        from s2_geometry_rust_ray.stages import agg

        ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
        return agg.distinct_count_by_key(ds, "event_type", "user_id")

    def q_sessions(sf_dir: str):
        return textops.sessionize(
            _read(sf_dir, "events", columns=["ts", "user_id"]), gap_minutes=30
        )

    def q_asof(sf_dir: str):
        return textops.asof_join_events(
            _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
        )

    def q_brand_sales(sf_dir: str):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from s2_geometry_rust_ray.stages import agg, exchange

        part_tbl = pq.read_table(
            f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
        )
        li = _read(sf_dir, "lineitem", columns=["l_partkey", "l_quantity"])
        joined = exchange.broadcast_join(
            li, part_tbl, "l_partkey", right_on="p_partkey"
        )

        def project(batch):
            import numpy as np

            return pa.table({
                "p_brand": batch["p_brand"],
                "n": np.ones(batch.num_rows, dtype=np.int64),
                "sum_qty": np.trunc(
                    batch["l_quantity"].to_numpy(zero_copy_only=False)
                ).astype(np.int64),
            })

        # a grouped reduce with a `prepare`: the query declares its schema
        return exchange.with_schema(agg.reduce_by_key(
            joined, "p_brand", {"n": "sum", "sum_qty": "sum"}, prepare=project,
        ), pa.schema([("p_brand", pa.string()), ("n", pa.int64()),
                      ("sum_qty", pa.int64())]))

    def q_hll(sf_dir: str):
        return textops.hll_rho_hist(
            _read(sf_dir, "events", columns=["event_type", "user_id"])
        )

    def q_sample(sf_dir: str):
        # deterministic 5% sample (num/den = 3276/65536): same keys
        # survive on any engine/partitioning — reproducible fixtures
        return textops.sample_by_hash(
            _read(sf_dir, "events",
                  columns=["event_id", "user_id", "event_type"]),
            "event_id", 0.05, num=3276, den=65536,
        )

    def q_range_join(sf_dir: str):
        return textops.range_join_counts(
            _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
        )

    def q_quantiles(sf_dir: str):
        return textops.quantiles_by_key(
            _read(sf_dir, "events", columns=["event_type", "value"])
        )

    def q_quality(sf_dir: str):
        return textops.quality(_read(sf_dir, "documents", columns=["doc_id", "text"]))

    def q_near_dup(sf_dir: str):
        return textops.near_dup_pairs(_read(sf_dir, "documents", columns=["doc_id", "text"]))

    def q_char_ngram_dedup(sf_dir: str):
        # char-4-gram Jaccard near-dup (mandate's "n-gram Jaccard" entry) —
        # the same distributed MinHash-LSH plan parameterized by shingle
        # mode, with its own bit-exact SQL twin
        return textops.near_dup_pairs(
            _read(sf_dir, "documents", columns=["doc_id", "text"]),
            threshold=0.6, shingle_k=4, shingle_mode="char",
        )

    def q_simhash(sf_dir: str):
        return textops.simhash_table(_read(sf_dir, "documents", columns=["doc_id", "text"]))

    def q_dedup_clusters(sf_dir: str):
        # connected components over the simhash near-dup pairs: every doc
        # gets the min doc_id of its duplicate cluster (iterative
        # distributed min-label propagation; recursive-CTE closure twin)
        from s2_geometry_rust_ray.pipelines.dedup_clusters import dedup_clusters

        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        pairs = textops.simhash_near_dup(docs)
        ids = _read(sf_dir, "documents", columns=["doc_id"])
        return dedup_clusters(ids, pairs)

    def q_simhash_near_dup(sf_dir: str):
        return textops.simhash_near_dup(
            _read(sf_dir, "documents", columns=["doc_id", "text"])
        )

    def q_fingerprints(sf_dir: str):
        return textops.fingerprints(_read(sf_dir, "documents", columns=["doc_id", "text"]))

    def _emb_with_copy(sf_dir: str):
        # the synthetic embeddings are isotropic (max pairwise cosine ~0.51
        # at sf0.01), so the near-dup op would be vacuously empty; union the
        # table with an exact copy under offset ids so every vector has one
        # deterministic duplicate — identical vectors always share every
        # LSH bucket, making recall exact and the row count stable
        # (= n_vectors) for the row-count check.  Both near-dup queries read
        # it; oracle/sql.q_emb_near_dup_q15 rebuilds it with the same offset.
        import pyarrow.compute as pc

        from s2_geometry_rust_ray.stages import exchange

        ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

        def offset_ids(batch):
            return batch.set_column(
                batch.schema.get_field_index("vec_id"), "vec_id",
                pc.add(batch["vec_id"], 10_000_000),
            )

        dup = exchange.map_blocks(
            _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]), offset_ids)
        return ds.union(dup)

    def q_emb_near_dup(sf_dir: str):
        # float cosine: rows-only (no bit-exact SQL twin for float dots)
        from s2_geometry_rust_ray.stages import simsearch

        return simsearch.embedding_near_dup(_emb_with_copy(sf_dir), threshold=0.9)

    def q_ann(sf_dir: str):
        import numpy as np

        from s2_geometry_rust_ray.stages import simsearch

        ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        rng = np.random.default_rng(42)
        queries = rng.normal(size=(10, 64)).astype("float32")
        return simsearch.ann_topk(ds, queries, np.arange(10), k=10)

    def _ivf_setup(sf_dir: str):
        # ONE setup shared by the full-scan and indexed IVF queries: the
        # two outputs are asserted equal (pytest), so sample size, seed,
        # n_centroids and the query matrix must stay in lockstep
        import numpy as np
        import pyarrow.parquet as pq

        from s2_geometry_rust_ray.stages import simsearch

        ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        sample = pq.read_table(
            f"{sf_dir}/embeddings.parquet", columns=["embedding"]
        ).slice(0, 2048)["embedding"].to_numpy(zero_copy_only=False)
        # an empty table trains no centroid, so no bucket is probed
        cent = simsearch.train_centroids(
            np.stack(sample).astype("float32"), n_centroids=16
        ) if len(sample) else np.empty((0, 64), np.float32)
        rng = np.random.default_rng(42)
        queries = rng.normal(size=(10, 64)).astype("float32")
        return ds, cent, queries, np.arange(10)

    def q_ann_ivf(sf_dir: str):
        # the IVF scale path registered in the driver contract: centroids
        # trained on a deterministic sample, nprobe covering enough
        # buckets that the pytest recall oracle holds; rows-only (IVF is
        # approximate by design — see tests/test_textops.py for the
        # brute-force recall check)
        from s2_geometry_rust_ray.stages import simsearch

        ds, cent, queries, qids = _ivf_setup(sf_dir)
        return simsearch.ann_topk_ivf(
            ds, queries, qids, cent, k=10, nprobe=6
        )

    def q_ann_ivf_indexed(sf_dir: str):
        # the STORAGE-pruned IVF path (r4 verdict #3): this correctness
        # query builds a throwaway bucket-partitioned index (a real
        # deployment builds it ONCE and amortizes it over every query),
        # reads ONLY the probed bucket directories, and removes the index
        # after consuming the (tiny) result — a unique mkdtemp per call,
        # so concurrent runs never race and /tmp never accumulates.
        # The same vec id as ann_ivf_topk at every rank, and cosines
        # equal up to float32 matmul rounding (BLAS summation order depends
        # on the batch's row count; pytest asserts both); rows-only for
        # the same float-dot reason.
        import shutil
        import tempfile

        import pyarrow as pa
        import ray

        from s2_geometry_rust_ray.stages import simsearch

        ds, cent, queries, qids = _ivf_setup(sf_dir)
        idx_dir = tempfile.mkdtemp(prefix="graft_ivf_")
        try:
            simsearch.build_ivf_index(ds, cent, idx_dir)
            out = simsearch.ann_topk_ivf_indexed(
                idx_dir, queries, qids, cent, k=10, nprobe=6)
            # through Arrow: `Dataset.to_pandas()` drops the columns of an
            # empty result
            return pa.concat_tables(ray.get(out.to_arrow_refs())).to_pandas()
        finally:
            shutil.rmtree(idx_dir, ignore_errors=True)

    def q_emb_near_dup_q15(sf_dir: str):
        # the same pipeline and corpus as q_emb_near_dup in Q15 arithmetic:
        # integer buckets and dots -> hash-exact twin
        from s2_geometry_rust_ray.stages import simsearch

        return simsearch.embedding_near_dup(
            _emb_with_copy(sf_dir), threshold=1_000_000_000, arith=simsearch.Q15
        )

    def q_ann_q15(sf_dir: str):
        # ann_topk in Q15 arithmetic (integer dots are order-free =>
        # hash-exact SQL twin, unlike float cosine): queries are the
        # first 25 table vectors, pulled driver-side (bounded)
        import numpy as np
        import pyarrow.parquet as pq

        from s2_geometry_rust_ray.stages import simsearch

        N_Q = 25
        # predicate pushdown: only the N_Q query rows reach the driver
        t = pq.read_table(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
            filters=[("vec_id", "<", N_Q)],
        )
        qids = t["vec_id"].to_numpy()
        qvecs = np.array(t["embedding"].to_pylist(), dtype=np.float32)
        order = np.argsort(qids)
        ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        return simsearch.ann_topk(ds, qvecs[order], qids[order], k=10,
                                  arith=simsearch.Q15)

    def q_within(sf_dir: str):
        ds = _read(sf_dir, "documents", columns=["doc_id"])
        return ppip.within_distance_join(ds, "doc_id", radius_deg=1.5)

    def q_img_tiles(sf_dir: str):
        # the PRIMARY-table (input_hint images schema) path in the oracle
        # gate: tile counts over the deterministic synthetic image+caption
        # table (generated once into /tmp, resumable per-file); the oracle
        # recovers the integer key from image_id and re-derives the same
        # geotags through the bit-exact SQL CTE
        from s2_geometry_rust_ray.pipelines import flagship

        path, _ = _images_for_sf(sf_dir)
        return flagship.image_tile_counts(path, level=8)

    def q_img_caption_tiles(sf_dir: str):
        # the north rule's image+caption multimodal aggregate: per-tile
        # image count + caption token totals, geometry and text in one
        # map-side combine; fully hash-exact twin
        from s2_geometry_rust_ray.pipelines import flagship

        path, _ = _images_for_sf(sf_dir)
        return flagship.image_caption_token_tiles(path, level=6)

    def q_img_features(sf_dir: str):
        # the multimodal feature-extraction path as a driver query: real
        # PNG decode -> per-channel mean/std (rows-only: the oracle table
        # stores no pixel statistics; the decode itself is oracle-checked
        # end-to-end by img_phash_verify, and the stage has a pytest)
        import ray.data

        from s2_geometry_rust_ray.stages import multimodal

        path, _ = _images_for_sf(sf_dir)
        ds = ray.data.read_parquet(path, columns=["image_id", "bytes", "fmt"])
        return multimodal.image_features(ds)

    def q_img_phash(sf_dir: str):
        # real PNG decode (from-scratch zlib inflate) -> recomputed phash,
        # oracle = the table's STORED phash column: an end-to-end
        # oracle-checked run of the multimodal binary-payload path
        import ray.data

        from s2_geometry_rust_ray.stages import multimodal

        path, _ = _images_for_sf(sf_dir)
        ds = ray.data.read_parquet(path, columns=["image_id", "bytes", "fmt"])
        return multimodal.phash_recompute(ds)

    def q_img_phash_near_dup(sf_dir: str):
        # image near-dedup: banded Hamming LSH over the stored phash
        # column (8x8-bit bands, pigeonhole-complete for hamming <= 7),
        # exact popcount verify — the image-axis twin of simhash_near_dup
        from s2_geometry_rust_ray.pipelines import flagship

        path, _ = _images_for_sf(sf_dir)
        return flagship.image_phash_near_dup(path, max_hamming=7)

    def q_cap_bounds(sf_dir: str):
        ds = _read(sf_dir, "documents", columns=["doc_id"])
        return tiling.cap_bounds(ds, "doc_id", level=5)

    def q_route(sf_dir: str):
        ds = _read(sf_dir, "documents", columns=["doc_id"])
        return ppip.route_buffer_join(ds, "doc_id", radius_deg=0.75)

    def q_boolean(sf_dir: str):
        ds = _read(sf_dir, "documents", columns=["doc_id"])
        return ppip.boolean_pip_join(ds, "doc_id")

    def q_loop_measures(sf_dir: str):
        from s2_geometry_rust_ray.pipelines import measures as pmeasures

        return pmeasures.loop_measures(ppip.standard_polygon_layer())

    return {
        "s2_loop_measures": q_loop_measures,
        "s2_within_join_docs": q_within,
        "s2_boolean_pip_docs": q_boolean,
        "s2_route_buffer_docs": q_route,
        "s2_cap_bounds_l5": q_cap_bounds,
        "img_tile_counts_l8": q_img_tiles,
        "img_caption_tokens_l6": q_img_caption_tiles,
        "img_phash_verify": q_img_phash,
        "img_phash_near_dup": q_img_phash_near_dup,
        "s2_cell_encode_docs": q_encode_docs,
        "s2_tile_counts_l8": q_tile_l8,
        "s2_tile_counts_l12": q_tile_l12,
        "s2_face_histogram": q_face_hist,
        # the same query as s2_tile_counts_l8, kept under its old name:
        # callers look queries up by name
        "s2_tile_counts_l8_salted": q_tile_l8,
        "s2_snap_dedup_l10": q_snap_dedup,
        "s2_pip_join_docs": q_pip,
        "s2_pip_join_lineitem": q_pip_lineitem,
        "s2_cap_join_docs": q_caps,
        "s2_rect_join_lineitem": q_rects,
        "s2_knn_docs": q_knn,
        "s2_knn_cell_docs": q_knn_cell,
        "s2_pip_join_shuffle_docs": q_pip_shuffle,
        "s2_pip_join_shape_index_docs": q_pip_shape_index,
        "doc_token_stats": q_token_stats,
        "doc_exact_dedup": q_exact_dedup,
        "events_window_1h": q_window,
        "events_sliding_1h_15m": q_sliding,
        "doc_term_counts": q_term_counts,
        "events_top3_per_type": q_grouped_topk,
        "events_distinct_users_per_type": q_distinct_users,
        "events_sessions_30m": q_sessions,
        "events_asof_purchase_view": q_asof,
        "lineitem_brand_sales": q_brand_sales,
        "events_hll_rho_hist": q_hll,
        "events_sample_5pct": q_sample,
        "events_range_join_1h": q_range_join,
        "events_quantiles_by_type": q_quantiles,
        "doc_quality": q_quality,
        "doc_near_dup_pairs": q_near_dup,
        "doc_char_ngram_dedup": q_char_ngram_dedup,
        "doc_simhash": q_simhash,
        "doc_simhash_near_dup": q_simhash_near_dup,
        "doc_dedup_clusters": q_dedup_clusters,
        "doc_fingerprints": q_fingerprints,
        "ann_topk_q15": q_ann_q15,
        "emb_near_dup_q15": q_emb_near_dup_q15,
        "h3_tile_counts_r5": lambda sf_dir: tiling.h3_tile_counts(
            _lineitem_keys(sf_dir), "k", res=5
        ),
        # rows-only queries (no oracle) go last, so a correctness sweep
        # capped below len(queries()) still reaches every oracled query
        "img_features": q_img_features,
        "ann_cosine_topk": q_ann,
        "ann_ivf_topk": q_ann_ivf,
        "ann_ivf_indexed_topk": q_ann_ivf_indexed,
        "emb_near_dup_pairs": q_emb_near_dup,
    }


def oracle_sql() -> dict[str, str]:
    from s2_geometry_rust_ray.functions import text as _text
    from s2_geometry_rust_ray.oracle import h3_sql, knn_sql, pip_sql
    from s2_geometry_rust_ray.functions import hashing as _hashing
    from s2_geometry_rust_ray.oracle import sql as osql
    from s2_geometry_rust_ray.pipelines import pip as ppip

    layer = ppip.standard_polygon_layer()
    import math

    from s2_geometry_rust_ray.geometry.cap import chord2_from_radians
    from s2_geometry_rust_ray.geometry.loop import Polygon as _Polygon

    within_polys = {
        pid: (p if isinstance(p, _Polygon) else _Polygon.from_loops_latlng_deg(p))
        for pid, p in layer.items()
    }
    return {
        "s2_loop_measures": osql.q_loop_measures(layer),
        "s2_within_join_docs": pip_sql.q_within_distance_join(
            DOCS_SRC, "doc_id", within_polys, "doc_id",
            chord2_from_radians(math.radians(1.5)),
        ),
        "s2_route_buffer_docs": pip_sql.q_route_buffer_join(
            DOCS_SRC, "doc_id", ppip.standard_routes(), "doc_id",
            chord2_from_radians(math.radians(0.75)),
        ),
        "s2_boolean_pip_docs": pip_sql.q_boolean_pip(
            DOCS_SRC, "doc_id", *ppip.boolean_fixture_polys(), "doc_id"
        ),
        "s2_cap_bounds_l5": osql.q_cap_bounds(DOCS_SRC, "doc_id", 5),
        "img_tile_counts_l8": osql.q_tile_counts(
            "SELECT CAST(substr(image_id, 4) AS BIGINT) AS k "
            f"FROM read_parquet('/tmp/graft_images_{IMG_TABLE_ROWS}/*.parquet')",
            "k", 8,
        ),
        "img_caption_tokens_l6": osql.cte_encode(
            "SELECT CAST(substr(image_id, 4) AS BIGINT) AS k "
            f"FROM read_parquet('/tmp/graft_images_{IMG_TABLE_ROWS}/*.parquet')",
            "k",
        ) + f"""
  SELECT {osql.sql_cell_hex(osql.sql_parent('cell_id', 6))} AS tile_token,
         count(*) AS n,
         CAST(sum(cap.tok) AS BIGINT) AS caption_tokens
  FROM __cell
  JOIN (SELECT CAST(substr(image_id, 4) AS BIGINT) AS k2,
               len(regexp_extract_all(caption, '[A-Za-z0-9]+'))::BIGINT AS tok
        FROM read_parquet('/tmp/graft_images_{IMG_TABLE_ROWS}/*.parquet')) cap
    ON __cell.key = cap.k2
  GROUP BY 1""",
        "img_phash_verify": (
            "SELECT image_id, phash "
            f"FROM read_parquet('/tmp/graft_images_{IMG_TABLE_ROWS}/*.parquet')"
        ),
        # image near-dup: the SAME banded decomposition as the engine (it
        # is exact by pigeonhole, not an approximation), so the twin is a
        # band self-join + popcount filter.  int64 phash -> UBIGINT via
        # HUGEINT wrap (BIGINT->UBIGINT casts range-error on negatives).
        "img_phash_near_dup": (
            """WITH imgs AS (
  SELECT image_id,
         CAST(((CAST(phash AS HUGEINT) + 18446744073709551616)
               % 18446744073709551616) AS UBIGINT) AS sig
  FROM read_parquet('/tmp/graft_images_"""
            + str(IMG_TABLE_ROWS)
            + """/*.parquet')
),
bands AS (
  SELECT image_id,
         b * 256 + CAST((sig >> (8 * b)) & 255::UBIGINT AS BIGINT) AS bucket
  FROM imgs CROSS JOIN (SELECT unnest(range(0, 8)) AS b)
),
cand AS (
  SELECT DISTINCT x.image_id AS img_a, y.image_id AS img_b
  FROM bands x JOIN bands y USING (bucket)
  WHERE x.image_id < y.image_id
)
SELECT c.img_a, c.img_b,
       CAST(bit_count(xor(sa.sig, sb.sig)) AS BIGINT) AS hamming
FROM cand c
JOIN imgs sa ON sa.image_id = c.img_a
JOIN imgs sb ON sb.image_id = c.img_b
WHERE bit_count(xor(sa.sig, sb.sig)) <= 7"""
        ),
        "s2_cell_encode_docs": osql.q_cell_encode(DOCS_SRC, "doc_id", "doc_id"),
        "s2_tile_counts_l8": osql.q_tile_counts(LINEITEM_SRC, "k", 8),
        "s2_tile_counts_l12": osql.q_tile_counts(LINEITEM_SRC, "k", 12),
        "s2_face_histogram": osql.q_face_histogram(LINEITEM_SRC, "k"),
        "s2_tile_counts_l8_salted": osql.q_tile_counts(LINEITEM_SRC, "k", 8),
        "s2_snap_dedup_l10": osql.q_snap_dedup(DOCS_SRC, "doc_id", 10),
        "s2_pip_join_docs": pip_sql.q_pip_join(DOCS_SRC, "doc_id", layer, "doc_id"),
        "s2_pip_join_shape_index_docs": pip_sql.q_pip_join(DOCS_SRC, "doc_id", layer, "doc_id"),
        "s2_pip_join_lineitem": pip_sql.q_pip_join(
            f"SELECT DISTINCT {LINEITEM_KEY_SQL} AS k FROM lineitem", "k", layer, "k"
        ),
        "s2_cap_join_docs": pip_sql.q_region_join_caps(
            DOCS_SRC, "doc_id", ppip.standard_caps(), "doc_id"
        ),
        "s2_rect_join_lineitem": pip_sql.q_region_join_rects(
            LINEITEM_SRC, "k", ppip.standard_rects(), "k"
        ),
        "s2_knn_docs": knn_sql.q_knn(DOCS_SRC, "doc_id", k=5, n_queries=25),
        # identical semantics, different physical plan (cell-range pruning /
        # covering-explode shuffle) -> same oracles as their baselines
        "s2_knn_cell_docs": knn_sql.q_knn(DOCS_SRC, "doc_id", k=5, n_queries=25),
        "s2_pip_join_shuffle_docs": pip_sql.q_pip_join(DOCS_SRC, "doc_id", layer, "doc_id"),
        "doc_token_stats": (
            "SELECT doc_id, length(text)::BIGINT AS n_chars, "
            "len(regexp_extract_all(text, '[A-Za-z0-9]+'))::BIGINT AS n_tokens, "
            "len(regexp_extract_all(text, "
            f"'{_text.BPE_TOKEN_SQL.replace(chr(39), chr(39) * 2)}'"
            "))::BIGINT AS n_bpe_tokens "
            "FROM documents"
        ),
        "doc_exact_dedup": (
            "SELECT substr(md5(text),1,16) AS content_hash, "
            "min(doc_id) AS keep_id, count(*)::BIGINT AS n_dups "
            "FROM documents GROUP BY 1"
        ),
        "events_asof_purchase_view": (
            "WITH v AS (SELECT user_id, ts, max(event_id) AS view_id FROM events "
            "WHERE event_type = 'view' GROUP BY 1, 2), "
            "p AS (SELECT event_id AS purchase_id, user_id, ts FROM events "
            "WHERE event_type = 'purchase') "
            "SELECT p.purchase_id, v.view_id "
            "FROM p ASOF JOIN v ON p.user_id = v.user_id AND v.ts < p.ts"
        ),
        "lineitem_brand_sales": (
            "SELECT p_brand, count(*)::BIGINT AS n, "
            "CAST(sum(CAST(trunc(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty "
            "FROM lineitem JOIN part ON l_partkey = p_partkey GROUP BY 1"
        ),
        "events_hll_rho_hist": _hashing.sql_splitmix64_ctes(
            "SELECT event_type, user_id FROM events", "user_id", "event_type"
        ) + (
            ", r AS (SELECT event_type, h // 4503599627370496::UBIGINT AS bucket, "
            "CASE WHEN h % 4503599627370496::UBIGINT = 0::UBIGINT THEN 53 "
            "ELSE 53 - length(bin(h % 4503599627370496::UBIGINT)) END AS rho FROM h), "
            "reg AS (SELECT event_type, bucket, max(rho) AS rho FROM r GROUP BY 1, 2) "
            "SELECT event_type, rho::BIGINT AS rho, count(*)::BIGINT AS n_buckets "
            "FROM reg GROUP BY 1, 2"
        ),
        "events_sample_5pct": _hashing.sql_splitmix64_ctes(
            "SELECT event_id, user_id, event_type FROM events",
            "event_id", "event_id, user_id, event_type",
        ) + (
            " SELECT event_id, user_id, event_type FROM h "
            f"WHERE h < {((1 << 64) * 3276) // 65536}::UBIGINT"
        ),
        "events_range_join_1h": (
            "SELECT p.event_id AS purchase_id, count(v.event_id)::BIGINT AS n_views "
            "FROM events p LEFT JOIN events v "
            "ON v.user_id = p.user_id AND v.event_type = 'view' "
            "AND epoch_us(v.ts) >= epoch_us(p.ts) - 3600000000 "
            "AND epoch_us(v.ts) < epoch_us(p.ts) "
            "WHERE p.event_type = 'purchase' GROUP BY 1"
        ),
        "events_quantiles_by_type": (
            "WITH r AS (SELECT event_type, value, "
            "row_number() OVER (PARTITION BY event_type ORDER BY value) AS rk, "
            "count(*) OVER (PARTITION BY event_type) AS n FROM events) "
            "SELECT event_type, max(n)::BIGINT AS n, "
            "max(CASE WHEN rk = (50*n + 99)//100 THEN value END) AS p50, "
            "max(CASE WHEN rk = (90*n + 99)//100 THEN value END) AS p90, "
            "max(CASE WHEN rk = (99*n + 99)//100 THEN value END) AS p99 "
            "FROM r GROUP BY 1"
        ),
        "events_sessions_30m": (
            "WITH g AS (SELECT user_id, ts, CASE WHEN lag(ts) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id) IS NULL OR "
            "date_diff('microsecond', lag(ts) OVER (PARTITION BY user_id "
            "ORDER BY ts, event_id), ts) > 1800000000 THEN 1 ELSE 0 END AS brk "
            "FROM events) "
            "SELECT user_id, sum(brk)::BIGINT AS n_sessions, "
            "count(*)::BIGINT AS n_events FROM g GROUP BY 1"
        ),
        "events_window_1h": (
            "SELECT event_type, CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS window_s, "
            "count(*)::BIGINT AS n, "
            "CAST(sum(CAST(floor(value) AS BIGINT)) AS BIGINT) AS sum_floor_value "
            "FROM events GROUP BY 1, 2"
        ),
        "events_sliding_1h_15m": (
            "WITH ev AS (SELECT event_type, CAST(epoch_us(ts) AS BIGINT) AS us, "
            "CAST(floor(value) AS BIGINT) AS fv FROM events), "
            "win AS (SELECT event_type, "
            "(us // 900000000 * 900000000 - j.j * 900000000) // 1000000 AS window_s, fv "
            "FROM ev CROSS JOIN (SELECT unnest(range(0, 4)) AS j) j) "
            "SELECT event_type, window_s, count(*)::BIGINT AS n, "
            "CAST(sum(fv) AS BIGINT) AS sum_floor_value FROM win GROUP BY 1, 2"
        ),
        "doc_term_counts": (
            "WITH tok AS (SELECT unnest(regexp_extract_all(lower(text), "
            "'[A-Za-z0-9]+')) AS term FROM documents), "
            "cnt AS (SELECT term, count(*)::BIGINT AS n FROM tok GROUP BY 1), "
            "ranked AS (SELECT term, n, row_number() OVER "
            "(ORDER BY n DESC, term) AS rank FROM cnt) "
            "SELECT term, n, CAST(rank AS BIGINT) AS rank FROM ranked "
            "WHERE rank <= 100"
        ),
        "events_top3_per_type": (
            "WITH ranked AS (SELECT event_type, "
            "CAST(floor(value) AS BIGINT) AS floor_value, event_id, "
            "row_number() OVER (PARTITION BY event_type "
            "ORDER BY CAST(floor(value) AS BIGINT) DESC, event_id) AS rank "
            "FROM events) "
            "SELECT event_type, floor_value, event_id, CAST(rank AS BIGINT) AS rank "
            "FROM ranked WHERE rank <= 3"
        ),
        "events_distinct_users_per_type": (
            "SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct "
            "FROM events GROUP BY 1"
        ),
        "doc_near_dup_pairs": osql.q_near_dup_pairs(),
        "doc_char_ngram_dedup": osql.q_near_dup_pairs(
            threshold=0.6, k=4, mode="char"
        ),
        "doc_simhash": osql.q_simhash(),
        "doc_simhash_near_dup": osql.q_simhash_near_dup(),
        "doc_dedup_clusters": osql.q_dedup_clusters(osql.q_simhash_near_dup()),
        "doc_fingerprints": osql.q_fingerprints(),
        "doc_quality": osql.q_quality(),
        "ann_topk_q15": osql.q_ann_q15(n_queries=25, k=10),
        "emb_near_dup_q15": osql.q_emb_near_dup_q15(threshold_q15=1_000_000_000),
        "h3_tile_counts_r5": h3_sql.q_h3_tile_counts(LINEITEM_SRC, "k", 5),
        # ann_cosine_topk / emb_near_dup_pairs: deliberately no SQL oracle
        # (float dot-product reductions have no bit-exact SQL twin) ->
        # driver rows-only check; the pytest suite holds their
        # brute-force recall/precision oracles.
    }
