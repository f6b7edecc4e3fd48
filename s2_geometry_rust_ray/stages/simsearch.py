"""Similarity search over an embedding column (list<float>).

- Brute-force cosine top-k baseline: numpy matmul per batch against a
  broadcast query matrix (queries ride the object store once per actor),
  partial top-k per block, tiny merge — same plan shape as geo kNN.
- IVF-bucketed variant (scale path): assign vectors to nprobe nearest of
  K centroids (deterministic seeded k-means-lite on a sample); queries only
  scan their nprobe buckets.  Bucket id becomes the partition/shuffle key.
- Embedding near-dup: cosine >= threshold pairs via the same bucketing.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .exchange import actor_map as _actor_map, topk_merge_partials


def _normalize(mat: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(mat, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return mat / n


def batch_embeddings(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    """list<float> column -> (n, d) float32 matrix, zero-copy-ish."""
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.values.to_numpy(zero_copy_only=False)
    offsets = arr.offsets.to_numpy(zero_copy_only=False)
    d = int(offsets[1] - offsets[0]) if len(offsets) > 1 else 0
    return flat.reshape(-1, d)


class BruteCosineTopK:
    """Actor stage: per-batch cosine top-k against broadcast queries."""

    def __init__(self, queries: np.ndarray, query_ids: np.ndarray, k: int,
                 id_col: str = "vec_id"):
        import ray

        if isinstance(queries, ray.ObjectRef):
            queries = ray.get(queries)
        self.q = _normalize(np.asarray(queries, dtype=np.float32))
        self.qid = np.asarray(query_ids, dtype=np.int64)
        self.k = int(k)
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _normalize(batch_embeddings(batch).astype(np.float32))
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        sims = mat @ self.q.T  # (n, Q)
        out_q, out_v, out_s = [], [], []
        k = min(self.k, sims.shape[0])
        for qi in range(sims.shape[1]):
            s = sims[:, qi]
            order = _topk_with_ties(s, ids, k)
            out_q.append(np.full(len(order), self.qid[qi], dtype=np.int64))
            out_v.append(ids[order])
            out_s.append(s[order].astype(np.float64))
        return pa.table(
            {"query_id": np.concatenate(out_q), "vec_id": np.concatenate(out_v),
             "cosine": np.concatenate(out_s)}
        )


def merge_topk(batch: pa.Table, k: int, val_col: str = "cosine") -> pa.Table:
    """Final top-k merge ranked by (val desc, vec_id asc) within each
    query — the ONE merge kernel for both the float-cosine and integer
    Q15 pipelines (the tie-break order IS the oracle contract)."""
    qid = batch["query_id"].to_numpy(zero_copy_only=False)
    vid = batch["vec_id"].to_numpy(zero_copy_only=False)
    s = batch[val_col].to_numpy(zero_copy_only=False)
    order = np.lexsort((vid, -s, qid))
    qid, vid, s = qid[order], vid[order], s[order]
    uq, starts = np.unique(qid, return_index=True)
    rank = np.arange(len(qid)) - np.repeat(starts, np.diff(np.append(starts, len(qid))))
    keep = rank < k
    return pa.table(
        {"query_id": qid[keep], "vec_id": vid[keep],
         val_col: s[keep], "rank": (rank[keep] + 1).astype(np.int64)}
    )


def _topk_with_ties(d: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best rows under the FULL (d desc, id asc) order.
    argpartition alone picks an arbitrary subset among rows tied at the
    k-th value — which breaks the hash-exact tie-break contract — so the
    cutoff-tied rows are gathered and lexsorted exactly."""
    if len(d) <= k:
        return np.lexsort((ids, -d))
    part = np.argpartition(-d, k - 1)
    kth = d[part[k - 1]]
    cand = np.nonzero(d >= kth)[0]
    return cand[np.lexsort((ids[cand], -d[cand]))][:k]


def ann_topk(ds, queries: np.ndarray, query_ids: np.ndarray, k: int = 10,
             concurrency=None, merge: str = "single"):
    """Brute-force cosine top-k pipeline (baseline)."""
    partials = _actor_map(
        ds,
        BruteCosineTopK,
        fn_constructor_kwargs={"queries": queries, "query_ids": query_ids, "k": k},
        batch_size=65536,
        concurrency=concurrency,
    )
    return topk_merge_partials(partials, lambda b: merge_topk(b, k), merge)


def quantize_q15(vecs: np.ndarray) -> np.ndarray:
    """Fixed-point Q15 quantization: rint(clip(v * 32767)) as int64.
    float32 -> float64 is exact and v*32767.0 is exact (24+15 bit mantissa
    fits float64), np.rint is half-to-even == DuckDB round_even — so the
    SQL twin reproduces the quantized values bit-for-bit, and the integer
    dot products that follow are ORDER-FREE exact sums (the trick that
    makes an ANN variant oracle-checkable; float dots are not)."""
    q = np.rint(np.asarray(vecs, dtype=np.float64) * 32767.0)
    return np.clip(q, -32768.0, 32767.0).astype(np.int64)


class Q15TopK:
    """Actor stage: integer fixed-point cosine top-k — the quantized-ANN
    variant (what int8/int16 FAISS indexes do at scale), with an exact
    integer SQL twin (oracle/sql.q_ann_q15).  Queries broadcast once per
    actor; per batch one int64 matmul + per-query partial top-k."""

    def __init__(self, queries: np.ndarray, query_ids: np.ndarray, k: int,
                 id_col: str = "vec_id"):
        import ray

        if isinstance(queries, ray.ObjectRef):
            queries = ray.get(queries)
        self.q = quantize_q15(np.asarray(queries))
        self.qid = np.asarray(query_ids, dtype=np.int64)
        self.k = int(k)
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = quantize_q15(batch_embeddings(batch))
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        dots = mat @ self.q.T  # (n, Q) int64
        out_q, out_v, out_d = [], [], []
        k = min(self.k, dots.shape[0])
        for qi in range(dots.shape[1]):
            d = dots[:, qi]
            order = _topk_with_ties(d, ids, k)
            out_q.append(np.full(len(order), self.qid[qi], dtype=np.int64))
            out_v.append(ids[order])
            out_d.append(d[order])
        return pa.table(
            {"query_id": np.concatenate(out_q), "vec_id": np.concatenate(out_v),
             "dot_q15": np.concatenate(out_d)}
        )


def ann_topk_q15(ds, queries: np.ndarray, query_ids: np.ndarray, k: int = 10,
                 concurrency=None, merge: str = "single"):
    """Quantized fixed-point ANN top-k — hash-exact oracle-checkable
    (integer dots are order-free; ties broken by vec_id ascending)."""
    partials = _actor_map(
        ds,
        Q15TopK,
        fn_constructor_kwargs={"queries": queries, "query_ids": query_ids, "k": k},
        batch_size=65536,
        concurrency=concurrency,
    )
    return topk_merge_partials(
        partials, lambda b: merge_topk(b, k, val_col="dot_q15"), merge
    )


def train_centroids(sample: np.ndarray, n_centroids: int, iters: int = 8,
                    seed: int = 42) -> np.ndarray:
    """Deterministic mini k-means for IVF bucketing (runs on a driver-side
    sample; at scale: ds.random_sample(frac, seed).take_all())."""
    rng = np.random.default_rng(seed)
    sample = _normalize(np.asarray(sample, dtype=np.float32))
    idx = rng.choice(len(sample), size=min(n_centroids, len(sample)), replace=False)
    cent = sample[idx].copy()
    for _ in range(iters):
        sims = sample @ cent.T
        assign = sims.argmax(axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = sample[m].mean(axis=0)
        cent = _normalize(cent)
    return cent


class IVFAssign:
    """Stage: append ivf_bucket (argmax-cosine centroid id) — the shuffle /
    pruning key for the scale path."""

    def __init__(self, centroids: np.ndarray):
        import ray

        if isinstance(centroids, ray.ObjectRef):
            centroids = ray.get(centroids)
        self.cent = _normalize(np.asarray(centroids, dtype=np.float32))

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = _normalize(batch_embeddings(batch).astype(np.float32))
        bucket = (mat @ self.cent.T).argmax(axis=1).astype(np.int64)
        return batch.append_column("ivf_bucket", pa.array(bucket))


def ann_topk_ivf(ds, queries: np.ndarray, query_ids: np.ndarray, centroids,
                 k: int = 10, nprobe: int = 4, concurrency=None,
                 merge: str = "single"):
    """IVF-pruned cosine top-k: scan only batches' rows whose bucket is in
    each query's nprobe nearest buckets.  Approximate (standard IVF recall
    tradeoff).  This form prunes COMPUTE only — at scale, build the
    bucket-partitioned index once (build_ivf_index) and query it with
    ann_topk_ivf_indexed, which prunes the READ to the probed bucket
    directories (identical output)."""
    import ray

    # normalize EXACTLY ONCE from the caller's array; the same cent goes
    # to both the probe selection and the actors' per-row argmax.  Callers
    # must hand every IVF entry point (build_ivf_index, ann_topk_ivf,
    # ann_topk_ivf_indexed) the SAME centroid array for bucket parity.
    cent = _normalize(np.asarray(centroids, dtype=np.float32))
    q = _normalize(np.asarray(queries, dtype=np.float32))
    probe = np.argsort(-(q @ cent.T), axis=1)[:, :nprobe]  # (Q, nprobe)

    class IVFTopK(BruteCosineTopK):
        def __init__(self, queries, query_ids, k, centroids, probe):
            super().__init__(queries, query_ids, k)
            # already normalized by ann_topk_ivf: _normalize is NOT
            # bit-idempotent (~1/3 of unit rows move one ulp on a second
            # pass), and a re-normalize here would desync the per-row
            # argmax from the probe set and from the buckets the index
            # writer (IVFAssign, one normalize of the same caller array)
            # assigned — an ulp-tied row could then silently vanish from
            # the indexed read path
            self.cent = np.asarray(centroids, dtype=np.float32)
            self.probe = probe

        def __call__(self, batch: pa.Table) -> pa.Table:
            mat = _normalize(batch_embeddings(batch).astype(np.float32))
            ids = batch["vec_id"].to_numpy(zero_copy_only=False)
            bucket = (mat @ self.cent.T).argmax(axis=1)
            out_q, out_v, out_s = [], [], []
            for qi in range(len(self.q)):
                m = np.isin(bucket, self.probe[qi])
                if not m.any():
                    continue
                s = mat[m] @ self.q[qi]
                sel_ids = ids[m]
                kk = min(self.k, len(s))
                order = _topk_with_ties(s, sel_ids, kk)
                out_q.append(np.full(len(order), self.qid[qi], dtype=np.int64))
                out_v.append(sel_ids[order])
                out_s.append(s[order].astype(np.float64))
            if not out_q:
                return pa.table({"query_id": pa.array([], pa.int64()),
                                 "vec_id": pa.array([], pa.int64()),
                                 "cosine": pa.array([], pa.float64())})
            return pa.table(
                {"query_id": np.concatenate(out_q), "vec_id": np.concatenate(out_v),
                 "cosine": np.concatenate(out_s)}
            )

    partials = _actor_map(
        ds,
        IVFTopK,
        fn_constructor_kwargs={"queries": queries, "query_ids": query_ids, "k": k,
                               "centroids": cent, "probe": probe},
        batch_size=65536,
        concurrency=concurrency,
    )
    return topk_merge_partials(partials, lambda b: merge_topk(b, k), merge)


def build_ivf_index(ds, centroids, out_dir: str, concurrency=None):
    """Materialize the embeddings table PARTITIONED BY IVF BUCKET (hive
    layout out_dir/ivf_bucket=<b>/...) — the bucket becomes the STORAGE
    layout, so an indexed query prunes at the READ: only the probed
    bucket directories leave storage, ~nprobe/n_centroids of the data
    instead of a full scan filtered per batch (r4 verdict #3).  Also the
    resumable-output shape: one directory per bucket, re-buildable per
    bucket.  Returns out_dir."""
    tagged = _actor_map(
        ds, IVFAssign, fn_constructor_kwargs={"centroids": centroids},
        batch_size=65536, concurrency=concurrency,
    )
    tagged.write_parquet(out_dir, partition_cols=["ivf_bucket"])
    return out_dir


def ann_topk_ivf_indexed(index_dir: str, queries: np.ndarray,
                         query_ids: np.ndarray, centroids, k: int = 10,
                         nprobe: int = 4, concurrency=None,
                         merge: str = "single"):
    """IVF top-k over a build_ivf_index directory: I/O pruning, not just
    compute pruning.  The union of every query's nprobe nearest buckets
    selects which partition DIRECTORIES are read at all; the per-query
    nprobe restriction (and the exact per-row bucket re-derivation, the
    same argmax the writer ran) then runs inside the scan as before, so
    the output is identical to ann_topk_ivf over the full table."""
    import os

    import ray.data

    if not os.path.isdir(index_dir):
        raise FileNotFoundError(
            f"IVF index directory {index_dir!r} does not exist — build it "
            "with build_ivf_index first (a missing index must not read as "
            "'zero neighbors everywhere')"
        )
    # one normalize for directory probing — bit-identical to the one the
    # inner ann_topk_ivf call performs, because BOTH start from the
    # caller's raw array (centroids is passed through un-normalized below;
    # _normalize is not bit-idempotent)
    cent = _normalize(np.asarray(centroids, dtype=np.float32))
    q = _normalize(np.asarray(queries, dtype=np.float32))
    probe = np.argsort(-(q @ cent.T), axis=1)[:, :nprobe]
    paths = []  # empty buckets were never written
    for b in np.unique(probe):
        d = os.path.join(index_dir, f"ivf_bucket={int(b)}")
        if os.path.isdir(d):
            paths.extend(sorted(
                os.path.join(d, f) for f in os.listdir(d)
                if f.endswith(".parquet")
            ))
    if not paths:
        return ray.data.from_arrow(pa.table(
            {"query_id": pa.array([], pa.int64()),
             "vec_id": pa.array([], pa.int64()),
             "cosine": pa.array([], pa.float64()),
             "rank": pa.array([], pa.int64())}
        ))
    ds = ray.data.read_parquet(paths, columns=["vec_id", "embedding"])
    return ann_topk_ivf(ds, queries, query_ids, centroids, k=k,
                        nprobe=nprobe, concurrency=concurrency, merge=merge)


def embedding_near_dup(ds, threshold: float = 0.9, num_planes: int = 16,
                       num_parts: int | None = None, dim: int = 64, seed: int = 7):
    """Embedding-cosine near-duplicate pairs: (vec_id_a, vec_id_b, cosine).

    Hyperplane LSH: sign pattern of `num_planes` seeded random hyperplanes
    buckets the (normalized) embeddings; only bucket-sharing pairs are
    verified with the exact cosine.  Fully distributed (bucket hash
    exchange -> per-bucket pairs -> pair dedup -> signature joins), same
    shape as the MinHash path.  Recall is probabilistic (a near-dup pair
    lands in the same bucket with prob (1 - theta/pi)^num_planes); the
    pytest oracle checks no-false-positives + high-similarity recall.
    Rows-only driver check — cosine is a float reduction with no bit-exact
    SQL twin.
    """
    from . import exchange

    if num_parts is None:
        num_parts = exchange.default_num_parts()
    rng = np.random.default_rng(seed)
    planes = rng.normal(size=(num_planes, dim)).astype(np.float64)

    def bucket_stage(batch: pa.Table) -> pa.Table:
        emb = _normalize(batch_embeddings(batch))
        signs = (emb @ planes.T) > 0.0  # (n, planes)
        keys = np.zeros(len(emb), dtype=np.uint64)
        for i in range(num_planes):
            keys |= signs[:, i].astype(np.uint64) << np.uint64(i)
        return pa.table(
            {"vec_id": batch["vec_id"], "bucket": keys.view(np.int64)}
        )

    buckets = ds.map_batches(bucket_stage, batch_format="pyarrow")
    cand = exchange.lsh_candidate_pairs(
        buckets, "vec_id", "bucket", num_parts, "vec_id_a", "vec_id_b"
    )

    # pyarrow joins reject list<double> payload columns — carry embeddings
    # as fixed-width binary through the joins, unpack in the verify
    def pack(batch: pa.Table) -> pa.Table:
        # cast BEFORE packing: the parquet column is float32, and _unpack
        # reads float64 — packing the raw float32 bytes would reinterpret
        # every pair of values as one garbage double
        emb = batch_embeddings(batch).astype(np.float64)
        return pa.table(
            {"vec_id": batch["vec_id"],
             "embbin": pa.array([e.tobytes() for e in emb], type=pa.binary())}
        )

    packed = ds.map_batches(pack, batch_format="pyarrow")
    j2 = exchange.attach_pair_payloads(
        cand, packed, "vec_id", "embbin", "vec_id_a", "vec_id_b", num_parts
    )

    def _unpack(col) -> np.ndarray:
        return np.stack(
            [np.frombuffer(b, dtype=np.float64) for b in col.to_pylist()]
        )

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"vec_id_a": pa.array([], pa.int64()),
                 "vec_id_b": pa.array([], pa.int64()),
                 "cosine": pa.array([], pa.float64())}
            )
        ea = _normalize(_unpack(batch["embbin_a"]))
        eb = _normalize(_unpack(batch["embbin_b"]))
        cos = (ea * eb).sum(axis=1)
        keep = cos >= threshold
        return pa.table(
            {"vec_id_a": batch["vec_id_a"].to_numpy(zero_copy_only=False)[keep],
             "vec_id_b": batch["vec_id_b"].to_numpy(zero_copy_only=False)[keep],
             "cosine": cos[keep]}
        )

    return j2.map_batches(verify, batch_format="pyarrow")


def q15_planes(num_planes: int = 16, dim: int = 64, seed: int = 7) -> np.ndarray:
    """Deterministic INTEGER hyperplanes for the exact LSH variant:
    rint(normal * 1000) as int64 — the same constants are embedded as
    literals in the SQL twin, and every (q15 vector . plane) product stays
    far below 2^63 (32767 * ~4000 * 64)."""
    rng = np.random.default_rng(seed)
    return np.rint(rng.normal(size=(num_planes, dim)) * 1000.0).astype(np.int64)


def embedding_near_dup_q15(ds, threshold_q15: int, num_planes: int = 16,
                           num_parts: int | None = None, dim: int = 64,
                           seed: int = 7, hot_bucket_cap: int = 1024):
    """Exact-arithmetic embedding near-dup: (vec_id_a, vec_id_b, dot_q15).

    Same distributed shape as embedding_near_dup, but EVERY arithmetic
    step is integer: Q15-quantized vectors, integer hyperplane sign
    buckets (strict > 0), and an integer-dot verify >= threshold_q15 —
    so the whole pipeline has a hash-exact DuckDB twin
    (oracle/sql.q_emb_near_dup_q15), unlike the float-cosine variant."""
    from . import exchange

    if num_parts is None:
        num_parts = exchange.default_num_parts()
    planes = q15_planes(num_planes, dim, seed)

    def bucket_stage(batch: pa.Table) -> pa.Table:
        q = quantize_q15(batch_embeddings(batch))
        signs = (q @ planes.T) > 0  # (n, planes) exact integer signs
        keys = np.zeros(len(q), dtype=np.uint64)
        for i in range(num_planes):
            keys |= signs[:, i].astype(np.uint64) << np.uint64(i)
        return pa.table(
            {"vec_id": batch["vec_id"], "bucket": keys.view(np.int64)}
        )

    buckets = ds.map_batches(bucket_stage, batch_format="pyarrow")
    cand = exchange.lsh_candidate_pairs(
        buckets, "vec_id", "bucket", num_parts, "vec_id_a", "vec_id_b",
        hot_bucket_cap=hot_bucket_cap,
    )

    def pack(batch: pa.Table) -> pa.Table:
        q = quantize_q15(batch_embeddings(batch)).astype(np.int16)
        return pa.table(
            {"vec_id": batch["vec_id"],
             "q15bin": pa.array([v.tobytes() for v in q], type=pa.binary())}
        )

    packed = ds.map_batches(pack, batch_format="pyarrow")
    j2 = exchange.attach_pair_payloads(
        cand, packed, "vec_id", "q15bin", "vec_id_a", "vec_id_b", num_parts
    )

    def _unpack(col) -> np.ndarray:
        return np.stack(
            [np.frombuffer(b, dtype=np.int16) for b in col.to_pylist()]
        ).astype(np.int64)

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"vec_id_a": pa.array([], pa.int64()),
                 "vec_id_b": pa.array([], pa.int64()),
                 "dot_q15": pa.array([], pa.int64())}
            )
        qa = _unpack(batch["q15bin_a"])
        qb = _unpack(batch["q15bin_b"])
        dot = (qa * qb).sum(axis=1)
        keep = dot >= threshold_q15
        return pa.table(
            {"vec_id_a": batch["vec_id_a"].to_numpy(zero_copy_only=False)[keep],
             "vec_id_b": batch["vec_id_b"].to_numpy(zero_copy_only=False)[keep],
             "dot_q15": dot[keep]}
        )

    return j2.map_batches(verify, batch_format="pyarrow")
