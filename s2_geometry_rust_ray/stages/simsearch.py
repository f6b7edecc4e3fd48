"""Similarity search over an embedding column (list<float>).

Every step that differs between float cosine and exact Q15 fixed-point
arithmetic lives in one `Arith` object, `COSINE` or `Q15`; the pipelines
are written once and take it as `arith`.

- Top-k (`ann_topk`): one stage, `TopKScan`, scans each batch against
  broadcast queries (one `(n, Q)` matmul) and keeps a tie-safe partial
  top-k per query (knn.local_topk); it is the `prepare` of the engine's
  one top-k, `agg.grouped_topk` by query_id ranked by (score desc,
  vec_id asc) — the same plan as geo kNN.
- IVF (`ann_topk_ivf`, scale path): rows are bucketed to their nearest of
  K centroids (deterministic seeded k-means-lite on a sample); a query
  scans only its nprobe buckets.  `build_ivf_index` makes the bucket the
  storage layout, so `ann_topk_ivf_indexed` prunes the read itself.
- Embedding near-dup (`embedding_near_dup`): `exchange.near_dup` over
  hyperplane-LSH buckets, with a verify over vectors that cross the pair
  joins as one fixed_size_binary column (pack_vectors / unpack_vectors:
  the flat buffer, no per-row Python).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa

from . import agg
from .exchange import as_dataset, map_blocks, with_schema
from .knn import local_topk


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


def pack_vectors(mat: np.ndarray) -> pa.FixedSizeBinaryArray:
    """(n, d) matrix -> fixed_size_binary[d * itemsize], one value per row.
    Zero-copy: the rows of a C-contiguous matrix already are the values.
    Arrow joins reject list payloads but carry fixed-width binary."""
    mat = np.ascontiguousarray(mat)
    return pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(mat.shape[1] * mat.itemsize), len(mat),
        [None, pa.py_buffer(mat)],
    )


def unpack_vectors(col, dtype) -> np.ndarray:
    """pack_vectors' inverse for an Array (sliced or not) or a
    ChunkedArray -> (n, d) read-only matrix of `dtype`."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    width = col.type.byte_width
    d = width // np.dtype(dtype).itemsize
    return np.frombuffer(col.buffers()[1], dtype, len(col) * d,
                         col.offset * width).reshape(-1, d)


def quantize_q15(vecs: np.ndarray) -> np.ndarray:
    """Fixed-point Q15 quantization: rint(clip(v * 32767)) as int64.
    float32 -> float64 is exact and v*32767.0 is exact (24+15 bit mantissa
    fits float64), np.rint is half-to-even == DuckDB round_even — so the
    SQL twin reproduces the quantized values bit-for-bit, and the integer
    dot products that follow are ORDER-FREE exact sums (the trick that
    makes an ANN variant oracle-checkable; float dots are not)."""
    q = np.rint(np.asarray(vecs, dtype=np.float64) * 32767.0)
    return np.clip(q, -32768.0, 32767.0).astype(np.int64)


def q15_planes(num_planes: int = 16, dim: int = 64, seed: int = 7) -> np.ndarray:
    """Deterministic INTEGER hyperplanes for the exact LSH variant:
    rint(normal * 1000) as int64 — the same constants are embedded as
    literals in the SQL twin, and every (q15 vector . plane) product stays
    far below 2^63 (32767 * ~4000 * 64)."""
    rng = np.random.default_rng(seed)
    return np.rint(rng.normal(size=(num_planes, dim)) * 1000.0).astype(np.int64)


class Arith(NamedTuple):
    """The steps that differ between the two arithmetics."""

    scan: Callable  # vectors -> top-k scan matrix (queries and rows alike)
    bucket: Callable  # vectors -> LSH matrix, signed against `planes`
    planes: Callable  # (num_planes, dim, seed) -> hyperplanes
    pack: Callable  # vectors -> `wire` matrix crossing the pair joins
    wire: type  # dtype of the packed matrix
    verify: Callable  # (wire a, wire b) -> per-pair score
    col: str  # score column of every output
    dtype: type  # its dtype


# float cosine: checked by row count only (float dots have no bit-exact SQL
# twin).  Vectors are normalized as float32 for the scan, in their read
# dtype for the LSH signs and as float64 for the near-dup verify; each
# precision is part of the output bits.
COSINE = Arith(
    scan=lambda v: _normalize(np.asarray(v, dtype=np.float32)),
    bucket=_normalize,
    planes=lambda n, d, seed: np.random.default_rng(seed).normal(size=(n, d)),
    pack=lambda v: np.asarray(v, dtype=np.float64),
    wire=np.float64,
    verify=lambda a, b: (_normalize(a) * _normalize(b)).sum(axis=1),
    col="cosine",
    dtype=np.float64,
)

# Q15 fixed point: every step is integer arithmetic, so ann_topk and
# embedding_near_dup have hash-exact DuckDB twins (oracle/sql.q_ann_q15,
# q_emb_near_dup_q15)
Q15 = Arith(
    scan=quantize_q15,
    bucket=quantize_q15,
    planes=q15_planes,
    pack=lambda v: quantize_q15(v).astype(np.int16),
    wire=np.int16,
    verify=lambda a, b: (a.astype(np.int64) * b.astype(np.int64)).sum(axis=1),
    col="dot_q15",
    dtype=np.int64,
)


class TopKScan:
    """Stage: per-batch top-k of every broadcast query by `arith`'s score,
    ties broken by vec_id ascending (the oracle's row_number order).

    `ivf` = (normalized centroids, (Q, nprobe) probed bucket ids) is set
    only by the IVF entry points: each query then scores only the rows
    whose argmax centroid it probes (a masked matvec per query)."""

    def __init__(self, queries: np.ndarray, query_ids: np.ndarray, k: int,
                 arith: Arith = COSINE, ivf=None):
        self.arith = arith
        self.q = arith.scan(queries)
        self.qid = np.asarray(query_ids, dtype=np.int64)
        self.k = int(k)
        self.ivf = ivf

    def _scores(self, mat: np.ndarray, ids: np.ndarray):
        """(query index, scores, their ids) per query that scans any row."""
        if self.ivf is None:
            sims = mat @ self.q.T  # (n, Q)
            for qi in range(len(self.q)):
                yield qi, sims[:, qi], ids
            return
        cent, probe = self.ivf
        bucket = (mat @ cent.T).argmax(axis=1)
        for qi in range(len(self.q)):
            m = np.isin(bucket, probe[qi])
            if m.any():
                yield qi, mat[m] @ self.q[qi], ids[m]

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = self.arith.scan(batch_embeddings(batch))
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        out_q = [np.array([], np.int64)]
        out_v = [np.array([], np.int64)]
        out_s = [np.array([], self.arith.dtype)]
        for qi, s, sel_ids in self._scores(mat, ids):
            order = local_topk(-s, sel_ids, self.k)
            out_q.append(np.full(len(order), self.qid[qi], dtype=np.int64))
            out_v.append(sel_ids[order])
            out_s.append(s[order].astype(self.arith.dtype))
        return pa.table(
            {"query_id": np.concatenate(out_q), "vec_id": np.concatenate(out_v),
             self.arith.col: np.concatenate(out_s)}
        )


def _scan_topk(ds, queries, query_ids, k, arith, ivf=None):
    """`TopKScan` over 65536-row slices, merged by the one top-k."""
    scan = TopKScan(queries, query_ids, k, arith, ivf)
    return with_schema(agg.grouped_topk(
        ds, ["query_id"], [(arith.col, "descending"), ("vec_id", "ascending")],
        k, prepare=scan, batch_size=65536), _topk_schema(arith))


def _topk_schema(arith: Arith) -> pa.Schema:
    """The top-k output of `arith`, also when empty."""
    return pa.schema([("query_id", pa.int64()), ("vec_id", pa.int64()),
                      (arith.col, pa.from_numpy_dtype(arith.dtype)),
                      ("rank", pa.int64())])


def ann_topk(ds, queries: np.ndarray, query_ids: np.ndarray, k: int = 10,
             arith: Arith = COSINE):
    """Brute-force top-k of every query over (vec_id, embedding) rows:
    (query_id, vec_id, cosine | dot_q15, rank).  With arith=Q15 the
    result is hash-exact (integer dots are order-free sums)."""
    return _scan_topk(ds, queries, query_ids, k, arith)


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
        self.cent = COSINE.scan(centroids)

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = COSINE.scan(batch_embeddings(batch))
        bucket = (mat @ self.cent.T).argmax(axis=1).astype(np.int64)
        return batch.append_column("ivf_bucket", pa.array(bucket))


def _ivf_probe(queries: np.ndarray, centroids, nprobe: int):
    """(normalized centroids, (Q, nprobe) probed bucket ids).

    Normalize EXACTLY ONCE from the caller's raw arrays: _normalize is not
    bit-idempotent (~1/3 of unit rows move one ulp on a second pass), so
    the probe set, the scan's per-row argmax and IVFAssign's buckets agree
    only if each starts from the same caller array.  Hand every IVF entry
    point (build_ivf_index, ann_topk_ivf, ann_topk_ivf_indexed) the SAME
    centroid array, or an ulp-tied row can vanish from the indexed path."""
    cent = COSINE.scan(centroids)
    probe = np.argsort(-(COSINE.scan(queries) @ cent.T), axis=1)[:, :nprobe]
    return cent, probe


def ann_topk_ivf(ds, queries: np.ndarray, query_ids: np.ndarray, centroids,
                 k: int = 10, nprobe: int = 4):
    """IVF-pruned cosine top-k: scan only batches' rows whose bucket is in
    each query's nprobe nearest buckets.  Approximate (standard IVF recall
    tradeoff).  This form prunes COMPUTE only — at scale, build the
    bucket-partitioned index once (build_ivf_index) and query it with
    ann_topk_ivf_indexed, which prunes the READ to the probed bucket
    directories (the same vec ids, see there)."""
    return _scan_topk(ds, queries, query_ids, k, COSINE,
                      _ivf_probe(queries, centroids, nprobe))


def build_ivf_index(ds, centroids, out_dir: str):
    """Materialize the embeddings table PARTITIONED BY IVF BUCKET (hive
    layout out_dir/ivf_bucket=<b>/...) — the bucket becomes the STORAGE
    layout, so an indexed query prunes at the READ: only the probed
    bucket directories leave storage, ~nprobe/n_centroids of the data
    instead of a full scan filtered per batch (r4 verdict #3).  Also the
    resumable-output shape: one directory per bucket, re-buildable per
    bucket.  Returns out_dir."""
    tagged = map_blocks(ds, IVFAssign(centroids), 65536)
    tagged.write_parquet(out_dir, partition_cols=["ivf_bucket"])
    return out_dir


def ann_topk_ivf_indexed(index_dir: str, queries: np.ndarray,
                         query_ids: np.ndarray, centroids, k: int = 10,
                         nprobe: int = 4):
    """IVF top-k over a build_ivf_index directory: I/O pruning, not just
    compute pruning.  The union of every query's nprobe nearest buckets
    selects which partition DIRECTORIES are read at all; the per-query
    nprobe restriction (and the exact per-row bucket re-derivation, the
    same argmax the writer ran) then runs inside the scan as before.  So
    the output has ann_topk_ivf's vec id at every (query, rank), and its
    cosines equal ann_topk_ivf's up to float32 matmul rounding: BLAS
    summation order depends on the batch's row count, and this read cuts
    different batches (at sf0.01 two cosines differ in their low bits)."""
    import os

    import ray.data

    if not os.path.isdir(index_dir):
        raise FileNotFoundError(
            f"IVF index directory {index_dir!r} does not exist — build it "
            "with build_ivf_index first (a missing index must not read as "
            "'zero neighbors everywhere')"
        )
    ivf = _ivf_probe(queries, centroids, nprobe)
    paths = []  # empty buckets were never written
    for b in np.unique(ivf[1]):
        d = os.path.join(index_dir, f"ivf_bucket={int(b)}")
        if os.path.isdir(d):
            paths.extend(sorted(
                os.path.join(d, f) for f in os.listdir(d)
                if f.endswith(".parquet")
            ))
    if not paths:
        return as_dataset(_topk_schema(COSINE).empty_table())
    ds = ray.data.read_parquet(paths, columns=["vec_id", "embedding"])
    return _scan_topk(ds, queries, query_ids, k, COSINE, ivf)


def embedding_near_dup(ds, threshold: float, num_planes: int = 16,
                       num_parts: int | None = None, seed: int = 7,
                       arith: Arith = COSINE):
    """Embedding near-duplicate pairs: (vec_id_a, vec_id_b, score) with
    score >= threshold — cosine (arith=COSINE) or the integer dot of
    Q15-quantized vectors (arith=Q15, threshold in Q15^2 units).

    Hyperplane LSH: the sign pattern against `num_planes` seeded
    hyperplanes (dimension read from the vectors) buckets every row; only
    bucket-sharing pairs are verified, by the one `exchange.near_dup`
    every near-dup pipeline runs.  Recall is probabilistic (a near-dup pair
    lands in the same bucket with prob (1 - theta/pi)^num_planes).  COSINE
    output is rows-only checked (float reduction, no bit-exact SQL twin);
    Q15 is exact end to end (oracle/sql.q_emb_near_dup_q15)."""
    from . import exchange

    def bands(batch: pa.Table):
        v = arith.bucket(batch_embeddings(batch))
        signs = (v @ arith.planes(num_planes, v.shape[1], seed).T) > 0
        keys = np.zeros(len(v), dtype=np.uint64)
        for i in range(num_planes):
            keys |= signs[:, i].astype(np.uint64) << np.uint64(i)
        return batch["vec_id"], keys.view(np.int64)[:, None]

    def payload(batch: pa.Table) -> pa.Table:
        return pa.table({"vec_id": batch["vec_id"],
                         "vec": pack_vectors(arith.pack(batch_embeddings(batch)))})

    def verify(batch: pa.Table):
        score = arith.verify(unpack_vectors(batch["vec_a"], arith.wire),
                             unpack_vectors(batch["vec_b"], arith.wire))
        keep = score >= threshold
        mask = pa.array(keep)
        return (batch["vec_id_a"].filter(mask), batch["vec_id_b"].filter(mask),
                score[keep])

    schema = pa.schema([("vec_id_a", pa.int64()), ("vec_id_b", pa.int64()),
                        (arith.col, pa.from_numpy_dtype(arith.dtype))])
    return exchange.near_dup(ds, "vec_id", bands, payload, verify, schema,
                             num_parts)
