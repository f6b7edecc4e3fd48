"""kNN over geotagged points — S2ClosestPointQuery semantics
(/root/reference/tests/test_s2query_system_port.rs:105-125 specifies the
surface; the reference implementation is absent, canonical API in
s2geometry-cpp/src/s2/s2closest_point_query.h:37-189).

Distances are SQUARED CHORD lengths (src/chord_angle.rs:12-26 — monotone in
angle, no trig), computed with pure arithmetic so the DuckDB brute-force
oracle reproduces every candidate distance bit-exactly; ties broken by
ascending target key (deterministic total order).

Two paths:
- brute: every partition scans all its points for all queries (vectorized,
  O(Q*N/P) per partition), then a tiny per-query merge.  The correctness
  baseline, and optimal when Q*N is small.
- cell-pruned (pipelines/knn.py): partitions hold their points sorted by
  cell_id; each query examines only candidate cell ranges from a growing cap
  covering, doubling the radius until the k-th distance is <= the covered
  radius.  The 10^12-row path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.coords import latlng_deg_to_xyz


def chord2_point_to_points(qx, qy, qz, x, y, z):
    """Squared chord distances; explicit left-assoc ops (oracle twin)."""
    dx = x - qx
    dy = y - qy
    dz = z - qz
    return (dx * dx + dy * dy) + dz * dz


class BruteKnn:
    """Actor stage: local top-k per query within each batch.

    queries: dict with arrays query_id(int64), x, y, z; broadcast once per
    actor via fn_constructor_kwargs (ObjectRef or plain dict).
    """

    def __init__(self, queries, k: int, key_col: str = "k"):
        import ray

        if isinstance(queries, ray.ObjectRef):
            queries = ray.get(queries)
        self.qid = np.asarray(queries["query_id"], dtype=np.int64)
        self.qx = np.asarray(queries["x"], dtype=np.float64)
        self.qy = np.asarray(queries["y"], dtype=np.float64)
        self.qz = np.asarray(queries["z"], dtype=np.float64)
        self.k = int(k)
        self.key_col = key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lng = batch["lng"].to_numpy(zero_copy_only=False)
        x, y, z = latlng_deg_to_xyz(lat, lng)
        keys = batch[self.key_col].to_numpy(zero_copy_only=False)
        out_q, out_key, out_d2 = [], [], []
        # Deliberately ONE query per numpy pass: each pass is already
        # fully vectorized over the long (N) axis with N-sized f64 temps
        # that stay cache/L3-resident across the Q iterations.  A
        # broadcast (q_chunk, N) variant was measured 1.2-2x SLOWER
        # single-threaded at every (N, Q, chunk) tried — N=262144/Q=25
        # and N=4096..32768/Q=200 — and ~6x slower under 27-way task
        # concurrency on a DRAM-bandwidth-limited host (bench knn_brute
        # 1.25 s -> 7.2 s), because q_chunk x N temporaries are pure
        # DRAM traffic.  The Python loop costs Q numpy dispatches, which
        # is noise.  (A 2-2*dot matmul is also out: it changes the
        # floating-point expression and breaks oracle hash parity.)
        for qi in range(len(self.qid)):
            d2 = chord2_point_to_points(self.qx[qi], self.qy[qi], self.qz[qi], x, y, z)
            sel = local_topk(d2, keys, self.k)
            out_q.append(np.full(sel.size, self.qid[qi], dtype=np.int64))
            out_key.append(keys[sel])
            out_d2.append(d2[sel])
        if not out_q:  # zero queries: typed empty partial, not a crash
            return pa.table(
                {"query_id": pa.array([], pa.int64()),
                 "neighbor": pa.array(
                     [], batch.schema.field(self.key_col).type),
                 "d2": pa.array([], pa.float64())}
            )
        return pa.table(
            {
                "query_id": np.concatenate(out_q),
                "neighbor": np.concatenate(out_key),
                "d2": np.concatenate(out_d2),
            }
        )


def local_topk(d2: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest by (d2, key) — tie-safe: selects by d2
    threshold first, then lexsorts the candidate set."""
    n = d2.shape[0]
    if n <= k:
        return np.lexsort((keys, d2))
    part = np.argpartition(d2, k - 1)[:k]
    thresh = d2[part].max()
    cand = np.nonzero(d2 <= thresh)[0]
    order = np.lexsort((keys[cand], d2[cand]))[:k]
    return cand[order]


def build_query_rings(queries: dict, k: int, n_estimate: int, max_rounds: int = 12):
    """Driver-side precomputation for the cell-pruned path: for each query
    and each radius in a doubling schedule, a conservative cell covering of
    the cap as sorted (range_min, range_max) leaf ranges.  Shipped to actors
    once.

    Covering = the 3x3 block (cell + AppendAllNeighbors) at the coarsest
    level whose kMinWidth (2*sqrt(2)/3 / 2^L, C++ s2metrics) still exceeds
    2r — any point within angular distance r of the center then cannot
    escape the block, so the block covers the cap (conservative).  One
    encode + one neighbor call per ring: microseconds, vs ~0.1 s for a full
    RegionCoverer run.  r0 targets ~4k expected points under a uniform
    density estimate; hot-cluster queries just run one or two more rounds."""
    import math

    from ..functions import cellid as cid
    from ..geometry import cell_union
    from ..geometry.cap import chord2_from_radians

    K_MIN_WIDTH = 2.0 * math.sqrt(2.0) / 3.0  # radians at level 0

    density = max(n_estimate, 1) / (4 * math.pi)
    r0 = math.sqrt((4 * max(k, 1)) / density / math.pi)
    r0 = min(max(r0, 1e-4), math.pi)
    full_min = np.array([0], dtype=np.uint64) + np.uint64(1)
    full_max = np.array([np.iinfo(np.uint64).max], dtype=np.uint64)
    rings = []
    for qi in range(len(queries["query_id"])):
        lat = np.array([float(np.rad2deg(np.arcsin(np.clip(queries["z"][qi], -1, 1))))])
        lng = np.array([float(np.rad2deg(np.arctan2(queries["y"][qi], queries["x"][qi])))])
        leaf = int(cid.from_latlng_deg(lat, lng)[0])
        per_q = []
        r = r0
        for _ in range(max_rounds):
            if r >= 0.4:
                per_q.append((4.0, full_min, full_max))
                break
            lv = int(math.floor(math.log2(K_MIN_WIDTH / (2.0 * r))))
            lv = max(0, min(30, lv))
            center = int(cid.parent(np.array([leaf], np.uint64), lv)[0])
            block = np.concatenate(
                [[np.uint64(center)], cid.all_neighbors(center, lv)]
            ).astype(np.uint64)
            cov = cell_union.normalize(block)
            per_q.append(
                (
                    float(chord2_from_radians(r)),
                    cid.range_min(cov).astype(np.uint64),
                    cid.range_max(cov).astype(np.uint64),
                )
            )
            r *= 2.0
        rings.append(per_q)
    return rings


class CellPrunedKnn:
    """Actor stage: exact per-batch top-k via cell-range pruning.

    Each batch is sorted by leaf cell once; per query, candidate rows come
    from searchsorted over the precomputed cap-covering ranges, with the
    radius doubled until the local k-th distance is covered (<= chord^2 of
    the ring radius) or the whole batch is scanned.  Local exactness =>
    global exactness after the merge (same guarantee as brute force,
    S2ClosestPointQuery's conservative-radius termination rule)."""

    def __init__(self, queries, k: int, rings, key_col: str = "k"):
        import ray

        if isinstance(queries, ray.ObjectRef):
            queries = ray.get(queries)
        if isinstance(rings, ray.ObjectRef):
            rings = ray.get(rings)
        self.qid = np.asarray(queries["query_id"], dtype=np.int64)
        self.qx = np.asarray(queries["x"], dtype=np.float64)
        self.qy = np.asarray(queries["y"], dtype=np.float64)
        self.qz = np.asarray(queries["z"], dtype=np.float64)
        self.k = int(k)
        self.rings = rings
        self.key_col = key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions import cellid as cid

        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lng = batch["lng"].to_numpy(zero_copy_only=False)
        x, y, z = latlng_deg_to_xyz(lat, lng)
        keys = batch[self.key_col].to_numpy(zero_copy_only=False)
        cells = cid.from_latlng_deg(lat, lng)
        order = np.argsort(cells, kind="stable")
        cells_s = cells[order]
        out_q, out_key, out_d2 = [], [], []
        n = len(keys)
        for qi in range(len(self.qid)):
            found = None
            for r2, rmin, rmax in self.rings[qi]:
                lo = np.searchsorted(cells_s, rmin, side="left")
                hi = np.searchsorted(cells_s, rmax, side="right")
                if (hi - lo).sum() == 0:
                    continue
                idx = np.concatenate([order[a:b] for a, b in zip(lo, hi)])
                d2 = chord2_point_to_points(
                    self.qx[qi], self.qy[qi], self.qz[qi], x[idx], y[idx], z[idx]
                )
                sel = local_topk(d2, keys[idx], self.k)
                covered_all = (hi - lo).sum() >= n
                if covered_all or (len(sel) >= min(self.k, n) and d2[sel].max() <= r2):
                    found = (idx[sel], d2[sel])
                    break
            if found is None:
                # fall back to full scan (ring schedule exhausted)
                d2 = chord2_point_to_points(self.qx[qi], self.qy[qi], self.qz[qi], x, y, z)
                sel = local_topk(d2, keys, self.k)
                found = (sel, d2[sel])
            sel_idx, sel_d2 = found
            out_q.append(np.full(len(sel_idx), self.qid[qi], dtype=np.int64))
            out_key.append(keys[sel_idx])
            out_d2.append(sel_d2)
        return pa.table(
            {
                "query_id": np.concatenate(out_q),
                "neighbor": np.concatenate(out_key),
                "d2": np.concatenate(out_d2),
            }
        )


def merge_topk(batch: pa.Table, k: int) -> pa.Table:
    """Reduce partial top-k rows (query_id, neighbor, d2) -> final top-k per
    query with rank.  Used per-block after sorting by query_id; tie order is
    (d2, neighbor)."""
    qid = batch["query_id"].to_numpy(zero_copy_only=False)
    nb = batch["neighbor"].to_numpy(zero_copy_only=False)
    d2 = batch["d2"].to_numpy(zero_copy_only=False)
    order = np.lexsort((nb, d2, qid))
    qid, nb, d2 = qid[order], nb[order], d2[order]
    # rank within query
    uq, starts = np.unique(qid, return_index=True)
    rank = np.arange(len(qid)) - np.repeat(starts, np.diff(np.append(starts, len(qid))))
    keep = rank < k
    return pa.table(
        {
            "query_id": qid[keep],
            "neighbor": nb[keep],
            "d2": d2[keep],
            "rank": (rank[keep] + 1).astype(np.int64),
        }
    )
