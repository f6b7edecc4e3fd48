"""kNN over geotagged points — S2ClosestPointQuery semantics
(/root/reference/tests/test_s2query_system_port.rs:105-125 specifies the
surface; the reference implementation is absent, canonical API in
s2geometry-cpp/src/s2/s2closest_point_query.h:37-189).

Distances are SQUARED CHORD lengths (src/chord_angle.rs:12-26 — monotone in
angle, no trig), computed with pure arithmetic so the DuckDB brute-force
oracle reproduces every candidate distance bit-exactly; ties broken by
ascending target key (deterministic total order).

One scan, `KnnScan`, per batch and query keeps the batch's tie-safe top-k
(`local_topk`); `agg.grouped_topk` merges the partials per query_id.
- brute (no rings): every batch is scanned in full for every query
  (vectorized, O(Q*N/P) per block).  The correctness baseline, and
  optimal when Q*N is small.
- cell-pruned (rings from `build_query_rings`): the batch is sorted by
  cell_id once; each query examines only candidate cell ranges from a
  growing cap covering, doubling the radius until the k-th distance is
  <= the covered radius, and falls back to the full scan when the
  schedule runs out.  The 10^12-row path.
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


def local_topk(d2: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest by (d2, key) — tie-safe: selects by d2
    threshold first, then lexsorts the candidate set."""
    n = d2.shape[0]
    if n <= k:
        return np.lexsort((keys, d2))
    if k <= 0:
        return np.array([], np.int64)
    part = np.argpartition(d2, k - 1)[:k]
    thresh = d2[part].max()
    cand = np.nonzero(d2 <= thresh)[0]
    order = np.lexsort((keys[cand], d2[cand]))[:k]
    return cand[order]


def build_query_rings(queries: dict, k: int, n_estimate: int, max_rounds: int = 12):
    """Driver-side precomputation for the cell-pruned path: for each query
    and each radius in a doubling schedule, a conservative cell covering of
    the cap as sorted (range_min, range_max) leaf ranges, shipped with the
    `KnnScan`.

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


class KnnScan:
    """Stage: exact per-batch top-k of every query, as (query_id,
    neighbor, d2) partial rows, neighbor typed like the key column.

    queries: dict with arrays query_id(int64), x, y, z.  Without `rings`
    every query scans the whole batch.  With them (`build_query_rings`)
    the batch is sorted by leaf cell once, and per query the candidate
    rows come from searchsorted over the precomputed cap-covering ranges,
    with the radius doubled until the local k-th distance is covered (<=
    chord^2 of the ring radius) or the whole batch is scanned, else the
    full scan.  Local exactness => global exactness after the merge
    (S2ClosestPointQuery's conservative-radius termination rule)."""

    def __init__(self, queries, k: int, key_col: str, rings=None):
        self.qid = np.asarray(queries["query_id"], dtype=np.int64)
        self.qx = np.asarray(queries["x"], dtype=np.float64)
        self.qy = np.asarray(queries["y"], dtype=np.float64)
        self.qz = np.asarray(queries["z"], dtype=np.float64)
        self.k = int(k)
        self.rings = rings
        self.key_col = key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lng = batch["lng"].to_numpy(zero_copy_only=False)
        x, y, z = latlng_deg_to_xyz(lat, lng)
        keys = batch[self.key_col].to_numpy(zero_copy_only=False)
        if self.rings is not None:
            from ..functions import cellid as cid

            cells = cid.from_latlng_deg(lat, lng)
            order = np.argsort(cells, kind="stable")
            cells_s = cells[order]
        out_q = [np.array([], np.int64)]  # typed when there are no queries
        out_idx = [np.array([], np.int64)]
        out_d2 = [np.array([], np.float64)]
        n = len(keys)
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
            found = None
            for r2, rmin, rmax in ([] if self.rings is None else self.rings[qi]):
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
                if covered_all or (len(sel) >= min(self.k, n) and (d2[sel] <= r2).all()):
                    found = (idx[sel], d2[sel])
                    break
            if found is None:  # no rings, or the schedule ran out: full scan
                d2 = chord2_point_to_points(self.qx[qi], self.qy[qi], self.qz[qi], x, y, z)
                sel = local_topk(d2, keys, self.k)
                found = (sel, d2[sel])
            sel_idx, sel_d2 = found
            out_q.append(np.full(len(sel_idx), self.qid[qi], dtype=np.int64))
            out_idx.append(sel_idx)
            out_d2.append(sel_d2)
        return pa.table({
            "query_id": np.concatenate(out_q),
            "neighbor": batch[self.key_col].take(pa.array(np.concatenate(out_idx))),
            "d2": np.concatenate(out_d2),
        })
