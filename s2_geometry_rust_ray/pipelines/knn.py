"""kNN pipelines: broadcast queries -> per-block top-k scan -> merge.

Merge: both paths are one `agg.grouped_topk` by query_id, ranked by
(d2, neighbor).  The geotag + scan (`stages/knn.KnnScan`) is its
`prepare`, so it runs inside the exchange's split task (fused into a
lazy read), and a block sends at most Q*k rows to the exchange whatever
its size; each query's partials meet in one partition, which keeps the
first k and numbers them.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import geo
from ..functions.coords import latlng_deg_to_xyz
from ..stages import agg
from ..stages import knn as knn_stages
from ..stages.encode import derive_geotags
from ..stages.exchange import with_schema

QUERY_KEY_BASE = 900_000_000  # query keys live far above any row key
# both kNN paths' output, also when empty
KNN = pa.schema([("query_id", pa.int64()), ("neighbor", pa.int64()),
                 ("d2", pa.float64()), ("rank", pa.int64())])


def make_queries(n_queries: int = 50):
    """Deterministic query points via the same geotag derivation (30% land in
    hot clusters — exercising skew), query_id = 0..n-1."""
    qid = np.arange(n_queries, dtype=np.int64)
    lat, lng = geo.derive_latlng(QUERY_KEY_BASE + qid)
    x, y, z = latlng_deg_to_xyz(lat, lng)
    return {"query_id": qid, "x": x, "y": y, "z": z, "lat": lat, "lng": lng}


def _knn(ds, key_col: str, k: int, scan: knn_stages.KnnScan):
    """Geotag each 262144-row slice, `scan` it, and merge the partials."""
    return with_schema(agg.grouped_topk(
        ds, ["query_id"], [("d2", "ascending"), ("neighbor", "ascending")], k,
        prepare=lambda b: scan(derive_geotags(b, key_col)), batch_size=262144,
    ), KNN)


def knn_brute(ds, key_col: str, k: int = 5, n_queries: int = 50):
    """Exact kNN: (query_id, neighbor, d2, rank) — brute-force baseline."""
    return _knn(ds, key_col, k, knn_stages.KnnScan(make_queries(n_queries), k, key_col))


def knn_cell(ds, key_col: str, k: int = 5, n_queries: int = 50,
             n_estimate: int | None = None):
    """Exact kNN via cell-range pruning — the 10^12-row path.  Identical
    output to knn_brute; per-batch work is O(candidates) instead of O(N).

    n_estimate sizes the initial search rings.  The default ds.count() is
    metadata-only (no data scan) when `ds` is a fresh read_parquet Dataset;
    pass it explicitly when `ds` already has transforms attached (count()
    would execute them) — any same-order estimate works, the conservative
    radius-termination logic keeps the result exact either way."""
    queries = make_queries(n_queries)
    if n_estimate is None:
        n_estimate = ds.count()
    rings = knn_stages.build_query_rings(queries, k, n_estimate)
    return _knn(ds, key_col, k, knn_stages.KnnScan(queries, k, key_col, rings))
