"""kNN pipelines: broadcast queries -> per-partition top-k -> merge.

Merge strategy: each partition emits at most Q*k rows, so the exchange is
tiny regardless of input size; the final reduce sorts by query_id and ranks.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import geo
from ..functions.coords import latlng_deg_to_xyz
from ..stages import knn as knn_stages
from ..stages.exchange import (actor_map as _actor_map, topk_merge_partials,
                               with_schema)
from ..stages.encode import derive_geotags

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


class _GeotagKnn:
    """Pipeline-layer fusion: geotag + kNN partial top-k in one call (same
    wrapper-count argument as pip._GeotagEncodeJoin)."""

    def __init__(self, stage_cls, key_col: str, **stage_kwargs):
        self.inner = stage_cls(key_col=key_col, **stage_kwargs)
        self.key_col = key_col

    def __call__(self, batch):
        return self.inner(derive_geotags(batch, self.key_col))


def knn_brute(ds, key_col: str, k: int = 5, n_queries: int = 50,
              merge: str = "single"):
    """Exact kNN: (query_id, neighbor, d2, rank) — brute-force baseline."""
    queries = make_queries(n_queries)
    partials = _actor_map(
        ds,
        _GeotagKnn,
        fn_constructor_kwargs={"stage_cls": knn_stages.BruteKnn,
                               "key_col": key_col, "queries": queries, "k": k},
        batch_size=262144,
    )
    # each partition emits <= Q*k rows, so the single-task merge input is
    # tiny (B_blocks * Q * k); merge='distributed' for very large Q
    return with_schema(topk_merge_partials(
        partials, lambda b: knn_stages.merge_topk(b, k), merge
    ), KNN)


def knn_cell(ds, key_col: str, k: int = 5, n_queries: int = 50,
             n_estimate: int | None = None, merge: str = "single"):
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
    partials = _actor_map(
        ds,
        _GeotagKnn,
        fn_constructor_kwargs={
            "stage_cls": knn_stages.CellPrunedKnn, "key_col": key_col,
            "queries": queries, "k": k, "rings": rings,
        },
        batch_size=262144,
    )
    return with_schema(topk_merge_partials(
        partials, lambda b: knn_stages.merge_topk(b, k), merge
    ), KNN)
