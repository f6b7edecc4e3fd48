"""The workloads: seeded input, the public pipeline calls each job makes, and
the reference each job's output is checked against.  BENCHMARK.json lists
the ones the benchmark runs; `near_dup_skew` is also run by hand and by the
traced run's layer probes.

A reference is computed once per run, in the driver process and outside
Ray: the in-process kernels for `tile_encode` and `pip_join`, and the
engine's DuckDB twins in `oracle/` for `sessions` and `near_dup_skew`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa

from . import gen

TILE_ROWS = 400_000
PIP_ROWS = 300_000
EVENT_ROWS = 2_000_000
DOC_ROWS = 1_000
HOT_DOCS = 80
# passed to near_dup_pairs; below HOT_DOCS, so the boilerplate bucket spills
HOT_BUCKET_CAP = 32


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], pa.Table]
    # (query name, Dataset -> Dataset), run back to back as one job each
    queries: tuple[tuple[str, Callable], ...]
    # input table -> {query name: digest}
    reference: Callable[[pa.Table], dict[str, str]]


def _mix(v: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over uint64 values."""
    v = (v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    v = (v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return v ^ (v >> np.uint64(31))


def digest(table: pa.Table | None) -> str:
    """Order-insensitive content digest: each row hashed to 64 bits over its
    columns in name order (strings by pandas' keyed hash, integers as int64,
    floats as float64 bits), then the sorted row hashes hashed together."""
    import pandas as pd

    if table is None or table.num_rows == 0:
        return "rows=0"
    rows = np.zeros(table.num_rows, dtype=np.uint64)
    for c in sorted(table.column_names):
        col = table[c]
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            v = pd.util.hash_array(col.to_numpy(zero_copy_only=False), categorize=False)
        else:
            kind = np.float64 if pa.types.is_floating(col.type) else np.int64
            v = _mix(np.ascontiguousarray(col.to_numpy(), dtype=kind).view(np.uint64))
        rows = _mix(rows * np.uint64(0x100000001B3) ^ v)
    rows.sort()
    return f"rows={table.num_rows} sha256={hashlib.sha256(rows.tobytes()).hexdigest()}"


# --- tile_encode ------------------------------------------------------------

def _tile_reference(table: pa.Table) -> dict[str, str]:
    from s2_geometry_rust_ray.functions import cellid, geo

    lat, lng = geo.derive_latlng(table["k"].to_numpy())
    cid = cellid.from_latlng_deg(lat, lng)
    out = {}
    for name, level in (("tile_counts_l8", 8), ("tile_counts_l12_hash", 12)):
        tiles, n = np.unique(cellid.parent(cid, level), return_counts=True)
        if n.sum() != table.num_rows:
            raise AssertionError(f"{name}: reference counts {n.sum()} rows")
        out[name] = digest(pa.table({"tile_token": cellid.to_hex(tiles), "n": n}))
    return out


def _tile_l8(ds):
    from s2_geometry_rust_ray.pipelines import tiling

    return tiling.tile_counts(ds, "k", level=8)


def _tile_l12_hash(ds):
    from s2_geometry_rust_ray.pipelines import tiling

    return tiling.tile_counts(ds, "k", level=12, final="hash")


# --- pip_join ---------------------------------------------------------------

def polygon_layer():
    from s2_geometry_rust_ray.pipelines import pip

    return pip.standard_polygon_layer()


def _pip_reference(table: pa.Table) -> dict[str, str]:
    from s2_geometry_rust_ray.stages import pip as pip_stages
    from s2_geometry_rust_ray.stages.encode import geotag_and_encode

    join = pip_stages.PIPJoin(pip_stages.prepare_layer(polygon_layer()), key_col="k")
    return {"pip_join": digest(join(geotag_and_encode("k")(table)))}


def _pip_join(ds):
    from s2_geometry_rust_ray.pipelines import pip

    return pip.pip_join(ds, "k", layer=polygon_layer())


# --- sessions ---------------------------------------------------------------

def _sessions_reference(table: pa.Table) -> dict[str, str]:
    import duckdb

    from __ray_entry__ import oracle_sql

    con = duckdb.connect()
    try:
        con.execute("SET threads=1")
        con.register("events", table)
        return {"sessionize": digest(con.sql(oracle_sql()["events_sessions_30m"]).arrow())}
    finally:
        con.close()


def _sessionize(ds):
    from s2_geometry_rust_ray.pipelines import textops

    return textops.sessionize(ds, gap_minutes=30)


# --- near_dup_skew ----------------------------------------------------------

NUM_HASHES, BAND_SIZE, SHINGLE_K, THRESHOLD = 32, 4, 5, 0.5


def lsh_bands(table: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(doc ids, (docs, bands) bucket matrix) from the engine's MinHash and
    band-fold kernels, with the parameters near_dup_pairs uses by default."""
    from s2_geometry_rust_ray.functions import text

    sig = text.minhash_signatures_batch(
        table["text"].to_pandas(), NUM_HASHES, SHINGLE_K, "word"
    )
    ok = sig[:, 0] != np.uint64(text.MINHASH_P)
    return table["doc_id"].to_numpy()[ok], text.band_buckets(sig[ok], BAND_SIZE)


def _near_dup_reference(table: pa.Table) -> dict[str, str]:
    import duckdb

    from s2_geometry_rust_ray.oracle import sql as osql

    con = duckdb.connect()
    try:
        con.execute("SET threads=1")
        con.register("documents", table)
        return {"near_dup_pairs": digest(con.sql(osql.q_near_dup_pairs(
            NUM_HASHES, BAND_SIZE, THRESHOLD, SHINGLE_K, "word")).arrow())}
    finally:
        con.close()


def _near_dup_pairs(ds):
    from s2_geometry_rust_ray.pipelines import textops

    return textops.near_dup_pairs(ds, hot_bucket_cap=HOT_BUCKET_CAP)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tile_encode",
            lambda seed: gen.keys(seed, TILE_ROWS),
            (("tile_counts_l8", _tile_l8), ("tile_counts_l12_hash", _tile_l12_hash)),
            _tile_reference,
        ),
        Workload(
            "pip_join",
            lambda seed: gen.keys(seed, PIP_ROWS),
            (("pip_join", _pip_join),),
            _pip_reference,
        ),
        Workload(
            "sessions",
            lambda seed: gen.events(seed, EVENT_ROWS),
            (("sessionize", _sessionize),),
            _sessions_reference,
        ),
        Workload(
            "near_dup_skew",
            lambda seed: gen.documents(seed, DOC_ROWS, HOT_DOCS),
            (("near_dup_pairs", _near_dup_pairs),),
            _near_dup_reference,
        ),
    )
}
