"""Per-layer probes.  Each one times, from outside the engine, the calls the
benchmark makes into one layer, and derives its numbers from the spans.

Layers (engine module names): `functions` (kernels), `geometry` (coverer,
loops), `stages` (map_batches callables, agg, exchange), `pipelines` (the
composed queries) and `runtime` (Ray Data itself).
"""

from __future__ import annotations

import inspect
import statistics
import time
import tracemalloc

import numpy as np
import pyarrow as pa

from . import workloads
from .spans import Tracer
from .workloads import WORKLOADS

BATCH = 32768  # tile_counts' map_batches batch size
PIP_BATCH = 131072  # pip_join's map_batches batch size
REPEATS = 3


def calib_s() -> float:
    """A fixed single-process NumPy loop; a slow reading marks a throttled host."""
    x = np.linspace(0.0, 1.0, 1 << 20)
    t0 = time.perf_counter()
    for _ in range(16):
        x = np.sqrt(x * x + 1.0) - 0.5
    return time.perf_counter() - t0


def _timed(tracer: Tracer, name: str, fn, repeats: int = REPEATS):
    """Run fn `repeats` times under span `name`; (median seconds, last result)."""
    for _ in range(repeats):
        with tracer.span(name):
            out = fn()
    return tracer.median(name), out


def _alloc_bytes_per_row(fn, batch: pa.Table) -> float:
    """tracemalloc peak of one call, above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / batch.num_rows


def kernel_metrics(tables: dict[str, pa.Table], tracer: Tracer) -> dict[str, float]:
    """functions.* and geometry.* numbers plus the PIP filter counts: one
    process, no Ray."""
    from s2_geometry_rust_ray.functions import cellid, geo, text
    from s2_geometry_rust_ray.functions.coords import latlng_deg_to_xyz
    from s2_geometry_rust_ray.pipelines import tiling
    from s2_geometry_rust_ray.stages import pip as pip_stages
    from s2_geometry_rust_ray.stages.encode import geotag_and_encode

    m: dict[str, float] = {}
    keys = tables["tile_encode"]
    n = keys.num_rows
    batches = [keys.slice(i, BATCH) for i in range(0, n, BATCH)]
    ks = [b["k"].to_numpy() for b in batches]
    t, latlng = _timed(tracer, "functions.geo.derive_latlng",
                       lambda: [geo.derive_latlng(k) for k in ks])
    m["functions.geo.derive_latlng.rows_per_s"] = n / t
    t, _ = _timed(tracer, "functions.cellid.from_latlng_deg",
                  lambda: [cellid.from_latlng_deg(lat, lng) for lat, lng in latlng])
    m["functions.cellid.from_latlng_deg.rows_per_s"] = n / t
    enc = geotag_and_encode("k")
    encoded = [enc(b) for b in batches]
    combine = tiling.tile_partial_counts(8)
    t, _ = _timed(tracer, "functions.cellid.tile_combine",
                  lambda: [combine(b) for b in encoded])
    m["functions.cellid.tile_combine.rows_per_s"] = n / t
    m["functions.encode.alloc_bytes_per_row"] = _alloc_bytes_per_row(enc, batches[0])

    texts = tables["near_dup_skew"]["text"].to_pandas()
    t, _ = _timed(tracer, "functions.text.minhash",
                  lambda: text.minhash_signatures_batch(
                      texts, workloads.NUM_HASHES, workloads.SHINGLE_K, "word"))
    m["functions.text.minhash.docs_per_s"] = len(texts) / t

    # the coverer work of prepare_layer, one polygon at a time, with the
    # covering parameters prepare_layer defaults to
    defaults = inspect.signature(pip_stages.prepare_layer).parameters
    max_cells = defaults["covering_max_cells"].default
    max_level = defaults["covering_max_level"].default
    layer = workloads.polygon_layer()
    polys, coverings, interiors = {}, {}, {}
    for pid, loops in layer.items():
        with tracer.span("geometry.coverer"):
            _, polys[pid], coverings[pid], interiors[pid] = pip_stages._prepare_one(
                pid, loops, max_cells, max_level)
    m["geometry.coverer.s_per_polygon"] = sum(tracer.durations("geometry.coverer")) / len(layer)
    m["geometry.coverer.cells_per_polygon"] = sum(
        c[0].size + i[0].size for c, i in zip(coverings.values(), interiors.values())
    ) / len(layer)

    # the broadcast PIP join's filter over the pip_join input: covering
    # candidates, interior-covering fast accepts, the rest refined exactly
    lat, lng = geo.derive_latlng(tables["pip_join"]["k"].to_numpy())
    leaves = cellid.from_latlng_deg(lat, lng)
    pts = np.stack(latlng_deg_to_xyz(lat, lng), axis=-1)
    cand = fast = 0
    exact = []
    for pid, poly in polys.items():
        idx = np.flatnonzero(pip_stages._ranges_contain(*coverings[pid], leaves))
        inner = pip_stages._ranges_contain(*interiors[pid], leaves[idx])
        cand += idx.size
        fast += int(inner.sum())
        exact.append((poly, pts[idx[~inner]]))
    refined = cand - fast
    t, _ = _timed(tracer, "functions.loop.contains_points",
                  lambda: [poly.contains_points(p) for poly, p in exact])
    m["functions.loop.contains_points.rows_per_s"] = refined / t
    m["stages.pip.candidates"] = cand
    m["stages.pip.fast_accepted"] = fast
    m["stages.pip.exact_refined"] = refined
    return m


def _identity(table):
    return table


def _block_meta(ds) -> list:
    return [meta for bundle in ds.iter_internal_ref_bundles() for _, meta in bundle.blocks]


def traced_metrics(client, seed: int, tracer: Tracer, cold_s: float,
                   warm_s: list[float], rates: list[float]) -> dict[str, float]:
    """Every per-layer number, in the traced session of `client`'s workload,
    after its timed passes.  The other workloads' inputs are generated and
    materialized here, and their queries run twice (the first run warms);
    those jobs are checked against their references like the client's own
    and count in `client`'s attempted and failed jobs."""
    import ray.data

    from s2_geometry_rust_ray.pipelines import tiling
    from s2_geometry_rust_ray.stages import agg, exchange
    from s2_geometry_rust_ray.stages import pip as pip_stages
    from s2_geometry_rust_ray.stages.encode import geotag_and_encode

    from .client import Client, materialize

    calib = calib_s()
    m: dict[str, float] = {
        "cold_s": cold_s,
        "rows_per_s": statistics.median(rates),
        "runtime.cold_overhead_s": cold_s - statistics.median(warm_s),
    }
    m["runtime.noop.s"], _ = _timed(
        tracer, "runtime.noop",
        lambda: client.ds.map_batches(_identity, batch_format="pyarrow").materialize())

    tables, dss = {}, {}
    for name, w in WORKLOADS.items():
        with tracer.span(f"setup.{name}"):
            tables[name] = client.table if name == client.w.name else w.make(seed)
            dss[name] = client.ds if name == client.w.name else materialize(tables[name])
    m.update(kernel_metrics(tables, tracer))

    enc = geotag_and_encode("k")
    tile_ds = dss["tile_encode"]
    t, _ = _timed(tracer, "stages.encode", lambda: tile_ds.map_batches(
        enc, batch_format="pyarrow", batch_size=BATCH).materialize())
    m["stages.encode.rows_per_s"] = tile_ds.count() / t

    tagged = dss["pip_join"].map_batches(
        enc, batch_format="pyarrow", batch_size=BATCH).materialize()
    prepared = pip_stages.prepare_layer(workloads.polygon_layer())
    t, _ = _timed(tracer, "stages.pip", lambda: exchange.actor_map(
        tagged, pip_stages.PIPJoin,
        fn_constructor_kwargs={"layer": prepared, "key_col": "k"},
        batch_size=PIP_BATCH).materialize())
    m["stages.pip.rows_per_s"] = tagged.count() / t

    partials = []
    for level in (8, 12):
        combine = tiling.tile_partial_counts(level)
        partials.append(tile_ds.map_batches(
            lambda b, c=combine: c(enc(b)), batch_format="pyarrow",
            batch_size=BATCH).materialize())
    m["stages.agg.tree_s"], tree = _timed(tracer, "stages.agg.tree", lambda: agg.tree_reduce_by_key(
        partials[0], "tile", ["n_partial"]).materialize())
    m["stages.agg.hash_s"], hashed = _timed(tracer, "stages.agg.hash", lambda: agg.sum_by_key(
        partials[1], "tile", ["n_partial"], final="hash").materialize())
    m["stages.agg.partial_rows"] = partials[0].count() + partials[1].count()
    m["stages.agg.keys_out"] = tree.count() + hashed.count()

    events = dss["sessions"]
    parts = exchange.default_num_parts()
    m["stages.exchange.s"], shuffled = _timed(
        tracer, "stages.exchange", lambda: exchange.hash_exchange_apply(
            events, "user_id", parts, _identity).materialize())
    m["stages.exchange.bytes"] = sum(b.size_bytes for b in _block_meta(events))
    part_rows = [b.num_rows for b in _block_meta(shuffled)]
    m["stages.exchange.skew"] = max(part_rows) / statistics.median(part_rows)

    ids, buckets = workloads.lsh_bands(tables["near_dup_skew"])
    bands = ray.data.from_arrow(pa.table({
        "doc_id": np.repeat(ids, buckets.shape[1]), "bucket": buckets.ravel(),
    })).materialize()
    _, cand = _timed(tracer, "stages.exchange.lsh", lambda: exchange.lsh_candidate_pairs(
        bands, "doc_id", "bucket", parts, "doc_a", "doc_b",
        hot_bucket_cap=workloads.HOT_BUCKET_CAP).materialize(), repeats=1)
    m["stages.exchange.lsh_candidates"] = cand.count()

    rows_out = dict(client.rows_out)
    for name, w in WORKLOADS.items():
        if name == client.w.name:
            continue
        probe = Client(w, dss[name], tables[name], tracer)
        probe.run_pass()
        probe.run_pass()
        probe.check(w.reference(tables[name]))
        client.attempted += probe.attempted
        client.failed += probe.failed
        client.errors += [f"{name} probe: {e}" for e in probe.errors]
        rows_out.update(probe.rows_out)
    for w in WORKLOADS.values():
        for query, _ in w.queries:
            # the first run of each query in this session is its cold one
            m[f"pipelines.{query}.s"] = statistics.median(
                tracer.durations(f"pipelines.{query}")[1:])
    m["stages.exchange.lsh_verified"] = rows_out.get("near_dup_pairs", 0)
    m["host.calib_s"] = max(calib, calib_s())
    return m
