"""Hash exchange / hash join unit tests (stages/exchange.py)."""

import numpy as np
import pyarrow as pa
import pytest

from s2_geometry_rust_ray.functions import cellid, geo
from s2_geometry_rust_ray.pipelines import dedup_clusters as dc
from s2_geometry_rust_ray.pipelines import flagship, knn
from s2_geometry_rust_ray.pipelines import pip as ppip
from s2_geometry_rust_ray.pipelines import pip_shuffle, textops, tiling
from s2_geometry_rust_ray.stages import agg, exchange, multimodal, simsearch


def test_hash_part_partitions_all_rows():
    t = pa.table({"k": np.arange(1000, dtype=np.int64), "v": np.ones(1000)})
    parts = exchange._hash_part(t, "k", 7)
    assert sum(p.num_rows for p in parts) == 1000
    # same key always lands in the same partition
    t2 = pa.table({"k": np.array([5, 5, 5], dtype=np.int64), "v": np.zeros(3)})
    parts2 = exchange._hash_part(t2, "k", 7)
    nonempty = [i for i, p in enumerate(parts2) if p.num_rows]
    assert len(nonempty) == 1


def _part_ids(parts, keys) -> list[int]:
    """The partition of each key in `keys`, from `_hash_part` output."""
    where = {k: p for p, part in enumerate(parts) for k in part["k"].to_pylist()}
    return [where[k] for k in keys]


def test_hash_part_integer_placement_golden():
    """Integer hash placement is pinned bit for bit: sessions and the
    tile_encode tile counts depend on which partition each key meets."""
    k = np.arange(0, 2**40, 2**35 + 12345, dtype=np.int64)[:24]
    t = pa.table({"k": k, "w": np.arange(24, dtype=np.int64) % 3})
    assert _part_ids(exchange._hash_part(t, "k", 5), k.tolist()) == [
        0, 4, 2, 0, 4, 1, 2, 4, 2, 3, 4, 4, 2, 2, 2, 1, 0, 1, 2, 3, 1, 2, 3, 1]
    assert _part_ids(exchange._hash_part(t, ["k", "w"], 5), k.tolist()) == [
        4, 0, 0, 2, 4, 4, 0, 1, 2, 0, 2, 0, 3, 2, 1, 3, 2, 4, 3, 4, 1, 2, 1, 4]


def _tile_keys(keys: np.ndarray, level: int) -> np.ndarray:
    """The level-`level` tile sort keys of the engine's hashed points."""
    lat, lng = geo.derive_latlng(keys)
    return cellid.to_sort_key(cellid.parent(cellid.from_latlng_deg(lat, lng), level))


@pytest.mark.parametrize("level", [6, 7, 8])
def test_hash_part_spreads_coarse_cell_keys(level):
    """Coarse cell ids end in 2 * (30 - level) zero bits; their hash must
    still reach every partition."""
    t = pa.table({"k": _tile_keys(np.arange(10_000, dtype=np.int64), level)})
    for num_parts in (4, 8, 16, 32):
        parts = exchange._hash_part(t, "k", num_parts)
        assert all(p.num_rows for p in parts), (level, num_parts)


def test_coarse_tile_finals_run_in_several_partitions(ray_session):
    """The level-8 tile count's grouped reduce and the level-5 cap fold
    spread over more than one partition, with the same output as their
    DuckDB twins."""
    import duckdb
    import ray.data

    from s2_geometry_rust_ray.oracle import sql as osql

    src = pa.table({"doc_id": np.arange(20_000, dtype=np.int64) * 7919})
    ds = ray.data.from_arrow(src).repartition(4)
    con = duckdb.connect()
    con.register("src", src)

    def assert_matches_twin(out, sql, cols):
        assert out.num_blocks() > 1
        got = out.to_pandas()[cols].sort_values(cols).reset_index(drop=True)
        want = con.sql(sql).df()[cols].sort_values(cols).reset_index(drop=True)
        assert len(got) == len(want)
        for c in cols:
            assert (got[c].values == want[c].values).all(), c

    assert_matches_twin(
        tiling.tile_counts(ds, "doc_id", level=8),
        osql.q_tile_counts("SELECT doc_id FROM src", "doc_id", 8),
        ["tile_token", "n"])
    assert_matches_twin(
        tiling.cap_bounds(ds, "doc_id", level=5, num_parts=8),
        osql.q_cap_bounds("SELECT doc_id FROM src", "doc_id", 5),
        ["tile_token", "keep_key", "n", "r2"])


def test_hash_part_string_keys_deterministic():
    """String keys must hash identically in any process (no PYTHONHASHSEED
    dependence): the engine's string hash (functions/hashing.key_hash)
    gives the same partition ids in a subprocess with another seed."""
    keys = pa.array(["alpha", "beta", "gamma", "alpha", ""])
    t = pa.table({"k": keys, "v": np.arange(5)})
    parts = exchange._hash_part(t, "k", 4)
    assert sum(p.num_rows for p in parts) == 5
    # both 'alpha' rows co-located
    alpha_parts = [i for i, p in enumerate(parts)
                   if "alpha" in p["k"].to_pylist()]
    assert len(alpha_parts) == 1
    # cross-process determinism: recompute in a subprocess with a different
    # hash seed and compare partition assignment
    import json
    import subprocess
    import sys

    code = (
        "import numpy as np, pyarrow as pa, json;"
        "from s2_geometry_rust_ray.stages import exchange;"
        "t = pa.table({'k': ['alpha','beta','gamma','alpha',''],"
        "'v': list(range(5))});"
        "parts = exchange._hash_part(t, 'k', 4);"
        "print(json.dumps([p['v'].to_pylist() for p in parts]))"
    )
    env = {"PYTHONHASHSEED": "12345", "PATH": "/usr/bin:/bin",
           "PYTHONPATH": "/root/repo"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    sub_parts = json.loads(out.stdout.strip().splitlines()[-1])
    assert sub_parts == [p["v"].to_pylist() for p in parts]


def test_co_partition_drops_empty_partitions(ray_session):
    import ray.data

    src = ray.data.from_arrow(
        pa.table({"k": np.array([5, 5, 5], dtype=np.int64)})
    )
    out = exchange.co_partition([(src, "k", None)], 8, lambda t: t)
    assert out.count() == 3
    assert out.num_blocks() == 1  # 7 empties dropped by their count refs


def test_co_partition_zero_blocks(ray_session, executors):
    """A side without rows (zero blocks, or column-less blocks a filter
    left) runs no partition task: the result has no blocks, and
    `with_schema` turns it into one empty block of the declared schema,
    whose fetch starts no executor.  A partition task runs only where
    every side has rows, so `fn` never sees a zero-row table."""
    import ray.data

    def fn(*tables: pa.Table) -> pa.Table:
        assert all(t.num_rows for t in tables), [t.num_rows for t in tables]
        return tables[0]

    gone = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    gone = gone.filter(lambda r: False)
    zero = ray.data.from_items([]).map_batches(lambda b: b,
                                               batch_format="pyarrow")
    a = pa.table({"k": np.arange(10, dtype=np.int64)})
    full = ray.data.from_arrow(a)
    tag = lambda t: t.append_column("m", pa.array(np.ones(t.num_rows)))  # noqa: E731
    schema = pa.schema([("k", pa.int64())])
    for sides in ([(gone, "k", None)], [(zero, "k", None)],
                  [(zero, "k", tag), (full, "k", None)],
                  [(full, "k", None), (gone, "k", None)]):
        out = exchange.co_partition(sides, 4, fn)
        assert out.num_blocks() == 0
        blocks = executors.fetch(exchange.with_schema(out, schema))
        assert len(blocks) == 1 and blocks[0].num_rows == 0
        assert blocks[0].schema.equals(schema)

    # only the partition holding key 3 has rows on both sides
    threes = ray.data.from_arrow(pa.table({"k": np.array([3, 3], dtype=np.int64)}))
    out = exchange.co_partition([(full, "k", None), (threes, "k", None)], 4, fn)
    [p] = [p for p, t in enumerate(exchange._hash_part(a, "k", 4))
           if 3 in t["k"].to_pylist()]
    assert pa.concat_tables(executors.fetch(out)).equals(
        exchange._hash_part(a, "k", 4)[p])


_I64_MIN, _I64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def _narrow_cases() -> dict[str, pa.Table]:
    rng = np.random.default_rng(5)
    n = 500
    return {
        "int32": pa.table({"a": pa.array(rng.integers(-300, 300, n), pa.int32())}),
        "int64_near_min": pa.table(
            {"a": _I64_MIN + rng.integers(0, 70_000, n)}),
        "int64_near_max": pa.table(
            {"a": _I64_MAX - rng.integers(0, 2**31, n)}),
        "uint64_above_2_63": pa.table({"a": pa.array(
            np.uint64(2**63 + 9) + rng.integers(0, 2**20, n).astype(np.uint64),
            pa.uint64())}),
        "uint64_top": pa.table({"a": pa.array(
            np.full(n, 2**64 - 1, dtype=np.uint64) - np.arange(n, dtype=np.uint64),
            pa.uint64())}),
        "all_equal": pa.table({"a": np.full(n, -7, dtype=np.int64)}),
        "mixed": pa.table({
            "a": rng.integers(0, 30_000, n),
            "ts": rng.integers(0, 10**15, n),
            "x": rng.normal(size=n),
            "s": pa.array([f"s{i}" for i in range(n)]),
            "nullable": pa.array([None if i % 7 == 0 else i for i in range(n)],
                                 pa.int64()),
        }),
        "extremes": pa.table({"a": np.r_[_I64_MIN, _I64_MAX,
                                         np.zeros(n - 2, dtype=np.int64)]}),
        "zero_rows": pa.table({"a": pa.array([], pa.int64())}),
        "column_less": pa.table({}),
    }


# the offset type each case's narrowable columns take (None: stays wide)
_NARROWED = {"int32": pa.uint16(), "int64_near_min": pa.uint32(),
             "int64_near_max": pa.uint32(), "uint64_above_2_63": pa.uint32(),
             "uint64_top": pa.uint16(), "all_equal": pa.uint8(),
             "mixed": pa.uint16(), "extremes": None, "zero_rows": None,
             "column_less": None}


@pytest.mark.parametrize("case", sorted(_NARROWED))
def test_narrow_widen_round_trip(case):
    """`_widen(_narrow(t))` is `t` byte for byte: values, types, field and
    schema metadata.  Only null-free integer columns whose range fits a
    narrower uint are narrowed; a shard holding INT64_MIN and INT64_MAX,
    nulls, floats and strings stay as they are."""
    t = _narrow_cases()[case]
    schema = t.schema.with_metadata({"origin": "test"})
    if t.num_columns:
        schema = schema.set(0, schema.field(0).with_metadata({"unit": "id"}))
    t = pa.Table.from_arrays(t.columns, schema=schema)
    n = exchange._narrow(t)
    want = _NARROWED[case]
    if want is None:
        assert n is t
    else:
        assert n.schema.field("a").type == want
        assert n.nbytes < t.nbytes
        for c in ("ts", "x", "s", "nullable"):
            if c in t.column_names:  # wide range, float, string, nulls
                assert n.schema.field(c).equals(t.schema.field(c), check_metadata=True)
    back = exchange._widen(n)
    assert back.equals(t, check_metadata=True)
    assert back.schema.serialize().to_pybytes() == t.schema.serialize().to_pybytes()


def test_narrow_survives_ray_serialization(ray_session):
    """A narrowed shard's field metadata (its base and original field)
    crosses the object store intact."""
    import ray

    t = _narrow_cases()["uint64_above_2_63"]
    n = ray.get(ray.put(exchange._narrow(t)))
    assert n.schema.field("a").type == pa.uint32()
    assert exchange._widen(n).equals(t, check_metadata=True)


def test_inline_limit_is_rays():
    from ray._private import ray_constants

    assert exchange._INLINE_LIMIT == ray_constants.DEFAULT_MAX_DIRECT_CALL_OBJECT_SIZE


def test_partition_fn_sees_input_schema_across_shard_widths(ray_session):
    """One partition's shards come back narrowed to uint8, to uint16 and
    wide; the partition fn sees the input schema byte for byte (field and
    schema metadata included) and every row."""
    import ray
    import ray.data

    field = pa.field("k", pa.int64(), metadata={"unit": "id"})
    schema = pa.schema([field, ("v", pa.float64())], metadata={"origin": "test"})

    def block(k):
        k = np.asarray(k, dtype=np.int64)
        return pa.table([k, np.arange(len(k), dtype=np.float64)], schema=schema)

    # 20k rows: every block's one shard stays over the inline limit narrowed
    n = 20_000
    blocks = [block(np.arange(n) % 200), block(np.arange(n) * 3),
              block(np.r_[_I64_MIN, _I64_MAX, np.arange(n - 2)])]
    widths = {exchange._split(b, "k", 1)[0].schema.field("k").type for b in blocks}
    assert widths == {pa.uint8(), pa.uint16(), pa.int64()}
    src = ray.data.from_arrow(blocks).materialize()
    assert ray.get(src.to_arrow_refs()[0]).schema.equals(schema, check_metadata=True)

    def fn(t: pa.Table) -> pa.Table:
        assert t.schema.serialize().to_pybytes() == schema.serialize().to_pybytes()
        return t

    out = pa.concat_tables(ray.get(
        exchange.co_partition([(src, "k", None)], 1, fn).to_arrow_refs()))
    assert out.sort_by("k").equals(pa.concat_tables(blocks).sort_by("k"))


def _stored_size(t: pa.Table) -> int:
    """The bytes Ray stores for `t` as a task result."""
    from ray._private.worker import global_worker

    return global_worker.get_serialization_context().serialize(t).total_bytes


def test_narrowing_fires_and_keeps_shards_in_the_object_store(ray_session):
    """Blocks of 60k rows into 4 partitions give shards of ~15k rows.  A
    (small-range key, wide-range payload) shard narrows from ~240 KB to
    ~150 KB; a key-only shard (~120 KB wide, ~30 KB narrow) would fall
    under Ray's 100 KiB inline limit, so it stays wide.  The exchange's
    output equals the un-narrowed one."""
    rng = np.random.default_rng(8)
    limit = exchange._INLINE_LIMIT
    blocks = [pa.table({"k": rng.integers(0, 40_000, 60_000),
                        "ts": rng.integers(0, 10**15, 60_000)})
              for _ in range(3)]
    wide = narrow = 0
    for b in blocks:
        for key_only in (False, True):
            b_in = b.select(["k"]) if key_only else b
            shards = exchange._split(b_in, "k", 4)
            for s, w in zip(shards, exchange._hash_part(b_in, "k", 4)):
                ws, ns = _stored_size(w), _stored_size(s)
                assert ws >= limit
                assert ns >= limit
                assert exchange._widen(s).equals(w, check_metadata=True)
                # a key-only shard would cross the limit, so it stays wide
                want = pa.int64() if key_only else pa.uint16()
                assert s.schema.field("k").type == want
                if not key_only:
                    wide, narrow = wide + ws, narrow + ns
    assert narrow < 0.7 * wide

    import ray.data

    def fn(t: pa.Table) -> pa.Table:
        t = t.sort_by([("k", "ascending"), ("ts", "ascending")])
        return t.append_column("rank", pa.array(np.arange(t.num_rows)))

    src = ray.data.from_arrow(blocks).materialize()
    got = ray_session.get(
        exchange.hash_exchange_apply(src, "k", 4, fn).to_arrow_refs())
    want = [fn(pa.concat_tables([exchange._hash_part(b, "k", 4)[p] for b in blocks]))
            for p in range(4)]
    assert len(got) == 4
    for g, w in zip(got, want):
        assert g.equals(w, check_metadata=True)


def _tile_inputs():
    import ray.data

    src = ray.data.from_arrow(pa.table(
        {"k": np.arange(20_000, dtype=np.int64) * 7919})).repartition(4)
    computed = src.materialize()
    return {
        "computed": computed,
        "lazy": _lazy(computed),
        "zero_block": src.limit(0),
        "filter_all": src.filter(lambda r: False),
    }


@pytest.mark.parametrize("inp", ["computed", "lazy", "zero_block", "filter_all"])
def test_hash_final_with_fused_combine_matches_tree(ray_session, inp):
    """The grouped reduce runs the map-side combine inside the exchange's
    split task over a computed input (fused into the plan over a lazy
    one); its level-12 tile counts equal a one-process count of the same
    keys.  The name is from when the removed tree final was the
    reference."""
    ds = _tile_inputs()[inp]
    blocks = ray_session.get(
        tiling.tile_counts(ds, "k", level=12).to_arrow_refs())
    got = pa.concat_tables(blocks)
    assert got.schema.equals(pa.schema([("tile_token", pa.string()),
                                        ("n", pa.int64())]))
    keys = np.arange(20_000, dtype=np.int64) * 7919
    if inp in ("zero_block", "filter_all"):
        keys = keys[:0]
    tiles, n = np.unique(_tile_keys(keys, 12), return_counts=True)
    want = pa.table({"tile_token": cellid.to_hex(cellid.from_sort_key(tiles)),
                     "n": n.astype(np.int64)})
    assert got.sort_by("tile_token").equals(want)
    assert int(got["n"].to_numpy().sum()) == len(keys)


def _events_table(n: int = 300) -> pa.Table:
    rng = np.random.default_rng(3)
    kinds = np.array(["view", "purchase", "click"])
    return pa.table({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 20, n),
        "ts": pa.array(rng.integers(0, 10**10, n), pa.timestamp("us")),
        "event_type": pa.array(kinds[rng.integers(0, 3, n)]),
        "value": rng.integers(0, 50, n) / 4,
    })


def _in_blocks(t: pa.Table, n: int = 3):
    import ray.data

    step = -(-t.num_rows // n)
    return ray.data.from_arrow(
        [t.slice(i, step) for i in range(0, t.num_rows, step)]).materialize()


def _lazy(ds):
    return ds.map_batches(lambda b: b, batch_format="pyarrow")


def _urban_layer():
    """One polygon of the standard layer: 40 of the keys 0..399 fall in it."""
    return {"urban_0": ppip.standard_polygon_layer()["urban_0"]}


def _inputs(rows: bool = True) -> dict:
    """The computed inputs of `_EXECUTOR_COUNTS`, each in 3 blocks, or
    each as one zero-row block of the same schema.  40 documents in 10
    groups of 4 identical texts and 40 vectors (10 vectors, each 4 times),
    so every near-dup pipeline over them has output."""
    import ray.data

    i = np.arange(40, dtype=np.int64)
    v = np.random.default_rng(4).normal(size=(10, 8)).astype(np.float32)
    tables = {
        "events": _events_table(),
        "keys": pa.table({"k": np.arange(400, dtype=np.int64)}),
        "docs": pa.table({"doc_id": i, "text": pa.array(
            [f"w{k} alpha beta gamma delta epsilon zeta" for k in i % 10])}),
        "vectors": pa.table({"vec_id": i, "embedding": list(np.tile(v, (4, 1)))}),
        "pairs": pa.table({"doc_a": np.arange(0, 30, 3), "doc_b": np.arange(1, 31, 3)}),
    }
    if rows:
        return {n: _in_blocks(t) for n, t in tables.items()}
    return {n: ray.data.from_arrow(t.slice(0, 0)).materialize()
            for n, t in tables.items()}


# the ANN queries over the `_inputs` vectors
_VECTOR_QUERIES = np.random.default_rng(5).normal(size=(3, 8)).astype(np.float32)

# query over the computed `_inputs` -> executors it starts, built and
# fetched: a query that is raw Ray from its input to its output starts
# none (row-local maps over computed inputs are raw tasks,
# `exchange.map_blocks`); a lazy input's plan runs exactly once
_EXECUTOR_COUNTS = {
    "sessionize": (lambda i: textops.sessionize(i["events"], num_parts=2), 0),
    "asof_join_events": (lambda i: textops.asof_join_events(
        i["events"], num_parts=2), 0),
    "range_join_counts": (lambda i: textops.range_join_counts(
        i["events"], num_parts=2), 0),
    # `final` is the removed plan knob's value an old caller passes (the
    # benchmark harness passes "hash"); tile_counts ignores it, so each
    # value gives the one grouped plan
    "tile_counts_tree": (lambda i: tiling.tile_counts(
        i["keys"], "k", 8, final="tree"), 0),
    "tile_counts_hash": (lambda i: tiling.tile_counts(
        i["keys"], "k", 8, final="hash"), 0),
    "tile_counts_lazy_input": (lambda i: tiling.tile_counts(
        _lazy(i["keys"]), "k", 8), 1),
    "tile_counts_hash_lazy_input": (lambda i: tiling.tile_counts(
        _lazy(i["keys"]), "k", 8, final="hash"), 1),
    "pip_join_inner": (lambda i: ppip.pip_join(
        i["keys"], "k", layer=_urban_layer()), 0),
    "pip_join_semi": (lambda i: ppip.pip_join(
        i["keys"], "k", layer=_urban_layer(), mode="semi"), 0),
    "pip_join_anti": (lambda i: ppip.pip_join(
        i["keys"], "k", layer=_urban_layer(), mode="anti"), 0),
    "within_distance_join": (lambda i: ppip.within_distance_join(
        i["keys"], "k", layer=_urban_layer(), radius_deg=1.0), 0),
    "grouped_topk": (lambda i: agg.grouped_topk(
        i["events"], ["user_id"], [("event_id", "descending")], 2), 0),
    "reduce_by_key": (lambda i: agg.reduce_by_key(
        i["events"], "user_id", ["event_id"]), 0),
    # the bare exchange declares no schema: its caller does
    "co_partition_lazy_side": (lambda i: exchange.with_schema(
        exchange.co_partition([(_lazy(i["keys"]), "k", None)], 4, lambda t: t),
        pa.schema([("k", pa.int64())])), 1),
    "near_dup_pairs": (lambda i: textops.near_dup_pairs(
        i["docs"], num_parts=4), 0),
    "simhash_near_dup": (lambda i: textops.simhash_near_dup(
        i["docs"], num_parts=4), 0),
    "embedding_near_dup": (lambda i: simsearch.embedding_near_dup(
        i["vectors"], threshold=0.9, num_parts=4), 0),
    "embedding_near_dup_q15": (lambda i: simsearch.embedding_near_dup(
        i["vectors"], threshold=1, num_parts=4, arith=simsearch.Q15), 0),
    "dedup_clusters": (lambda i: dc.dedup_clusters(
        i["docs"], i["pairs"], num_parts=4), 0),
    # the top-k ops: each is `agg.grouped_topk`, its scan the `prepare`
    "knn_brute": (lambda i: knn.knn_brute(i["keys"], "k", n_queries=5), 0),
    "knn_cell": (lambda i: knn.knn_cell(i["keys"], "k", n_queries=5), 0),
    "ann_topk": (lambda i: simsearch.ann_topk(
        i["vectors"], _VECTOR_QUERIES, np.arange(3), k=4), 0),
    "ann_topk_q15": (lambda i: simsearch.ann_topk(
        i["vectors"], _VECTOR_QUERIES, np.arange(3), k=4,
        arith=simsearch.Q15), 0),
    "term_counts": (lambda i: textops.term_counts(i["docs"], top_n=5), 0),
    # the row-local maps (`map_blocks`) and the maps that are a grouped
    # reduce's `prepare`
    "token_stats": (lambda i: textops.token_stats(i["docs"]), 0),
    "quality": (lambda i: textops.quality(i["docs"]), 0),
    "simhash_table": (lambda i: textops.simhash_table(i["docs"]), 0),
    "fingerprints": (lambda i: textops.fingerprints(i["docs"]), 0),
    "sample_by_hash": (lambda i: textops.sample_by_hash(i["keys"], "k", 0.5), 0),
    "cell_encode_table": (lambda i: tiling.cell_encode_table(i["keys"], "k", "key"), 0),
    "cap_join": (lambda i: ppip.cap_join(i["keys"], "k"), 0),
    "rect_join": (lambda i: ppip.rect_join(i["keys"], "k"), 0),
    "shuffle_pip_join": (lambda i: pip_shuffle.shuffle_pip_join(
        i["keys"], "k", _urban_layer(), num_parts=2), 0),
    "exact_dedup": (lambda i: textops.exact_dedup(i["docs"]), 0),
    "quantiles_by_key": (lambda i: textops.quantiles_by_key(i["events"]), 0),
    "hll_rho_hist": (lambda i: textops.hll_rho_hist(i["events"]), 0),
}

# the `_EXECUTOR_COUNTS` ops whose row-local map `map_blocks` runs, or
# whose map is a grouped reduce's `prepare`
_ROW_MAPS = ["token_stats", "quality", "simhash_table", "fingerprints",
             "sample_by_hash", "cell_encode_table", "cap_join", "rect_join",
             "shuffle_pip_join", "exact_dedup", "quantiles_by_key",
             "hll_rho_hist"]


@pytest.mark.parametrize("op", sorted(_EXECUTOR_COUNTS))
def test_plan_runs_once_and_result_is_computed(ray_session, executors, op):
    """Each input plan runs once where the engine drops to raw Ray (not
    once more for its schema), and the result comes back computed: its
    fetch starts no executor."""
    query, want = _EXECUTOR_COUNTS[op]
    inputs = _inputs()
    before = executors.started
    tables = executors.fetch(query(inputs))
    assert executors.started - before == want
    assert sum(t.num_rows for t in tables) > 0


@pytest.mark.parametrize("op", sorted(_EXECUTOR_COUNTS))
def test_empty_input_gives_declared_schema(ray_session, executors, op):
    """Over zero-row computed inputs each op returns ONE empty block of the
    schema its result has over rows, runs its input plan as often, and
    the result's fetch starts no executor."""
    query, want = _EXECUTOR_COUNTS[op]
    schema = executors.fetch(query(_inputs()))[0].schema
    empty = _inputs(rows=False)
    before = executors.started
    tables = executors.fetch(query(empty))
    assert executors.started - before == want
    assert len(tables) == 1 and tables[0].num_rows == 0
    assert tables[0].schema.equals(schema), (tables[0].schema, schema)


@pytest.mark.parametrize("op", _ROW_MAPS)
def test_row_map_over_lazy_input_fuses_with_it(ray_session, executors, op):
    """Over a lazy input each row map stays fused with the input's plan:
    running the result starts at most one executor, and it has the rows
    of the same op over the computed input."""
    query, _ = _EXECUTOR_COUNTS[op]
    inputs = _inputs()
    want = sum(t.num_rows for t in ray_session.get(query(inputs).to_arrow_refs()))
    lazy = {name: _lazy(ds) for name, ds in inputs.items()}
    before = executors.started
    assert query(lazy).materialize().count() == want
    assert executors.started - before <= 1


def _package_trees():
    """(file label, AST) of every package module and the driver entry
    module."""
    import ast
    import pathlib

    root = pathlib.Path(exchange.__file__).parents[1]
    for path in [*sorted(root.rglob("*.py")), root.parent / "__ray_entry__.py"]:
        yield path.relative_to(root.parent), ast.parse(path.read_text(), str(path))


def _outside(fn_name: str, matches) -> tuple[list[str], int]:
    """Where `matches(node)` holds in `_package_trees`, outside the body
    of `exchange.<fn_name>`."""
    import ast

    found, allowed = [], set()
    for where, tree in _package_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef) and node.name == fn_name
                    and where.name == "exchange.py"):
                allowed |= {id(n) for n in ast.walk(node)}
            if matches(node):
                found.append((node, f"{where}:{getattr(node, 'lineno', '?')}"))
    return [w for node, w in found if id(node) not in allowed], len(found)


def test_map_batches_is_called_only_in_map_blocks():
    """Every row-local map in the package and the driver entry runs
    through `exchange.map_blocks` (or is a grouped reduce's `prepare`):
    an AST scan finds one `.map_batches(` call, the one inside
    `map_blocks`."""
    import ast

    outside, n = _outside("map_blocks", lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "map_batches"))
    assert not outside, outside
    assert n == 1


def test_ray_remote_is_called_only_in_task():
    """Every raw Ray task is defined once per process: an AST scan of the
    package finds `ray.remote` only inside `exchange.task`."""
    import ast

    outside, n = _outside("task", lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "remote"
        and isinstance(node.value, ast.Name) and node.value.id == "ray"))
    assert not outside, outside
    assert n == 1


def test_stateful_maps_are_built_where_the_plan_is_built():
    """A stateful stage is a value, built once by its caller and run by
    `map_blocks`: an AST scan of the package and the driver entry finds
    no use of `actor_map` (a name, an attribute or an import) and no
    `fn_constructor_kwargs=` keyword outside the `actor_map` alias."""
    import ast

    outside, _ = _outside("actor_map", lambda node: (
        isinstance(node, ast.Name) and node.id == "actor_map"
        or isinstance(node, ast.Attribute) and node.attr == "actor_map"
        or isinstance(node, ast.alias) and node.name == "actor_map"
        or isinstance(node, ast.keyword) and node.arg == "fn_constructor_kwargs"))
    assert not outside, outside


def _exported_functions() -> dict:
    """Ray's exported remote functions: key -> (module, size in bytes)."""
    import pickle

    from ray.experimental import internal_kv as kv

    out = {}
    for k in kv._internal_kv_list(b"RemoteFunction", namespace="fun"):
        v = kv._internal_kv_get(k, namespace="fun")
        out[k] = (pickle.loads(v)["module"], len(v))
    return out


@pytest.mark.parametrize("op", sorted(_EXECUTOR_COUNTS))
def test_repeated_job_exports_no_function(ray_session, op):
    """A job's code reaches its tasks as arguments, not as new remote
    functions: the second run of an op over the same computed input adds
    no function to Ray's GCS function table.  A lazy input's plan runs in
    a Ray Data executor, which exports its own map task once per run."""
    query, executors = _EXECUTOR_COUNTS[op]
    inputs = _inputs()
    query(inputs).materialize()
    before = _exported_functions()
    query(inputs).materialize()
    new = [m for k, (m, _) in _exported_functions().items() if k not in before]
    assert [m for m in new if not (executors and m.startswith("ray.data."))] == []


def test_large_callable_rides_the_object_store(ray_session):
    """An ANN scan holding 40,000 queries crosses to its split tasks
    through the object store: after the job no function Ray has exported
    is larger than 64 KB."""
    queries = np.random.default_rng(6).normal(size=(40_000, 8)).astype(np.float32)
    out = simsearch.ann_topk(_inputs()["vectors"], queries, np.arange(40_000), k=4)
    assert out.count() == 160_000
    sizes = list(_exported_functions().values())
    assert sizes and all(n <= 64 * 1024 for _, n in sizes), sizes


def test_hamming_near_dup_carries_its_signatures_as_payload(ray_session,
                                                            monkeypatch):
    """SimHash's (id, sig) blocks are its near-dup payload as they are:
    one `simhash_near_dup` job makes two `map_blocks` calls (the
    signatures and the hot-bucket spill), not a third identity map."""
    calls = []
    map_blocks = exchange.map_blocks

    def counting(ds, fn, batch_size=None):
        calls.append(fn)
        return map_blocks(ds, fn, batch_size)

    inputs = _inputs()
    want = textops.simhash_near_dup(inputs["docs"], num_parts=4).to_pandas()
    monkeypatch.setattr(exchange, "map_blocks", counting)
    got = textops.simhash_near_dup(inputs["docs"], num_parts=4).to_pandas()
    assert len(calls) == 2
    assert len(got) > 0 and got.equals(want)


@pytest.mark.parametrize("mode,rows", [("inner", 40), ("semi", 40), ("anti", 360)])
def test_pip_join_over_lazy_input_fuses_with_it(ray_session, executors, mode,
                                                rows):
    """Over a lazy input the region join stays a Ray Data map, fused with
    the input's plan: the result is lazy, and running it is one executor."""
    from ray.data.dataset import MaterializedDataset

    keys = _lazy(_in_blocks(pa.table({"k": np.arange(400, dtype=np.int64)})))
    out = ppip.pip_join(keys, "k", layer=_urban_layer(), mode=mode)
    assert not isinstance(out, MaterializedDataset)
    before = executors.started
    assert out.materialize().count() == rows
    assert executors.started - before == 1


@pytest.mark.parametrize("final", ["tree", "hash"])
@pytest.mark.parametrize("inp,want", [("read_parquet", 1), ("map_batches", 1)])
def test_distinct_count_by_key_runs_input_once(ray_session, executors,
                                               tmp_path, inp, want, final):
    """distinct_count_by_key reads the value type without a partial run
    of the input.  A lazy parquet read carries its schema, so the read
    and the pair dedup are one fused run; a map's schema is unknown until
    it runs, so the map runs once and the dedup runs over its computed
    blocks in raw tasks.  `final` is a value an old caller passed for the
    removed plan knob: the call rejects it before the input runs."""
    import pyarrow.parquet as pq
    import ray.data

    t = pa.table({"k": np.arange(400, dtype=np.int64) % 5,
                  "v": np.arange(400, dtype=np.int64) % 11})
    for i in range(3):
        pq.write_table(t.slice(i * 134, 134), tmp_path / f"part-{i}.parquet")
    ds = ray.data.read_parquet(str(tmp_path))
    if inp == "map_batches":
        ds = ds.map_batches(lambda b: b, batch_format="pyarrow")
    before = executors.started
    with pytest.raises(TypeError, match="final"):
        agg.distinct_count_by_key(ds, "k", "v", final=final)
    assert executors.started == before
    out = pa.concat_tables(executors.fetch(
        agg.distinct_count_by_key(ds, "k", "v")))
    assert executors.started - before == want
    got = dict(zip(out["k"].to_pylist(), out["n_distinct"].to_pylist()))
    assert got == {k: 11 for k in range(5)}


def test_co_partition_pinned_refs_follow_partitions(ray_session):
    """pinned[p] is appended to partition p's tables: every row meets the
    pinned table of the partition its key hashes to."""
    import ray
    import ray.data

    t = pa.table({"k": np.arange(200, dtype=np.int64)})
    pinned = [ray.put(pa.table({"p": [p]})) for p in range(5)]

    def tag(tbl, pin):
        return tbl.append_column(
            "p", pa.array(np.full(tbl.num_rows, pin["p"][0].as_py())))

    out = exchange.co_partition(
        [(ray.data.from_arrow(t).repartition(3), "k", None)], 5, tag,
        pinned=pinned,
    ).to_pandas()
    want = {k: p for p, part in enumerate(exchange._hash_part(t, "k", 5))
            for k in part["k"].to_pylist()}
    assert len(out) == 200
    assert all(want[k] == p for k, p in zip(out["k"], out["p"]))


def _crash_once(marker: str) -> None:
    """Kill this worker process the first time any task gets here."""
    import os

    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os._exit(1)


def test_co_partition_lost_worker_is_deterministic(ray_session, tmp_path):
    """A split task (in map_fn) and a partition task (in fn) each lose
    their worker once; Ray's default retries rerun them and the output is
    byte-identical to a clean run."""
    import os

    import ray.data

    rng = np.random.default_rng(4)
    src = ray.data.from_arrow(pa.table({
        "k": rng.integers(0, 50, 2000), "v": rng.normal(size=2000),
    })).repartition(4).materialize()
    map_marker = str(tmp_path / "map")
    fn_marker = str(tmp_path / "fn")

    def run(crash: bool) -> list[bytes]:
        def map_fn(t):
            if crash:
                _crash_once(map_marker)
            return t

        def fn(t):
            if crash:
                _crash_once(fn_marker)
            return t.sort_by([("k", "ascending"), ("v", "ascending")])

        return _ipc_blobs(exchange.co_partition([(src, "k", map_fn)], 4, fn))

    clean = run(False)
    crashed = run(True)
    assert os.path.exists(map_marker) and os.path.exists(fn_marker)
    assert crashed == clean


@pytest.mark.parametrize("where", ["split", "partition"])
def test_co_partition_lost_worker_in_one_task_is_deterministic(ray_session,
                                                               tmp_path, where):
    """Only a split task (in map_fn) or only a partition task (in fn)
    loses its worker once, over a 4-block computed input; Ray's default
    retry reruns it and the output is byte-identical to a clean run."""
    import os

    src = _in_blocks(pa.table({"k": np.arange(2000, dtype=np.int64) % 50,
                               "v": np.arange(2000, dtype=np.int64)}), 4)
    marker = str(tmp_path / where)

    def run(crash: bool) -> list[bytes]:
        def step(t, here):
            if crash and here == where:
                _crash_once(marker)
            return t

        return _ipc_blobs(exchange.co_partition(
            [(src, "k", lambda t: step(t, "split"))], 4,
            lambda t: step(t, "partition").sort_by([("k", "ascending"),
                                                    ("v", "ascending")])))

    clean = run(False)
    crashed = run(True)
    assert os.path.exists(marker)
    assert len(clean) == 4 and crashed == clean


def _ipc_blobs(ds) -> list[bytes]:
    """Each block of a computed dataset as Arrow IPC stream bytes."""
    import ray

    blobs = []
    for tbl in ray.get(ds.to_arrow_refs()):
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, tbl.schema) as w:
            w.write_table(tbl)
        blobs.append(sink.getvalue().to_pybytes())
    return blobs


def test_map_blocks_lost_worker_is_deterministic(ray_session, tmp_path):
    """A raw map task loses its worker once; Ray's default retry reruns it
    and the output is byte-identical to a clean run."""
    import os

    import pyarrow.compute as pc
    import ray.data

    src = ray.data.from_arrow([
        pa.table({"k": np.arange(i, i + 500, dtype=np.int64)})
        for i in range(0, 2000, 500)]).materialize()
    marker = str(tmp_path / "map")

    def run(crash: bool) -> list[bytes]:
        def fn(t):
            if crash:
                _crash_once(marker)
            return t.append_column("k3", pc.multiply(t["k"], 3))

        return _ipc_blobs(exchange.map_blocks(src, fn, batch_size=128))

    clean = run(False)
    crashed = run(True)
    assert os.path.exists(marker)
    assert len(clean) == 4 and crashed == clean


def _map_blocks_inputs():
    """Computed inputs for `map_blocks`: zero blocks, column-less blocks
    (a filter that dropped every row), and blocks of 3, 8 and 20 rows
    (smaller than, equal to and larger than a batch_size of 8)."""
    import ray.data

    t = pa.table({"k": np.arange(31, dtype=np.int64)})
    src = ray.data.from_arrow([t.slice(0, 3), t.slice(3, 8), t.slice(11, 20)])
    return {
        "zero_blocks": src.limit(0).materialize(),
        "filter_all": src.filter(lambda r: False).materialize(),
        "sized": src.materialize(),
    }


@pytest.mark.parametrize("batch_size", [None, 8])
@pytest.mark.parametrize("inp", ["zero_blocks", "filter_all", "sized"])
def test_map_blocks_degenerate_inputs_match_map_batches(ray_session, executors,
                                                        inp, batch_size):
    """`fn` sees at most batch_size rows and never a zero-row table, and
    the rows and content equal `map_batches` over the same input.  An
    input without rows gives a result without blocks (`map_batches`
    gives none with rows either), which `with_schema` turns into one
    empty block of the declared schema.  No executor starts."""
    import pyarrow.compute as pc
    import ray
    from perfbench.workloads import digest

    ds = _map_blocks_inputs()[inp]
    schema = pa.schema([("k", pa.int64()), ("k2", pa.int64())])

    def fn(t: pa.Table) -> pa.Table:
        return t.append_column("k2", pc.multiply(t["k"], 2))

    def checked(t: pa.Table) -> pa.Table:
        assert 0 < t.num_rows <= (batch_size or 20), t.num_rows
        return fn(t)

    before = executors.started
    out = exchange.map_blocks(ds, checked, batch_size)
    got = ray.get(exchange.block_refs(out))
    assert executors.started == before
    want = ray.get(exchange.block_refs(ds.map_batches(
        fn, batch_format="pyarrow", batch_size=batch_size).materialize()))
    concat = (lambda ts: pa.concat_tables(ts, promote_options="default")
              if ts else None)
    assert digest(concat(got)) == digest(concat(want))
    if inp == "sized":
        assert concat(got).schema.equals(schema)
        assert concat(got)["k2"].to_pylist() == [2 * k for k in range(31)]
        return
    assert out.num_blocks() == 0
    before = executors.started
    blocks = executors.fetch(exchange.with_schema(out, schema))
    assert executors.started == before
    assert len(blocks) == 1 and blocks[0].num_rows == 0
    assert blocks[0].schema.equals(schema)


def _bruteforce_pairs(ids, buckets):
    from collections import defaultdict

    by_bucket = defaultdict(set)
    for i, b in zip(ids, buckets):
        by_bucket[b].add(int(i))
    pairs = set()
    for members in by_bucket.values():
        ms = sorted(members)
        for x in range(len(ms)):
            for y in range(x + 1, len(ms)):
                pairs.add((ms[x], ms[y]))
    return pairs


def test_segment_triu_pairs_matches_bruteforce():
    rng = np.random.default_rng(3)
    buckets = np.sort(rng.integers(0, 12, 200))
    ids = rng.permutation(10_000)[:200].astype(np.int64)
    order = np.lexsort((ids, buckets))
    b_s, i_s = buckets[order], ids[order]
    starts = np.nonzero(np.concatenate([[True], b_s[1:] != b_s[:-1]]))[0]
    lens = np.diff(np.concatenate([starts, [len(b_s)]]))
    a, b = exchange._segment_triu_pairs(i_s, starts, lens)
    got = set(zip(a.tolist(), b.tolist()))
    assert got == _bruteforce_pairs(ids, buckets)
    assert np.all(a < b)


def test_left_cross_pairs_covers_triangle():
    ids = np.arange(100, 117, dtype=np.int64)
    # chunks of 5 lefts each must tile the full triangle exactly once
    got = set()
    cap = 5
    n = len(ids)
    for c in range(-(-n // cap)):
        lo = c * cap
        a, b = exchange._left_cross_pairs(ids[lo:], cap)
        chunk_pairs = set(zip(a.tolist(), b.tolist()))
        assert not (got & chunk_pairs)  # no overlap between chunks
        got |= chunk_pairs
    want = {(int(ids[i]), int(ids[j]))
            for i in range(n) for j in range(i + 1, n)}
    assert got == want


@pytest.mark.parametrize("cap", [8, 1 << 30])
def test_lsh_candidate_pairs_hot_bucket(ray_session, cap):
    """A deliberately skewed bucket table (one bucket holds 60 of 90 ids)
    must produce the identical pair set whether or not the hot-bucket
    chunk-spill path triggers."""
    import ray.data

    rng = np.random.default_rng(11)
    ids = np.arange(90, dtype=np.int64)
    buckets = np.concatenate(
        [np.zeros(60, dtype=np.int64),  # hot bucket
         rng.integers(1, 12, 30)]
    )
    # a few ids appear in several buckets (multi-band reality)
    extra_ids = ids[:10]
    extra_buckets = np.full(10, 5, dtype=np.int64)
    all_ids = np.concatenate([ids, extra_ids])
    all_buckets = np.concatenate([buckets, extra_buckets])
    ds = ray.data.from_arrow(
        pa.table({"doc_id": all_ids, "bucket": all_buckets})
    ).repartition(4)
    out = exchange.lsh_candidate_pairs(
        ds, "doc_id", "bucket", num_parts=4, a_col="doc_a", b_col="doc_b",
        hot_bucket_cap=cap,
    ).to_pandas()
    got = set(zip(out["doc_a"].tolist(), out["doc_b"].tolist()))
    assert got == _bruteforce_pairs(all_ids, all_buckets)
    assert len(got) == len(out)  # deduped


def test_lsh_candidate_pairs_string_ids(ray_session):
    """String ids ("img%012d") pair like their integer suffixes, through
    the small-bucket and the hot-bucket chunk paths: the same pairs under
    the id bijection, a < b, typed string."""
    import ray
    import ray.data

    rng = np.random.default_rng(5)
    ids = np.concatenate([np.arange(40), rng.integers(0, 40, 30)]).astype(np.int64)
    # one hot bucket of 25 ids over a cap of 8, and small buckets
    buckets = np.concatenate([np.zeros(25), rng.integers(1, 9, 45)]).astype(np.int64)
    names = pa.array([f"img{i:012d}" for i in ids])

    def pairs(id_col):
        ds = ray.data.from_arrow(
            pa.table({"doc_id": id_col, "bucket": buckets})).repartition(3)
        return pa.concat_tables(ray.get(exchange.lsh_candidate_pairs(
            ds, "doc_id", "bucket", 4, "doc_a", "doc_b", hot_bucket_cap=8,
        ).to_arrow_refs()))

    want = pairs(ids)
    got = pairs(names)
    assert got.schema.field("doc_a").type == pa.string()
    assert all(a < b for a, b in zip(got["doc_a"].to_pylist(),
                                     got["doc_b"].to_pylist()))
    back = set(zip((int(a[3:]) for a in got["doc_a"].to_pylist()),
                   (int(b[3:]) for b in got["doc_b"].to_pylist())))
    assert len(back) == got.num_rows
    assert back == set(zip(want["doc_a"].to_pylist(), want["doc_b"].to_pylist()))
    assert back == _bruteforce_pairs(ids, buckets)


def test_reduce_by_key_matches_pandas(ray_session):
    """GROUP BY a composite (string, int) key, a single int key and a
    single string key, plus DISTINCT — exact, no hashed key."""
    import pandas as pd
    import ray.data

    rng = np.random.default_rng(7)
    et = np.array(["view", "buy", "add", "zz|weird"], dtype=object)[
        rng.integers(0, 4, 5000)
    ]
    w = rng.integers(-3, 5, 5000).astype(np.int64)
    v = rng.integers(0, 100, 5000).astype(np.int64)
    df = pd.DataFrame({"et": et, "w": w, "v": v,
                       "n": np.ones(5000, dtype=np.int64)})
    ds = ray.data.from_pandas(df).repartition(7)
    for keys in (["et", "w"], "w", "et"):
        kl = [keys] if isinstance(keys, str) else keys
        exp = (
            df.groupby(kl, sort=False)
            .agg(n=("n", "sum"), v=("v", "min"))
            .reset_index()
        )
        out = agg.reduce_by_key(ds, keys, {"n": "sum", "v": "min"}).to_pandas()
        a = out.sort_values(kl).reset_index(drop=True)
        b = exp.sort_values(kl).reset_index(drop=True)[a.columns]
        assert a.equals(b), keys
        # one row per key
        assert len(out) == len(exp), keys
    got = agg.distinct_keys(ds, "et").to_pandas()["et"]
    assert sorted(got) == sorted(set(et))


_AGG_OPS = {
    "reduce_by_key": lambda ds, **kw: agg.reduce_by_key(ds, "k", ["x"], **kw),
    "distinct_keys": lambda ds, **kw: agg.distinct_keys(ds, "k", **kw),
    "grouped_topk": lambda ds, **kw: agg.grouped_topk(
        ds, ["k"], [("x", "descending"), ("i", "ascending")], 2, **kw),
    "distinct_count_by_key": lambda ds, **kw: agg.distinct_count_by_key(
        ds, "k", "x", **kw),
}
# in-memory sources only: a `limit(0)` over a parquet read cancels
# in-flight read tasks
_EMPTY_INPUTS = {
    "limit0": lambda ds: ds.limit(0),
    "filter_all": lambda ds: ds.filter(lambda r: False),
    "map_over_limit0": lambda ds: ds.limit(0).map_batches(
        lambda b: b, batch_format="pyarrow"),
}


def _assert_typed_empty(blocks, schema: pa.Schema):
    assert blocks and sum(b.num_rows for b in blocks) == 0
    for b in blocks:
        assert b.schema.equals(schema), (b.schema, schema)


# pipelines whose grouped reduce ends in a finish: (op, schema) for an
# empty input
_STR, _I64 = pa.string(), pa.int64()
# the output schema of each grouped op on an empty input
_AGG_SCHEMAS = {
    "reduce_by_key": pa.schema([("k", _I64), ("x", _I64)]),
    "distinct_keys": pa.schema([("k", _I64)]),
    "grouped_topk": pa.schema([("k", _I64), ("x", _I64), ("i", _I64),
                               ("rank", _I64)]),
    "distinct_count_by_key": pa.schema([("k", _I64), ("n_distinct", _I64)]),
}
_PIPELINES = {
    "tile_counts": (
        lambda ds, **kw: tiling.tile_counts(ds, "k", 8, **kw),
        pa.schema([("tile_token", _STR), ("n", _I64)])),
    "h3_tile_counts": (
        lambda ds, **kw: tiling.h3_tile_counts(ds, "k", 5, **kw),
        pa.schema([("h3_token", _STR), ("n", _I64)])),
    "snap_dedup": (
        lambda ds, **kw: tiling.snap_dedup(ds, "k", **kw),
        pa.schema([("snap_token", _STR), ("keep_key", _I64), ("n", _I64)])),
    "term_counts": (
        lambda ds, **kw: textops.term_counts(ds, **kw),
        pa.schema([("term", _STR), ("n", _I64), ("rank", _I64)])),
}
# the two names that still take the removed grouped-plan knob `final`,
# accepted and ignored (the benchmark harness passes final="hash")
_IGNORE_FINAL = ("reduce_by_key", "tile_counts")


@pytest.mark.parametrize("inp", sorted(_EMPTY_INPUTS))
@pytest.mark.parametrize("op,final", [
    (op, final) for op in _AGG_OPS for final in ("tree", "hash", "bogus")
] + [
    (op, final) for op in ("tile_counts", "h3_tile_counts")
    for final in ("tree", "hash")
] + [("snap_dedup", None), ("term_counts", None)])
def test_grouped_ops_on_empty_input(ray_session, executors, op, final, inp):
    """Every grouped op on a zero-block (limit 0, also under a map whose
    schema Ray cannot report) or all-rows-filtered input gives 0 rows, as
    a computed dataset: one empty block of the pipeline's declared
    schema, or of the generic op's input key and value types where Ray
    reports them without running the input (limit 0).  `final` is a value an old caller passed
    for the removed plan knob: the two names that keep the parameter
    ignore any value, and every other op rejects the keyword."""
    import ray.data

    src = ray.data.from_arrow(pa.table({
        "k": np.arange(20, dtype=np.int64) % 4,
        "x": np.arange(20, dtype=np.int64),
        "i": np.arange(20, dtype=np.int64),
        "text": pa.array(["a b"] * 20),
    })).repartition(3)
    ds = _EMPTY_INPUTS[inp](src)
    run, schema = _PIPELINES.get(op) or (_AGG_OPS[op], _AGG_SCHEMAS[op])
    kw = {}
    if final is not None and op in _IGNORE_FINAL:
        kw = {"final": final}
    elif final is not None:
        with pytest.raises(TypeError, match="final"):
            run(ds, final=final)
    out = run(ds, **kw)
    if op in _AGG_OPS and exchange.known_schema(ds) is None:
        # a generic op over an input whose schema Ray cannot report has
        # none to declare: no rows and no blocks (its caller declares one)
        assert inp != "limit0" and out.num_blocks() == 0
        return
    _assert_typed_empty(executors.fetch(out), schema)


_F64 = pa.float64()
_LSH_PIPELINES = {
    "near_dup_pairs": (
        lambda src: textops.near_dup_pairs(src),
        pa.schema([("doc_a", _I64), ("doc_b", _I64), ("jaccard", _F64)])),
    "simhash_near_dup": (
        lambda src: textops.simhash_near_dup(src),
        pa.schema([("doc_a", _I64), ("doc_b", _I64), ("hamming", _I64)])),
    "embedding_near_dup": (
        lambda src: simsearch.embedding_near_dup(src, threshold=0.9),
        pa.schema([("vec_id_a", _I64), ("vec_id_b", _I64), ("cosine", _F64)])),
    "embedding_near_dup_q15": (
        lambda src: simsearch.embedding_near_dup(src, threshold=1,
                                                 arith=simsearch.Q15),
        pa.schema([("vec_id_a", _I64), ("vec_id_b", _I64),
                   ("dot_q15", _I64)])),
}


@pytest.mark.parametrize("inp", sorted(_EMPTY_INPUTS))
@pytest.mark.parametrize("op", ["lsh_candidate_pairs"] + sorted(_LSH_PIPELINES))
def test_lsh_ops_on_empty_input(ray_session, executors, op, inp):
    """The LSH candidate exchange on a zero-block or all-rows-filtered
    input returns 0 rows, typed (doc_a: int64, doc_b: int64) where Ray
    reports the input's id type, and every near-dup pipeline returns 0
    rows of its declared schema, each as a computed dataset."""
    import ray.data

    src = ray.data.from_arrow(pa.table({
        "doc_id": np.arange(6, dtype=np.int64),
        "vec_id": np.arange(6, dtype=np.int64),
        "bucket": np.zeros(6, dtype=np.int64),
        "text": pa.array(["a b c d e f g"] * 6),
        "embedding": list(np.ones((6, 8))),
    })).repartition(2)
    ds = _EMPTY_INPUTS[inp](src)
    if op in _LSH_PIPELINES:
        run, schema = _LSH_PIPELINES[op]
        _assert_typed_empty(executors.fetch(run(ds)), schema)
        return
    out = exchange.lsh_candidate_pairs(ds, "doc_id", "bucket", 4, "doc_a", "doc_b")
    if exchange.known_schema(ds) is None:
        assert inp != "limit0" and out.num_blocks() == 0
        return
    _assert_typed_empty(executors.fetch(out),
                        pa.schema([("doc_a", _I64), ("doc_b", _I64)]))


def test_image_phash_near_dup_on_empty_file(ray_session, executors, tmp_path):
    """An images directory holding one zero-row parquet file gives 0 rows
    of (img_a: string, img_b: string, hamming: int64)."""
    import pyarrow.parquet as pq

    pq.write_table(pa.table({"image_id": pa.array([], pa.string()),
                             "phash": pa.array([], _I64)}),
                   tmp_path / "part-0.parquet")
    out = flagship.image_phash_near_dup(str(tmp_path))
    _assert_typed_empty(executors.fetch(out), pa.schema(
        [("img_a", _STR), ("img_b", _STR), ("hamming", _I64)]))


# a dimension table for `broadcast_join`: one row per 7th key
_DIM = pa.table({"rk": np.arange(0, 400, 7, dtype=np.int64),
                 "name": [f"n{i}" for i in range(0, 400, 7)]})

# the map operators that run one built stage (`map_blocks`) over the
# computed inputs of `_stage_inputs` -> their output columns;
# `image_pip_join` is given the computed geometry view in place of a
# directory (`geometry_view` is patched to pass it through)
_STAGE_MAPS = {
    "broadcast_join": (lambda i: exchange.broadcast_join(
        i["keys"], _DIM, "k", right_on="rk"), ["k", "name"]),
    "shape_index_pip_join": (lambda i: ppip.shape_index_pip_join(
        i["keys"], "k", layer=_urban_layer()), ["k", "polygon_id"]),
    "image_pip_join": (lambda i: flagship.image_pip_join(i["geometry"]),
                       ["image_id", "polygon_id"]),
    "image_features": (lambda i: multimodal.image_features(i["images"]), [
        "image_id", "decode_ok", "mean_r", "mean_g", "mean_b", "std_r",
        "std_g", "std_b"]),
    "phash_recompute": (lambda i: multimodal.phash_recompute(i["images"]),
                        ["image_id", "phash"]),
}


def _stage_inputs(rows: bool = True) -> dict:
    """400 keys, 40 images and their (image_id, lat, lng) view, each in 3
    computed blocks, or each as one zero-row block of the same schema."""
    import ray.data

    from s2_geometry_rust_ray.sources.images import generate_images_table

    images = generate_images_table(40)
    tables = {"keys": pa.table({"k": np.arange(400, dtype=np.int64)}),
              "images": images,
              "geometry": images.select(["image_id", "lat", "lng"])}
    if rows:
        return {n: _in_blocks(t) for n, t in tables.items()}
    return {n: ray.data.from_arrow(t.slice(0, 0)).materialize()
            for n, t in tables.items()}


@pytest.mark.parametrize("op", sorted(_STAGE_MAPS))
def test_stage_map_on_empty_input_gives_declared_schema(ray_session, executors,
                                                        monkeypatch, op):
    """Over zero-row computed inputs each stage map returns ONE empty block
    of the schema its result has over rows, and neither the operator nor
    the fetch starts an executor."""
    monkeypatch.setattr(flagship, "geometry_view", lambda ds: ds)
    query, columns = _STAGE_MAPS[op]
    schema = exchange.known_schema(query(_stage_inputs()))
    empty = _stage_inputs(rows=False)
    before = executors.started
    tables = executors.fetch(query(empty))
    assert executors.started == before
    assert len(tables) == 1 and tables[0].num_rows == 0
    assert tables[0].schema.names == columns
    assert tables[0].schema.equals(schema), (tables[0].schema, schema)


def test_shape_index_pip_join_builds_its_index_once(ray_session, monkeypatch):
    """`shape_index_pip_join` builds the layer's MutableShapeIndex once, in
    the driver, whatever the number of blocks of its computed input, and
    its rows equal the broadcast PIPJoin's."""
    from s2_geometry_rust_ray.geometry import shape_index as si

    builds = []
    build = si.MutableShapeIndex.build

    def counting(self):
        builds.append(self)
        return build(self)

    monkeypatch.setattr(si.MutableShapeIndex, "build", counting)
    keys = _in_blocks(pa.table({"k": np.arange(4000, dtype=np.int64)}), 5)
    assert keys.num_blocks() >= 4
    layer = {k: v for k, v in ppip.standard_polygon_layer().items()
             if k.startswith("urban_")}
    got = _rows(ppip.shape_index_pip_join(keys, "k", layer=layer), "k")
    assert len(builds) == 1
    assert got and got == _rows(ppip.pip_join(keys, "k", layer=layer), "k")


def test_broadcast_join_matches_pyarrow_join(ray_session):
    """Map-side broadcast join == pyarrow inner join, including unmatched
    left rows dropped and right column pruning."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from s2_geometry_rust_ray.stages import exchange

    rng = np.random.default_rng(5)
    left = pa.table({
        "k": rng.integers(0, 40, 500),   # some keys miss the right side
        "x": np.arange(500, dtype=np.int64),
    })
    right = pa.table({
        "rk": np.arange(0, 30, dtype=np.int64),
        "name": [f"n{i}" for i in range(30)],
        "extra": np.arange(30, dtype=np.float64),
    })
    got = (
        exchange.broadcast_join(
            ray.data.from_arrow(left), right, "k",
            right_on="rk", columns=["name"],
        )
        .to_pandas().sort_values(["x"]).reset_index(drop=True)
    )
    exp = (
        left.join(right.select(["rk", "name"]), keys="k", right_keys="rk",
                  join_type="inner")
        .to_pandas().sort_values(["x"]).reset_index(drop=True)
    )
    assert list(got.columns) == ["k", "x", "name"]
    assert got.equals(exp[["k", "x", "name"]])


def test_broadcast_join_empty_right_and_duplicate_keys(ray_session):
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray.data

    from s2_geometry_rust_ray.stages import exchange

    left = pa.table({"k": np.arange(10, dtype=np.int64)})
    empty_right = pa.table({"rk": pa.array([], pa.int64()),
                            "name": pa.array([], pa.string())})
    out = exchange.broadcast_join(
        ray.data.from_arrow(left), empty_right, "k", right_on="rk"
    )
    assert out.count() == 0
    dup_right = pa.table({"rk": pa.array([1, 1], pa.int64()),
                          "name": ["a", "b"]})
    with pytest.raises(Exception, match="not unique"):
        exchange.broadcast_join(
            ray.data.from_arrow(left), dup_right, "k", right_on="rk"
        ).count()


def test_hash_part_composite_key_spreads_low_card_leading_key():
    """Hash partitioning on a composite key must spread by the JOINT
    cardinality: a 2-value leading key over 1000 windows must fill (far)
    more than 2 partitions."""
    t = pa.table({
        "et": np.array(["a", "b"], dtype=object)[
            np.arange(2000, dtype=np.int64) % 2],
        "w": (np.arange(2000, dtype=np.int64) // 2),
        "v": np.ones(2000, dtype=np.int64),
    })
    parts = exchange._hash_part(t, ["et", "w"], 8)
    nonempty = sum(p.num_rows > 0 for p in parts)
    assert nonempty == 8
    assert sum(p.num_rows for p in parts) == 2000
    # same tuple always lands in the same partition (determinism across
    # a re-split of a permuted copy)
    perm = np.random.default_rng(0).permutation(2000)
    parts2 = exchange._hash_part(t.take(pa.array(perm)), ["et", "w"], 8)
    for p, q in zip(parts, parts2):
        a = p.to_pandas().sort_values(["et", "w"]).reset_index(drop=True)
        b = q.to_pandas().sort_values(["et", "w"]).reset_index(drop=True)
        assert a.equals(b)


def test_broadcast_join_column_collision_raises(ray_session):
    """A right column sharing a name with a left column must raise, not
    silently produce a duplicate-named table, over an empty computed input
    too (its schema is known)."""
    import pytest
    import ray.data

    left = pa.table({"k": np.arange(10, dtype=np.int64),
                     "name": [f"l{i}" for i in range(10)]})
    right = pa.table({"rk": np.arange(10, dtype=np.int64),
                      "name": [f"r{i}" for i in range(10)]})
    for rows in (10, 0):
        with pytest.raises(Exception, match="collision"):
            exchange.broadcast_join(
                ray.data.from_arrow(left.slice(0, rows)).materialize(), right, "k",
                right_on="rk").materialize()


def _broadcast_rows(df, key_col: str, layer) -> set:
    """(key, polygon_id) rows of the broadcast PIPJoin over a pretagged
    frame, run in the driver."""
    from s2_geometry_rust_ray.stages import pip as pip_stages

    out = pip_stages.PIPJoin(pip_stages.prepare_layer(layer), key_col)(
        pa.Table.from_pandas(df, preserve_index=False))
    return set(zip(out[key_col].to_pylist(), out["polygon_id"].to_pylist()))


def _rows(ds, key_col: str) -> set:
    import ray

    out = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    return set(zip(out[key_col].to_pylist(), out["polygon_id"].to_pylist()))


def _hot_cluster(key: str):
    """4,000 pretagged points, 25% of them within 0.05 deg of urban
    cluster 0 (40.75, -74), the rest spread wide; int or string keys."""
    import pandas as pd

    rng = np.random.default_rng(11)
    n, hot = 4000, 1000
    lat = np.concatenate([40.75 + rng.uniform(-0.05, 0.05, hot),
                          rng.uniform(-60, 60, n - hot)])
    lng = np.concatenate([-74.0 + rng.uniform(-0.05, 0.05, hot),
                          rng.uniform(-179, 179, n - hot)])
    k = (np.arange(n, dtype=np.int64) if key == "int"
         else [f"img-{i:06d}" for i in range(n)])
    return pd.DataFrame({"k": k, "lat": lat, "lng": lng})


@pytest.mark.parametrize("num_parts", [1, 4])
@pytest.mark.parametrize("key", ["int", "str"])
def test_shuffle_pip_hot_cluster_matches_broadcast(ray_session, monkeypatch,
                                                   key, num_parts):
    """On a hot-cluster corpus the shuffle join gives the broadcast join's
    (key, polygon_id) rows, and the leaf-quantile ranges balance the
    candidates: the largest partition holds <= 2x the median's rows (a
    level-7 tile hash sent all of them to one partition)."""
    import ray
    import ray.data

    from s2_geometry_rust_ray.pipelines import pip as ppip
    from s2_geometry_rust_ray.pipelines import pip_shuffle

    layer = ppip.standard_polygon_layer()
    df = _hot_cluster(key)
    sizes = []
    co_partition = exchange.co_partition

    def spy(sides, num_parts, fn, pinned=None):
        [(points, part, _)] = sides
        for b in ray.get(exchange.block_refs(points)):
            sizes.append([t.num_rows for t in exchange._hash_part(b, part, num_parts)])
        return co_partition(sides, num_parts, fn, pinned)

    monkeypatch.setattr(exchange, "co_partition", spy)
    out = pip_shuffle.shuffle_pip_join(
        ray.data.from_pandas(df).repartition(4), "k", layer,
        num_parts=num_parts, pretagged=True)
    want = _broadcast_rows(df, "k", layer)
    assert len(want) > 0
    assert _rows(out, "k") == want
    per_part = np.sum(sizes, axis=0)
    assert per_part.sum() >= len({k for k, _ in want})
    assert per_part.max() <= 2 * np.median(per_part), per_part


def test_shuffle_pip_snake_polygons_match_contains_points(ray_session):
    """A thin spiral polygon (candy_cane) whose covering sits at coarse
    levels: the shuffle join over a corpus straddling the spiral gives
    exactly the driver-side contains_points rows, which are the broadcast
    join's rows."""
    import pandas as pd
    import ray.data

    from s2_geometry_rust_ray.functions.coords import latlng_deg_to_xyz
    from s2_geometry_rust_ray.geometry import fixtures
    from s2_geometry_rust_ray.geometry.loop import Polygon
    from s2_geometry_rust_ray.pipelines import pip_shuffle

    def as_loops(coords):
        return [([c[0] for c in coords], [c[1] for c in coords])]

    layer = {"candy": as_loops(fixtures.LOOP_COORDS_DEG["candy_cane"]),
             "box": as_loops([(30, 10), (30, 30), (50, 30), (50, 10)])}
    rng = np.random.default_rng(7)
    n = 3000
    df = pd.DataFrame({
        "k": np.arange(n, dtype=np.int64),
        "lat": rng.uniform(-30, 55, n),
        "lng": rng.uniform(-179, 179, n),
    })
    got = _rows(pip_shuffle.shuffle_pip_join(
        ray.data.from_pandas(df).repartition(4), "k", layer, num_parts=4,
        pretagged=True), "k")

    pts = np.stack(latlng_deg_to_xyz(df["lat"].values, df["lng"].values), axis=-1)
    want = set()
    for pid, loops in layer.items():
        inside = Polygon.from_loops_latlng_deg(loops).contains_points(pts)
        want |= {(int(k), pid) for k in df["k"].values[inside]}
    assert {pid for _, pid in want} == {"candy", "box"}
    assert got == want == _broadcast_rows(df, "k", layer)


def test_shuffle_pip_join_empty_layer(ray_session, executors):
    """An empty region layer gives 0 rows (k, polygon_id) in a computed
    dataset."""
    import pandas as pd
    import ray.data

    from s2_geometry_rust_ray.pipelines import pip_shuffle

    df = pd.DataFrame({"k": np.arange(10, dtype=np.int64),
                       "lat": np.zeros(10), "lng": np.zeros(10)})
    out = pip_shuffle.shuffle_pip_join(
        ray.data.from_pandas(df), "k", {}, num_parts=2, pretagged=True)
    blocks = executors.fetch(out)
    assert blocks and sum(b.num_rows for b in blocks) == 0
    assert all(b.column_names == ["k", "polygon_id"] for b in blocks)


@pytest.mark.parametrize("num_parts", [1, 8, None], ids=["1", "8", "auto"])
@pytest.mark.parametrize("inp", sorted(_EMPTY_INPUTS))
def test_shuffle_pip_join_on_empty_input(ray_session, executors, inp, num_parts):
    """A zero-block or all-filtered point input, at one, several or the
    default (None) number of partitions, leaves the point partitions
    without columns; the join must return 0 rows (key, polygon_id), in a
    computed dataset, instead of looking up the key column's type in
    them."""
    import ray.data

    from s2_geometry_rust_ray.pipelines import pip as ppip
    from s2_geometry_rust_ray.pipelines import pip_shuffle

    src = ray.data.from_arrow(pa.table({
        "doc_id": np.arange(1000, dtype=np.int64)})).repartition(3)
    out = pip_shuffle.shuffle_pip_join(
        _EMPTY_INPUTS[inp](src), "doc_id", ppip.standard_polygon_layer(),
        num_parts=num_parts)
    blocks = executors.fetch(out)
    assert blocks and sum(b.num_rows for b in blocks) == 0
    assert all(b.column_names == ["doc_id", "polygon_id"] for b in blocks)


def test_near_dup_runs_source_once(ray_session, executors):
    """`exchange.near_dup` with an identity verify is the candidate pairs
    with payload_a and payload_b attached by id: over a lazy source, whose
    plan runs once for the bands and the payload, through the small- and
    hot-bucket paths."""
    import ray.data

    n = 60
    band = np.arange(n, dtype=np.int64) % 7
    band[:12] = 7  # one bucket of 12 ids over a cap of 4
    src = ray.data.from_arrow(pa.table({
        "doc_id": np.arange(n, dtype=np.int64),
        "band": band,
        "text": pa.array([f"t{i}" for i in range(n)]),
    })).repartition(3).map_batches(lambda b: b, batch_format="pyarrow")
    schema = pa.schema([("doc_a", _I64), ("doc_b", _I64), ("text_a", _STR),
                        ("text_b", _STR)])
    before = executors.started
    out = pa.concat_tables(executors.fetch(exchange.near_dup(
        src, "doc_id",
        lambda b: (b["doc_id"], b["band"].to_numpy()[:, None]),
        lambda b: b.select(["doc_id", "text"]),
        lambda t: t.columns, schema, num_parts=4, hot_bucket_cap=4)))
    assert executors.started - before <= 1
    assert out.schema.equals(schema)
    want = sorted((x, y, f"t{x}", f"t{y}")
                  for x in range(n) for y in range(x + 1, n)
                  if band[x] == band[y])
    got = sorted(zip(*(out[c].to_pylist() for c in out.column_names)))
    assert got == want


_KNN_SCHEMA = pa.schema([("query_id", _I64), ("neighbor", _I64), ("d2", _F64),
                         ("rank", _I64)])
# degenerate top-k arguments over rows -> the schema of their empty result
_DEGENERATE_TOPK = {
    "knn_cell_no_queries": (lambda i: knn.knn_cell(i["keys"], "k", n_queries=0),
                            _KNN_SCHEMA),
    "knn_brute_k0": (lambda i: knn.knn_brute(i["keys"], "k", k=0), _KNN_SCHEMA),
    "knn_cell_k0": (lambda i: knn.knn_cell(i["keys"], "k", k=0), _KNN_SCHEMA),
    "ann_topk_k0": (lambda i: simsearch.ann_topk(
        i["vectors"], _VECTOR_QUERIES, np.arange(3), k=0),
        pa.schema([("query_id", _I64), ("vec_id", _I64), ("cosine", _F64),
                   ("rank", _I64)])),
}


@pytest.mark.parametrize("case", sorted(_DEGENERATE_TOPK))
def test_degenerate_topk_arguments_give_declared_schema(ray_session, executors,
                                                        case):
    """No queries, or k=0, over computed inputs with rows: one empty block
    of the op's declared schema, and no executor."""
    query, schema = _DEGENERATE_TOPK[case]
    inputs = _inputs()
    before = executors.started
    _assert_typed_empty(executors.fetch(query(inputs)), schema)
    assert executors.started == before


def test_hamming_near_dup_signs_each_block_once(ray_session, tmp_path):
    """`hamming_near_dup` maps each non-empty block to its signatures
    once, for the bands and the payload alike: a signature that leaves a
    marker file per call runs once per block."""
    import uuid

    docs = _inputs()["docs"]

    def signature(batch: pa.Table):
        (tmp_path / uuid.uuid4().hex).touch()
        ids = batch["doc_id"].to_numpy()
        return batch["doc_id"], (ids % 10).astype(np.int64)

    out = textops.hamming_near_dup(docs, "doc_id", signature, textops._SIMHASH_PAIRS,
                                   0, 4, 1024)
    assert len(list(tmp_path.iterdir())) == docs.num_blocks() == 3
    # the 40 ids in 10 groups of 4 equal signatures: 6 pairs per group
    assert out.count() == 60
