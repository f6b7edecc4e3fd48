"""Hash exchange / hash join / salting unit tests (stages/exchange.py)."""

import numpy as np
import pyarrow as pa
import pytest

from s2_geometry_rust_ray.stages import exchange


def test_hash_part_partitions_all_rows():
    t = pa.table({"k": np.arange(1000, dtype=np.int64), "v": np.ones(1000)})
    parts = exchange._hash_part(t, "k", 7)
    assert sum(p.num_rows for p in parts) == 1000
    # same key always lands in the same partition
    t2 = pa.table({"k": np.array([5, 5, 5], dtype=np.int64), "v": np.zeros(3)})
    parts2 = exchange._hash_part(t2, "k", 7)
    nonempty = [i for i, p in enumerate(parts2) if p.num_rows]
    assert len(nonempty) == 1


def test_hash_join_matches_pandas(ray_session):
    import pandas as pd
    import ray.data

    rng = np.random.default_rng(0)
    left = pd.DataFrame({"k": rng.integers(0, 50, 500), "a": rng.integers(0, 9, 500)})
    right = pd.DataFrame({"k": np.arange(0, 60, 2), "b": np.arange(30)})
    lds = ray.data.from_pandas(left).repartition(4)
    rds = ray.data.from_pandas(right).repartition(2)
    got = exchange.hash_join(lds, rds, "k", num_parts=5).to_pandas()
    want = left.merge(right, on="k")
    key = ["k", "a", "b"]
    a = got[key].sort_values(key).reset_index(drop=True)
    b = want[key].sort_values(key).reset_index(drop=True)
    assert a.equals(b)


def test_hash_part_string_keys_deterministic():
    """String keys must hash identically in any process (no PYTHONHASHSEED
    dependence): check against precomputed pandas siphash partition ids."""
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


def test_hash_join_left_schema_stable(ray_session):
    """Left joins must emit identical schemas on every block, including
    partitions where the right side is empty."""
    import ray.data

    left = pa.table({"k": np.arange(40, dtype=np.int64),
                     "a": np.arange(40, dtype=np.int64)})
    right = pa.table({"k": np.array([3], dtype=np.int64),
                      "b": np.array([99], dtype=np.int64)})
    lds = ray.data.from_arrow(left).repartition(4)
    rds = ray.data.from_arrow(right)
    out = exchange.hash_join(lds, rds, "k", num_parts=8, how="left")
    df = out.to_pandas()
    assert sorted(df.columns) == ["a", "b", "k"]
    assert len(df) == 40
    assert df.loc[df["k"] == 3, "b"].iloc[0] == 99
    assert df["b"].notna().sum() == 1


def test_hash_join_right_on(ray_session):
    import ray.data

    left = pa.table({"doc_a": np.array([1, 2, 3], dtype=np.int64)})
    right = pa.table({"doc_id": np.array([2, 3, 4], dtype=np.int64),
                      "text": pa.array(["x", "y", "z"])})
    out = exchange.hash_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        "doc_a", num_parts=3, right_on="doc_id",
    ).to_pandas().sort_values("doc_a")
    assert out["doc_a"].tolist() == [2, 3]
    assert out["text"].tolist() == ["x", "y"]


def test_co_partition_drops_empty_partitions(ray_session):
    import ray.data

    src = ray.data.from_arrow(
        pa.table({"k": np.array([5, 5, 5], dtype=np.int64)})
    )
    out = exchange.co_partition([(src, "k", None)], 8, lambda t: t)
    assert out.count() == 3
    assert out.num_blocks() == 1  # 7 empties dropped by their count refs


def test_hot_key_histogram(ray_session):
    import ray.data

    k = np.concatenate([np.full(900, 7), np.arange(100)]).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"k": k})).repartition(4)
    hot = exchange.hot_key_histogram(ds, "k", top_n=3)
    assert max(hot, key=hot.get) == 7
    assert hot[7] == 900 + 1  # 7 also occurs once in arange


def test_salted_cell_key_roundtrip():
    # level-8-style sort keys have 44 zero low bits
    base = (np.array([3, 9], dtype=np.int64) << 44) | (1 << 43)
    rows = np.arange(10, dtype=np.uint64)
    hot = {int(base[0])}
    for k in base:
        keys = np.full(10, k, dtype=np.int64)
        salted = exchange.salted_cell_key(keys, rows, hot, 8)
        unsalted = salted & ~np.int64(7)
        assert np.all(unsalted == k)
        if int(k) in hot:
            assert len(np.unique(salted)) > 1  # spread
        else:
            assert len(np.unique(salted)) == 1


def test_co_partition_zero_blocks(ray_session):
    """A zero-block side must reach every partition as a schema-ful empty
    table (after its map_fn), not raise ArrowInvalid from
    concat_tables(()); all-empty output keeps one schema-ful block."""
    import pyarrow as pa
    import ray.data

    # an empty block that lost its columns
    gone = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    gone = gone.filter(lambda r: False)
    assert exchange.co_partition([(gone, "k", None)], 4, lambda t: t).count() == 0

    src = ray.data.from_items([]).map_batches(lambda b: b,
                                              batch_format="pyarrow")
    assert src.to_arrow_refs() == []
    out = exchange.co_partition([(src, "k", None)], 4, lambda t: t)
    assert out.count() == 0
    assert out.schema().names == ["k"]

    full = ray.data.from_arrow(pa.table({"k": np.arange(10, dtype=np.int64)}))
    tag = lambda t: t.append_column("m", pa.array(np.ones(t.num_rows)))  # noqa: E731
    seen = exchange.co_partition(
        [(src, "k", tag), (full, "k", None)], 4,
        lambda a, b: pa.table({"cols": [",".join(a.column_names)],
                               "na": [a.num_rows], "nb": [b.num_rows]}),
    ).to_pandas()
    assert len(seen) == 4  # one fn call per partition
    assert set(seen["cols"]) == {"k,m"}
    assert seen["na"].sum() == 0 and seen["nb"].sum() == 10


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

    import ray
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

        out = exchange.co_partition([(src, "k", map_fn)], 4, fn)
        blobs = []
        for tbl in ray.get(out.to_arrow_refs()):
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(sink, tbl.schema) as w:
                w.write_table(tbl)
            blobs.append(sink.getvalue().to_pybytes())
        return blobs

    clean = run(False)
    crashed = run(True)
    assert os.path.exists(map_marker) and os.path.exists(fn_marker)
    assert crashed == clean


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


def test_reduce_by_key_multi_matches_pandas(ray_session):
    """Composite GROUP BY (string, int) — exact, no hashed key."""
    import pandas as pd
    import ray.data
    from s2_geometry_rust_ray.stages import agg

    rng = np.random.default_rng(7)
    et = np.array(["view", "buy", "add", "zz|weird"], dtype=object)[
        rng.integers(0, 4, 5000)
    ]
    w = rng.integers(-3, 5, 5000).astype(np.int64)
    v = rng.integers(0, 100, 5000).astype(np.int64)
    df = pd.DataFrame({"et": et, "w": w, "v": v,
                       "n": np.ones(5000, dtype=np.int64)})
    ds = ray.data.from_pandas(df).repartition(7)
    for final in ["single", "sorted", "hash"]:
        out = agg.reduce_by_key_multi(
            ds, ["et", "w"], {"n": "sum", "v": "min"}, final=final
        ).to_pandas()
        exp = (
            df.groupby(["et", "w"], sort=False)
            .agg(n=("n", "sum"), v=("v", "min"))
            .reset_index()
        )
        a = out.sort_values(["et", "w"]).reset_index(drop=True)
        b = exp.sort_values(["et", "w"]).reset_index(drop=True)[a.columns]
        assert a.equals(b), final
        # one row per composite key, every final mode
        assert len(out) == len(exp), final


def test_shuffle_pip_salted_matches_unsalted(ray_session):
    """Uniform tile salting must be output-invariant (the skew path), and
    a pretagged skewed corpus (~25% of points in one urban tile) must
    produce identical results at salt=1 and salt=8."""
    import pandas as pd
    import ray.data
    from s2_geometry_rust_ray.pipelines import pip as ppip
    from s2_geometry_rust_ray.pipelines import pip_shuffle

    layer = ppip.standard_polygon_layer()
    rng = np.random.default_rng(11)
    n = 4000
    hot = n // 4
    # 25% of points clustered inside urban cluster 0 (40.75, -74), the
    # rest spread wide
    lat = np.concatenate([
        40.75 + rng.uniform(-0.05, 0.05, hot),
        rng.uniform(-60, 60, n - hot),
    ])
    lng = np.concatenate([
        -74.0 + rng.uniform(-0.05, 0.05, hot),
        rng.uniform(-179, 179, n - hot),
    ])
    df = pd.DataFrame({"k": np.arange(n, dtype=np.int64),
                       "lat": lat, "lng": lng})
    outs = {}
    for salt in (1, 8):
        ds = ray.data.from_pandas(df).repartition(4)
        out = pip_shuffle.shuffle_pip_join(
            ds, "k", layer, level=7, num_parts=4, salt=salt,
            pretagged=True,
        ).to_pandas()
        outs[salt] = out.sort_values(["k", "polygon_id"]).reset_index(
            drop=True
        )
    assert len(outs[1]) > 0
    assert outs[1].equals(outs[8])

    # salt="auto": the hot cluster must trigger per-tile salting and the
    # output must stay identical to the unsalted run
    ds = ray.data.from_pandas(df).repartition(4)
    auto_out = pip_shuffle.shuffle_pip_join(
        ds, "k", layer, level=7, num_parts=4, salt="auto",
        pretagged=True, hot_factor=0.5,
    ).to_pandas().sort_values(["k", "polygon_id"]).reset_index(drop=True)
    assert outs[1].equals(auto_out)


def test_covering_tiles_grid_bounds_snake_polygons(ray_session):
    """A thin spiral polygon (candy_cane) whose covering sits at coarse
    levels must NOT explode into level-K descendants: the grid-coarsened
    tile table stays covering-sized (was 69k rows x pickled geometry
    before the grid fix), and the shuffle join still matches the
    broadcast join exactly on a corpus straddling the spiral."""
    import pandas as pd
    import ray.data
    from s2_geometry_rust_ray.geometry import fixtures
    from s2_geometry_rust_ray.pipelines import pip_shuffle

    def as_loops(coords):
        return [([c[0] for c in coords], [c[1] for c in coords])]

    layer = {"candy": as_loops(fixtures.LOOP_COORDS_DEG["candy_cane"]),
             "box": as_loops([(30, 10), (30, 30), (50, 30), (50, 10)])}
    tiles = pip_shuffle.covering_tiles(layer, 8, with_geometry=True)
    assert tiles.num_rows <= 256, tiles.num_rows
    assert tiles.nbytes < 2_000_000, tiles.nbytes

    rng = np.random.default_rng(7)
    n = 3000
    df = pd.DataFrame({
        "k": np.arange(n, dtype=np.int64),
        "lat": rng.uniform(-30, 55, n),
        "lng": rng.uniform(-179, 179, n),
    })
    ds = ray.data.from_pandas(df).repartition(4)
    shuf = pip_shuffle.shuffle_pip_join(
        ds, "k", layer, level=8, num_parts=4, pretagged=True
    ).to_pandas()
    a = shuf.sort_values(["k", "polygon_id"]).reset_index(drop=True)

    # driver-side exact oracle: contains_points per polygon
    from s2_geometry_rust_ray.functions.coords import latlng_deg_to_xyz
    from s2_geometry_rust_ray.geometry.loop import Polygon

    x, y, z = latlng_deg_to_xyz(df["lat"].values, df["lng"].values)
    pts = np.stack([x, y, z], axis=-1)
    rows = []
    for pid, loops in layer.items():
        inside = Polygon.from_loops_latlng_deg(loops).contains_points(pts)
        for k in df["k"].values[inside]:
            rows.append((int(k), pid))
    b = pd.DataFrame(rows, columns=["k", "polygon_id"]).sort_values(
        ["k", "polygon_id"]
    ).reset_index(drop=True)
    assert len(a) > 0
    assert a.equals(b)


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


def test_hash_join_zero_block_sides(ray_session):
    """Zero-block side: no driver payload pull, left-outer keeps all left
    rows, inner returns none; both-empty doesn't crash on null key types."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from s2_geometry_rust_ray.stages import exchange

    left = ray.data.from_arrow(pa.table({
        "k": np.arange(20, dtype=np.int64),
        "x": np.arange(20, dtype=np.int64),
    }))
    zero = ray.data.from_items([]) \
        .map_batches(lambda b: b, batch_format="pyarrow")
    inner = exchange.hash_join(left, zero, "k", num_parts=4)
    assert inner.count() == 0
    louter = exchange.hash_join(left, zero, "k", num_parts=4, how="left")
    assert louter.count() == 20
    both = exchange.hash_join(zero, zero, "k", num_parts=4, how="left")
    assert both.count() == 0


def test_shuffle_pip_join_empty_layer_salted(ray_session):
    """An empty polygon layer with salting must return an empty result,
    not crash in the tile replication."""
    import pandas as pd
    import ray.data

    from s2_geometry_rust_ray.pipelines import pip_shuffle

    df = pd.DataFrame({"k": np.arange(10, dtype=np.int64),
                       "lat": np.zeros(10), "lng": np.zeros(10)})
    ds = ray.data.from_pandas(df)
    out = pip_shuffle.shuffle_pip_join(
        ds, "k", {}, level=8, num_parts=2, salt=8, pretagged=True
    )
    assert out.count() == 0


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
    silently produce a duplicate-named table."""
    import pytest
    import ray.data

    left = pa.table({"k": np.arange(10, dtype=np.int64),
                     "name": [f"l{i}" for i in range(10)]})
    right = pa.table({"rk": np.arange(10, dtype=np.int64),
                      "name": [f"r{i}" for i in range(10)]})
    with pytest.raises(Exception, match="collision"):
        exchange.broadcast_join(
            ray.data.from_arrow(left), right, "k", right_on="rk"
        ).materialize()


def test_drop_contained_precision_no_float_collapse():
    """A descendant sharing range_min with its ancestor differs in
    range_max by a few ulps of nothing at int64 scale but far below
    float64's 53-bit mantissa at ~2^62 — the sweep must still drop it."""
    from s2_geometry_rust_ray.functions import cellid
    from s2_geometry_rust_ray.pipelines.pip_shuffle import _drop_contained

    leaf = cellid.from_latlng_deg(np.array([10.0]), np.array([20.0]))
    parent = cellid.parent(leaf, 29)
    child = cellid.range_min(parent)  # first leaf: shares range_min
    # descendant FIRST in input order: the old float64 sort collapsed the
    # rmax tie and kept both
    ids = np.concatenate([np.atleast_1d(child).astype(np.uint64),
                          np.atleast_1d(parent).astype(np.uint64)])
    kept = _drop_contained(ids)
    assert len(kept) == 1 and kept[0] == np.atleast_1d(parent)[0]


def test_hot_key_histogram_with_total(ray_session):
    """with_total=True returns the exact total row count from the same
    single pass (sentinel-row tree reduce), and the sentinel never leaks
    into the histogram."""
    import ray.data

    k = np.concatenate([np.full(900, 7), np.arange(100)]).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"k": k})).repartition(4)
    hist, total = exchange.hot_key_histogram(ds, "k", top_n=3,
                                             with_total=True)
    assert total == 1000
    assert max(hist, key=hist.get) == 7 and hist[7] == 901
    assert -(1 << 63) not in hist

    # degenerate: ONE key holds every row (count ties the sentinel) —
    # both must survive the keep_n truncation
    one = ray.data.from_arrow(
        pa.table({"k": np.full(50, 3, dtype=np.int64)})
    ).repartition(2)
    hist1, total1 = exchange.hot_key_histogram(one, "k", top_n=1,
                                               with_total=True)
    assert total1 == 50 and hist1 == {3: 50}


def test_shuffle_pip_auto_sampled_histogram(ray_session):
    """salt='auto' must stay output-invariant with the sampled histogram
    pass, at a sampling fraction small enough to miss tiles (1/8) AND at
    full sampling (1,1) which deterministically triggers the hot-tile
    salting — and the pipeline must not materialize the candidate set."""
    import pandas as pd
    import ray.data
    from s2_geometry_rust_ray.pipelines import pip as ppip
    from s2_geometry_rust_ray.pipelines import pip_shuffle

    layer = ppip.standard_polygon_layer()
    rng = np.random.default_rng(23)
    n = 3000
    hot = n // 3
    lat = np.concatenate([40.75 + rng.uniform(-0.05, 0.05, hot),
                          rng.uniform(-60, 60, n - hot)])
    lng = np.concatenate([-74.0 + rng.uniform(-0.05, 0.05, hot),
                          rng.uniform(-179, 179, n - hot)])
    df = pd.DataFrame({"k": np.arange(n, dtype=np.int64),
                       "lat": lat, "lng": lng})

    def run(salt, hist_sample=(1, 8)):
        ds = ray.data.from_pandas(df).repartition(4)
        return pip_shuffle.shuffle_pip_join(
            ds, "k", layer, level=7, num_parts=4, salt=salt,
            pretagged=True, hot_factor=0.5, hist_sample=hist_sample,
        ).to_pandas().sort_values(["k", "polygon_id"]).reset_index(
            drop=True)

    base = run(1)
    assert len(base) > 0
    assert base.equals(run("auto", (1, 8)))
    assert base.equals(run("auto", (1, 1)))


def test_shuffle_pip_auto_string_keys(ray_session):
    """String point keys through the salted path: the salt hash must fall
    back to pd.util.hash_array (the integer multiply-shift would raise
    inside add_part_key exactly when a hot tile is detected — a
    data-dependent crash).  Output must match salt=1."""
    import pandas as pd
    import ray.data
    from s2_geometry_rust_ray.pipelines import pip as ppip
    from s2_geometry_rust_ray.pipelines import pip_shuffle

    layer = ppip.standard_polygon_layer()
    rng = np.random.default_rng(31)
    n = 1500
    hot = n // 3
    lat = np.concatenate([40.75 + rng.uniform(-0.05, 0.05, hot),
                          rng.uniform(-60, 60, n - hot)])
    lng = np.concatenate([-74.0 + rng.uniform(-0.05, 0.05, hot),
                          rng.uniform(-179, 179, n - hot)])
    df = pd.DataFrame({"k": [f"img-{i:06d}" for i in range(n)],
                       "lat": lat, "lng": lng})

    def run(salt):
        ds = ray.data.from_pandas(df).repartition(4)
        return pip_shuffle.shuffle_pip_join(
            ds, "k", layer, level=7, num_parts=4, salt=salt,
            pretagged=True, hot_factor=0.5, hist_sample=(1, 1),
        ).to_pandas().sort_values(["k", "polygon_id"]).reset_index(
            drop=True)

    base = run(1)
    assert len(base) > 0
    assert base.equals(run("auto"))
    assert base.equals(run(8))
