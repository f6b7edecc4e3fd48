"""Property-based invariants (hypothesis) for the exchange and hashing
kernels — pure-function level, no Ray session needed."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from s2_geometry_rust_ray.functions.hashing import splitmix64
from s2_geometry_rust_ray.stages import exchange

keys_arrays = st.lists(
    st.integers(min_value=-(2**62), max_value=2**62), min_size=0, max_size=300
)


@settings(max_examples=50, deadline=None)
@given(keys=keys_arrays, num_parts=st.integers(min_value=1, max_value=17))
def test_hash_part_is_a_partition(keys, num_parts):
    """Partitions are disjoint, cover the input exactly (multiset), and
    co-locate equal keys."""
    t = pa.table({"k": np.array(keys, dtype=np.int64),
                  "v": np.arange(len(keys), dtype=np.int64)})
    parts = exchange._hash_part(t, "k", num_parts)
    assert len(parts) == num_parts
    vs = np.concatenate(
        [p["v"].to_numpy(zero_copy_only=False) for p in parts]
    ) if keys else np.array([], dtype=np.int64)
    assert sorted(vs.tolist()) == sorted(range(len(keys)))
    seen = {}
    for i, p in enumerate(parts):
        for k in set(p["k"].to_pylist()):
            assert seen.setdefault(k, i) == i


@settings(max_examples=50, deadline=None)
@given(keys=keys_arrays, num_parts=st.integers(min_value=2, max_value=16))
def test_hash_part_outputs_pickle_compact(keys, num_parts):
    """Partition outputs must serialize at their true size, not their
    parent block's (the r4 write-amplification regression)."""
    import pickle

    n = len(keys)
    t = pa.table({"k": np.array(keys, dtype=np.int64),
                  "pay": np.arange(n, dtype=np.int64)})
    if n < 32:
        return
    parts = exchange._hash_part(t, "k", num_parts)
    whole = len(pickle.dumps(t))
    for p in parts:
        if 0 < p.num_rows < n // 2:
            assert len(pickle.dumps(p)) < whole * 0.9


@settings(max_examples=30, deadline=None)
@given(us=st.lists(st.integers(min_value=0, max_value=2**63 - 1),
                   min_size=1, max_size=200))
def test_splitmix64_matches_duckdb(us):
    """The numpy kernel and the SQL CTE generator agree bit-for-bit on
    arbitrary inputs (the HLL / sampling oracle contract)."""
    import duckdb

    from s2_geometry_rust_ray.functions.hashing import sql_splitmix64_ctes

    u = np.array(us, dtype=np.uint64)
    hn = splitmix64(u)
    lst = ", ".join(str(int(x)) for x in us)
    q = sql_splitmix64_ctes(
        f"SELECT unnest([{lst}]) AS u", "u", "u"
    ) + " SELECT u, h FROM h"
    df = duckdb.sql(q).df()
    got = dict(zip(df["u"].astype(np.uint64), df["h"].astype(np.uint64)))
    for uu, hh in zip(u, hn):
        assert got[uu] == hh


@settings(max_examples=30, deadline=None)
@given(keys=st.lists(st.integers(min_value=-(2**31), max_value=2**31),
                     min_size=0, max_size=200),
       f1=st.integers(min_value=0, max_value=100),
       f2=st.integers(min_value=0, max_value=100))
def test_sample_by_hash_thresholds_nest(keys, f1, f2):
    """A smaller sampling fraction always selects a SUBSET of a larger
    one (threshold monotonicity) — resampling at higher frac only adds."""
    lo, hi = sorted([f1, f2])
    k = np.array(keys, dtype=np.int64)
    h = splitmix64(k)
    t_lo = np.uint64(((1 << 64) * lo) // 100) if lo < 100 else np.uint64(2**64 - 1)
    t_hi = np.uint64(((1 << 64) * hi) // 100) if hi < 100 else np.uint64(2**64 - 1)
    keep_lo = set(k[h < t_lo].tolist())
    keep_hi = set(k[h < t_hi].tolist())
    assert keep_lo <= keep_hi


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=300),
       bounds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=8),
       extra=st.integers(min_value=0, max_value=3))
def test_range_part_is_an_ordered_partition(keys, bounds, extra):
    """A `Ranges` split keeps every row once, and partition p holds
    exactly the keys in [bounds[p - 1], bounds[p]), for any sorted uint64
    bounds (repeated, or fewer than num_parts - 1)."""
    k = np.array(keys, dtype=np.uint64)
    b = np.sort(np.array(bounds, dtype=np.uint64))
    num_parts = len(bounds) + 1 + extra
    t = pa.table({"k": k, "i": np.arange(len(k), dtype=np.int64)})
    parts = exchange._hash_part(t, exchange.Ranges("k", b), num_parts)
    assert len(parts) == num_parts
    assert sorted(i for p in parts for i in p["i"].to_pylist()) == list(range(len(k)))
    edges = [0] + [int(x) for x in b] + [2**64] * (extra + 1)
    for p, part in enumerate(parts):
        assert all(edges[p] <= v < edges[p + 1] for v in part["k"].to_pylist())
