"""Grouped reduces: one block reducer, two physical plans.

Measured on this Ray build (2.49): ``Dataset.groupby().aggregate()`` runs its
combine in a single task at ~20k rows/s — 20-100x slower than a vectorized
per-block NumPy reduce.  So every grouped operator here (sum/min/max,
DISTINCT, per-group top-N, COUNT(DISTINCT)) is one `_group` call:

  1. a map-side combine per block (one row per key per block for the
     reducers; at most n rows per key for top-N), with the caller's
     row-local `prepare` (encode, explode) fused in front of it,
  2. a final that brings each key's partials together and re-runs the
     same combine (every combine is re-reducible), then an optional
     `finish` that runs INSIDE the final — in the last tree-merge task or
     in each hash-partition task — exactly once per key, so a caller's
     output projection (tokenize, truncate) costs no extra Ray
     Data execution:

     * ``final='tree'`` (default) — raw-Ray merge tasks, BRANCHING blocks
       each, log_8(B) rounds down to ONE key-sorted block.  No all-to-all
       exchange; the right plan for bounded key sets (tile levels: at most
       6*4^K keys) and for small results a consumer reads whole.
     * ``final='hash'`` — `exchange.hash_exchange_apply` on the full key
       tuple, with the map-side combine as its `map_fn`: every key lands
       in exactly one partition, so the result stays distributed with one
       row per key — the plan for high-cardinality keys (h3_tile_r6:
       1.83-1.90 s vs 2.10-2.37 s for a range-sort final).  The partials
       cross as narrowed shards where those stay over Ray's inline limit
       (a count column as uint8/uint16 offsets; `exchange.co_partition`).

   Both finals cross the Ray Data boundary the way `stages/exchange.py`
   describes.  Over a lazy input the map-side step fuses with the input:
   its plan (input + prepare + combine) runs ONCE (`exchange.block_refs`).
   Over a computed input the tree final's map-side step is one raw task
   per block (`exchange.map_blocks`), and the hash final's runs inside
   the exchange's split task, so its partials are never objects of their
   own.  The result is a computed dataset (`exchange.as_dataset`)
   whose consumption starts no executor, so a grouped query is one Ray
   Data execution over a lazy input and none over a computed one.

Zero-row rule: `prepare` and `combine` never see a zero-row table;
`finish` does.  A zero-block input, an all-filtered input or an empty hash
partition reaches `finish` as a zero-row table that may lack columns or
carry null-typed key columns, and every finish returns its typed empty
table (use `column`), so an empty input keeps the documented output
schema.

Skew note: the map-side combine bounds a hot key's contribution to one row
(n rows for top-N) per input block, so neither final ever sees the skew.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# raw-Ray merge fan-in: a concat+reduce task over 8 blocks costs ~0.3 s at
# the tile shapes, where a Dataset.repartition costs ~2 s per task (measured)
BRANCHING = 8

_UFUNCS = {"sum": np.add, "min": np.minimum, "max": np.maximum}


def _reduce_block(keys: list[str], spec: dict[str, str]):
    """Per-block grouped reduce over a (composite) key — SQL GROUP BY a, b:
    lexsort over the key columns (string keys supported), group boundaries
    where ANY key changes, one reduceat per value column.  The output is
    key-sorted, one row per key tuple.  Exact — no hashed composite."""
    ufuncs = {}
    for c, op in spec.items():
        if op not in _UFUNCS:
            raise ValueError(f"unknown reduce op {op!r} for column {c!r}")
        ufuncs[c] = _UFUNCS[op]

    def fn(batch: pa.Table) -> pa.Table:
        ks = [batch[c].to_numpy(zero_copy_only=False) for c in keys]
        order = np.lexsort(ks[::-1])  # keys[0] is primary
        ks = [k[order] for k in ks]
        diff = np.zeros(batch.num_rows - 1, dtype=bool)
        for k in ks:
            diff |= k[1:] != k[:-1]
        starts = np.concatenate([[0], np.nonzero(diff)[0] + 1])
        cols = {c: k[starts] for c, k in zip(keys, ks)}
        for c, uf in ufuncs.items():
            v = batch[c].to_numpy(zero_copy_only=False)[order]
            cols[c] = uf.reduceat(v, starts)
        return pa.table(cols)

    return fn


def column(t: pa.Table, name: str, default: pa.DataType = pa.int64()):
    """Column `name` of `t`, or an empty `default`-typed array where a
    zero-row table lacks it or holds it null-typed — the two shapes in
    which an empty input reaches a finish."""
    if name in t.column_names and not pa.types.is_null(t.schema.field(name).type):
        return t[name]
    return pa.array([], default)


def _group(ds, keys: list[str], combine, final: str, finish=None,
           prepare=None, batch_size: int | None = None):
    """The one grouped plan: the map-side combine per block
    (`exchange.map_blocks`, or the hash final's split task), then the
    `final` merge re-running `combine` over each key's partials, then
    `finish` once, inside the final (the last tree-merge task, or each
    hash-partition task).

    `prepare` (optional) maps the input rows to `combine`'s input inside
    the map-side step, over `batch_size`-row slices (a bound on its
    temporaries); the step then combines the block's prepared slices.

    `prepare` and `combine` never see a zero-row table (it passes
    through); `finish` gets every final table, zero-row ones included, and
    returns its typed empty table for those."""
    import ray

    from . import exchange

    if final not in ("tree", "hash"):
        raise ValueError(f"unknown final {final!r}: use 'tree' or 'hash'")
    prepared = None if prepare is None else exchange.in_slices(prepare, batch_size)

    def step(t: pa.Table) -> pa.Table:
        return combine(t) if t.num_rows else t

    def first(t: pa.Table) -> pa.Table:
        if prepared is not None and t.num_rows:
            t = prepared(t)
        return step(t)

    def last(t: pa.Table) -> pa.Table:
        if t.num_rows:
            t = combine(t)
        return t if finish is None else finish(t)

    if final == "hash":
        return exchange.hash_exchange_apply(
            ds, keys, exchange.default_num_parts(), last, map_fn=first
        )
    partials = exchange.map_blocks(ds, first)

    @ray.remote
    def merge(is_last: bool, *tbls):
        live = [t for t in tbls if t.num_rows] or tbls[:1]
        t = pa.concat_tables(live, promote_options="default")
        return last(t) if is_last else step(t)

    refs = exchange.block_refs(partials) or [
        ray.put(exchange._empty_exchange_table(partials, keys))
    ]
    while len(refs) > BRANCHING:
        refs = [
            merge.remote(False, *refs[i : i + BRANCHING])
            for i in range(0, len(refs), BRANCHING)
        ]
    return exchange.as_dataset([merge.remote(True, *refs)])


def reduce_by_key(ds, keys: str | list[str], spec: dict[str, str] | list[str],
                  final: str = "tree", finish=None, prepare=None,
                  batch_size: int | None = None):
    """Distributed grouped reduce: spec {col: 'sum'|'min'|'max'} (a list
    means all-sum) GROUP BY `keys` (one column or a composite).  All three
    ops are re-reducible, so combine -> final merge is exact; both finals
    return exactly one row per key.  `finish` (table -> table) maps the
    reduced table inside the final instead of in a trailing map_batches,
    and `prepare` (input rows -> keys and spec columns, per
    `batch_size`-row slice) maps the input inside the map-side combine
    instead of in a leading one; both follow `_group`'s zero-row rule.
    Without a finish, an empty input gives the zero-row (keys, spec
    columns) table, int64 where the input carried no type."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    if isinstance(spec, list):
        spec = {c: "sum" for c in spec}
    if finish is None:
        def finish(t: pa.Table) -> pa.Table:
            if t.num_rows:
                return t
            return pa.table({c: column(t, c) for c in [*keys, *spec]})
    return _group(ds, keys, _reduce_block(keys, spec), final, finish,
                  prepare, batch_size)


# plain aliases: perfbench/layers.py calls these names
sum_by_key = reduce_by_key
tree_reduce_by_key = reduce_by_key


def distinct_keys(ds, key_col: str, final: str = "tree"):
    """DISTINCT key_col — a grouped reduce with no value columns."""
    return reduce_by_key(ds, key_col, {}, final=final)


def _rank_in_group(k: np.ndarray) -> np.ndarray:
    """0-based position of each row within its run of equal keys."""
    is_new = np.ones(len(k), dtype=bool)
    is_new[1:] = k[1:] != k[:-1]
    starts = np.nonzero(is_new)[0]
    return np.arange(len(k)) - np.repeat(starts, np.diff(np.append(starts, len(k))))


def grouped_topk(ds, key_col: str, val_col: str, id_col: str, n: int,
                 final: str = "tree"):
    """Per-group top-N: for each key the n rows with largest (val desc,
    id asc) — the grouped companion of the kNN/ANN top-k merges.

    The combine is a LOCAL top-n per key (a block emits at most n rows per
    distinct key it contains, so the merge payload is bounded by
    distinct_keys * n, independent of row count); the finish numbers the
    survivors.  Ties break by id ascending — the SQL row_number contract."""

    def local_topn(batch: pa.Table) -> pa.Table:
        k = batch[key_col].to_numpy(zero_copy_only=False)
        v = batch[val_col].to_numpy(zero_copy_only=False)
        i = batch[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((i, -v, k))
        k, v, i = k[order], v[order], i[order]
        keep = _rank_in_group(k) < n
        return pa.table({key_col: k[keep], val_col: v[keep], id_col: i[keep]})

    def add_rank(batch: pa.Table) -> pa.Table:
        cols = {c: column(batch, c) for c in (key_col, val_col, id_col)}
        k = cols[key_col].to_numpy(zero_copy_only=False)
        cols["rank"] = pa.array(_rank_in_group(k) + 1, pa.int64())
        return pa.table(cols)

    return _group(ds, [key_col], local_topn, final, finish=add_rank)


def distinct_count_by_key(ds, key_col: str, distinct_col: str,
                          out_col: str = "n_distinct", final: str = "tree"):
    """Exact COUNT(DISTINCT distinct_col) GROUP BY key_col.

    The combine is a per-block (key, value) pair dedup (re-reducible: a
    dedup of deduped pairs); the finish counts each key's pairs once all
    of them have met (pair cardinality = sum of per-key distinct counts).

    NULL semantics match SQL exactly: COUNT(DISTINCT) ignores NULL values,
    but a key whose values are ALL null still appears (n_distinct = 0) —
    GROUP BY keeps the group.  Nulls aren't dropped up front (that erased
    all-null keys entirely, ADVICE r3); instead validity travels as an
    explicit `v_ok` column (null values filled with a type-appropriate
    filler so the value array stays its native dtype — an int column with
    nulls would otherwise decay to float NaN, whose NaN != NaN also
    defeats the != dedup mask), every all-null row collapses to one
    (key, filler, False) sentinel per key per block, and the finish
    counts only v_ok rows."""

    import pyarrow.compute as pc

    # resolve the value type ONCE driver-side: a block whose values are all
    # null carries arrow type `null` (no filler constructible, and emitted
    # partials would disagree on schema); cast such blocks to the dataset
    # type.  Read it without running anything where Ray infers it (a
    # parquet read, an in-memory or computed input), so the input's read
    # and the combine stay one fused run in `_group`.  Otherwise run the
    # input once here and read it from the snapshot (no fetch: a snapshot
    # without one holds no typed block either); `_group` then combines the
    # computed blocks instead of re-running a partial plan for the schema.
    sch = ds.schema(fetch_if_missing=False)
    if sch is None:
        ds = ds.materialize()
        sch = ds.schema(fetch_if_missing=False)
    arrow_sch = getattr(sch, "base_schema", sch)
    if arrow_sch is None:  # zero-block input: no value ever needs a type
        vtype = pa.null()
    elif hasattr(arrow_sch, "field"):
        vtype = arrow_sch.field(distinct_col).type
    else:  # PandasBlockSchema: parallel name/dtype lists (may be pandas
        # extension dtypes like StringDtype — infer via an empty Series)
        import pandas as pd

        np_dtype = dict(zip(arrow_sch.names, arrow_sch.types))[distinct_col]
        vtype = pa.Array.from_pandas(pd.Series([], dtype=np_dtype)).type
    if pa.types.is_null(vtype):
        vtype = pa.int64()  # the whole column is null: any type works

    def _filler(t: pa.DataType):
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            return ""
        if pa.types.is_binary(t) or pa.types.is_large_binary(t):
            return b""
        return 0

    def pair_dedup(batch: pa.Table) -> pa.Table:
        if "v_ok" in batch.column_names:
            ok = batch["v_ok"].to_numpy(zero_copy_only=False)
            v = batch[distinct_col].to_numpy(zero_copy_only=False)
        else:
            col = batch[distinct_col]
            if pa.types.is_null(col.type):
                col = col.cast(vtype)
            ok = pc.is_valid(col).to_numpy(zero_copy_only=False)
            v = pc.fill_null(col, _filler(col.type)).to_numpy(
                zero_copy_only=False
            )
        k = batch[key_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, ok, k))
        k, v, ok = k[order], v[order], ok[order]
        keep = np.ones(len(k), dtype=bool)
        keep[1:] = (k[1:] != k[:-1]) | (ok[1:] != ok[:-1]) | (v[1:] != v[:-1])
        return pa.table({key_col: k[keep], distinct_col: v[keep],
                         "v_ok": pa.array(ok[keep], pa.bool_())})

    def count_pairs(batch: pa.Table) -> pa.Table:
        kc = column(batch, key_col)
        ok = column(batch, "v_ok", pa.bool_()).to_numpy(zero_copy_only=False)
        uk, inv = np.unique(kc.to_numpy(zero_copy_only=False),
                            return_inverse=True)
        counts = np.bincount(inv, weights=ok).astype(np.int64)
        return pa.table({key_col: pa.array(uk, kc.type), out_col: counts})

    return _group(ds, [key_col], pair_dedup, final, finish=count_pairs)
