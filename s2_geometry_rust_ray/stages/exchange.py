"""Co-partitioned exchange on raw Ray tasks, plus broadcast joins.

WHY raw Ray here (the one deliberate drop below the Dataset API, per the
mandate's escape hatch): Ray Data's groupby/aggregate combine runs ~20x
slower than a NumPy reduce (see stages/agg.py), and Dataset's own
key-partitioned exchanges (`repartition(keys=)`, `Dataset.join`) hash
each row with builtin `hash()` in a Python loop, which is slow, and Ray
pins no PYTHONHASHSEED, so string keys need not route alike in two
workers.

Every operator that is not row-local (hash joins, grouped aggregates,
sessionize, the shuffle PIP join, LSH rounds, label propagation) runs on
ONE primitive, `co_partition`, the classic M x P shuffle: M split tasks
per side cut each block by its partitioner (num_returns=P, projection
fused in); P partition tasks concat their shards from every side and run
one fn, so a payload crosses the object store once.  A side's
partitioner is hash(key columns) % P, or a `Ranges` (a column and P - 1
sorted bounds: one searchsorted per block), and one split function
serves both.  The four LSH near-dup pipelines are one operator over it,
`near_dup`: a self-join of the band relations on the bucket, then the
pair DISTINCT planned once with the payload joins; each pipeline gives
only its bands, payload and verify.

The Ray Data boundary (`block_refs` in, `as_dataset` out): the engine runs
each input plan ONCE where it drops to raw Ray, and returns raw-Ray
results as COMPUTED datasets, so downstream stays in the Dataset API at
no execution cost, and it maps a computed input row-locally in raw tasks
(`map_blocks`).  Three Ray 2.49 mechanisms make this the cheap contract:
  * `to_arrow_refs()` on a lazy plan streams it through one executor, then
    calls `schema(fetch_if_missing=True)`, which starts a second executor
    and re-runs the plan under a `limit(1)` up to its first non-empty
    block (`ExecutionPlan.schema`).  `materialize()` runs it once and
    keeps the schema in the snapshot, so the refs and schema cost one run.
  * A bare `from_arrow_refs` plan has no computed output, so a consumer's
    `to_arrow_refs()` starts a streaming executor over it, and each
    executor's shutdown starts Ray Data's detached `AutoscalingRequester`
    actor, a worker process of its own.  `materialize()` on it takes
    `ExecutionPlan.execute()`'s source-operator shortcut: no executor now
    or when the result is consumed, and a query that is raw Ray from end
    to end never starts that actor.
  * Every row-local map in the package is `map_blocks`, or the
    `prepare` / `map_fn` of a grouped reduce or exchange, which runs
    inside the split task of a computed input.  A stateful map (a
    broadcast table's index, a PIP layer, a shape index) is a value: its
    stage is built once where the plan is built and passed as the fn.
    `map_blocks` holds the package's one `map_batches` call: a computed
    input runs as raw tasks, one per block, because ANY executor's
    shutdown starts that ~124 MB actor, and a `map_batches` over it would
    start one for nothing the raw task does not do.  A lazy input keeps
    `map_batches`, so a read still fuses with the map.

Driver discipline (the 100 TB rules):
  * Every raw task is defined once per process (`task`), and a job's
    callables cross by one `ray.put` per call, never inside a function
    export: Ray keeps each export in its GCS function table for good.
  * ALL split tasks are submitted before any result is awaited — the map
    side of the shuffle is fully parallel (static num_returns=P, so
    submission itself never blocks on task completion).
  * The driver never `ray.get`s a payload, only row counts: each split
    task returns its shards' counts (num_returns=P + 1), to skip empty
    partitions, and each partition task ``(table_ref, nrows_ref)``, to
    drop empty outputs.
  * Every shard widens back to the full input schema (shards cross
    narrowed, see `co_partition`), so partition fns and `as_dataset`
    never see inconsistent schemas.

Zero-row rule, kept here and nowhere else: `block_refs` yields only a
dataset's non-empty blocks, `co_partition` runs a partition task only
where every side has rows and drops empty outputs, so a result with
nothing in it has no blocks.  No split `map_fn`, partition fn, grouped
combine/finish (every top-k's kernel included) or `map_blocks` fn is
ever called on a zero-row or column-less table.  Each public operator declares its output
schema and returns through `with_schema`, which turns an empty result
into one `schema.empty_table()` block: the documented schema, and a fetch
that starts no executor.

Key hashing is `functions/hashing.key_hash`, read from the Arrow buffers:
splitmix64 for integers (so a coarse S2 cell id, whose low bits are all
zero, spreads like any other key), and a splitmix64 word fold for strings.
It is the same in every process and on every pandas or Python version, so
the same key meets the same partition in every Ray worker (Python's
builtin `hash` is salted per process by PYTHONHASHSEED).

Skew: a grouped reduce's map-side combine sends a hot key at most one row
per block (stages/agg.py); a join whose key is ordered (a leaf cell id)
takes `Ranges` bounds from quantiles of its data, so a hot spot gets
narrow ranges and each row still meets exactly one partition
(pipelines/pip_shuffle.py); and `lsh_candidate_pairs` / `near_dup` split
a hot LSH bucket into chunks paired in separate tasks.
"""

from __future__ import annotations

import functools
import operator
import os
from typing import NamedTuple

import numpy as np
import pyarrow as pa

from ..functions.hashing import key_hash


# exchange partitions per CPU slot, and their floor (`default_num_parts`)
PARTS_PER_CPU = 2
MIN_PARTS = 8


def default_num_parts() -> int:
    """Exchange partition count scaled to the cluster: PARTS_PER_CPU
    reduce tasks per CPU slot (the cluster's when Ray is up, the host's
    otherwise — enough parallelism to keep every slot busy through
    stragglers) with a floor of MIN_PARTS.  `co_partition` and
    `hash_exchange_apply` resolve ``num_parts=None`` here at call time, so
    the same code runs right on a 4-cpu test session and a 1024-cpu
    cluster."""
    import ray

    cpus = (int(ray.cluster_resources().get("CPU", 4))
            if ray.is_initialized() else os.cpu_count() or 4)
    return max(MIN_PARTS, PARTS_PER_CPU * cpus)


@functools.cache
def task(body):
    """A module-level `body` as a Ray task, defined once per process (Ray
    keeps every function it exports in its GCS table): a task never
    closes over a job's values, they are its arguments."""
    import ray

    return ray.remote(body)


def in_slices(fn, batch_size: int | None):
    """`fn` over consecutive `batch_size`-row slices of a table (the whole
    table when batch_size is None or covers it), outputs concatenated in
    order: a bound on `fn`'s temporaries."""
    def apply(t: pa.Table) -> pa.Table:
        if batch_size is None or t.num_rows <= batch_size:
            return fn(t)
        return pa.concat_tables(
            [fn(t.slice(i, batch_size)) for i in range(0, t.num_rows, batch_size)],
            promote_options="default")

    return apply


def _arrow(block) -> pa.Table:
    """A block as an Arrow table (an in-memory pandas source keeps pandas
    blocks)."""
    from ray.data.block import BlockAccessor

    return block if isinstance(block, pa.Table) else BlockAccessor.for_block(block).to_arrow()


def _map_block(fn, block):
    """A raw map task: `fn` over the block (`map_blocks`)."""
    return fn(_arrow(block))


def map_blocks(ds, fn, batch_size: int | None = None):
    """The row-local map at the Ray Data boundary: ``fn(pa.Table) ->
    pa.Table`` over `batch_size`-row slices, keeping the state of its
    input.  A stateful stage is passed built (a callable instance whose
    state the caller constructed once, where the plan is built), so no
    task or worker builds it again.

    A computed input (`MaterializedDataset`: a `materialize()` result, an
    in-memory source materialized, every `as_dataset`) runs as one raw
    Ray task per non-empty block (`block_refs`): `fn`, with everything it
    holds, is put in the object store once per call, each task
    applies it to its block's slices (`in_slices`) and concatenates the
    outputs, and the result is `as_dataset` of the task refs in block
    order.  No executor starts, now or when the result is consumed.

    A lazy input returns ``ds.map_batches(fn, batch_format="pyarrow",
    batch_size=batch_size)``, so a read still fuses with the map and
    streams through one executor when a consumer runs it (Ray Data puts
    the map's fn once per plan, and Ray 2.49 never calls it on a zero-row
    block)."""
    import ray
    from ray.data.dataset import MaterializedDataset

    if not isinstance(ds, MaterializedDataset):
        return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)
    fn_ref = ray.put(in_slices(fn, batch_size))
    return as_dataset([task(_map_block).remote(fn_ref, b) for b in block_refs(ds)])


def actor_map(ds, cls, *, fn_constructor_kwargs=None, batch_size=None):
    """Alias of ``map_blocks(ds, cls(**fn_constructor_kwargs), batch_size)``
    for the benchmark harness's traced `stages.pip` layer."""
    return map_blocks(ds, cls(**(fn_constructor_kwargs or {})), batch_size)


class Ranges(NamedTuple):
    """Range partitioner of a `co_partition` side: a row goes to partition
    ``searchsorted(bounds, row[col], side="right")``, so partition p holds
    bounds[p - 1] <= value < bounds[p].  `bounds` are sorted, at most
    num_parts - 1 of them, in the column's dtype."""

    col: str
    bounds: np.ndarray


def _key_cols(key) -> list[str]:
    """The column names a partitioner reads."""
    if isinstance(key, Ranges):
        return [key.col]
    return [key] if isinstance(key, str) else list(key)


def _placement(table: pa.Table, key, num_parts: int) -> list[pa.Array]:
    """Each partition's row indices in `table` (ascending), by a
    partitioner: a `Ranges`, or a key column name or list of names
    hashed % num_parts.  A composite key hashes the FULL tuple (FNV-style
    fold of per-column hashes) so partitioning spreads by the joint
    cardinality — hashing only the first component would collapse a
    low-cardinality leading key (e.g. event_type) into a handful of
    partitions regardless of num_parts."""
    if isinstance(key, Ranges):
        col = table[key.col].to_numpy(zero_copy_only=False)
        part = np.searchsorted(key.bounds, col, side="right")
    else:
        h = np.zeros(table.num_rows, dtype=np.uint64)
        for c in _key_cols(key):
            h = h * np.uint64(0x100000001B3) + key_hash(table[c])
        part = h % np.uint64(num_parts)
    if num_parts <= 1 << 16:
        # numpy's stable argsort of 16-bit ints is a radix sort: ~4x
        # faster than its merge sort of 64-bit ids, same order
        part = part.astype(np.uint16)
    order = np.argsort(part, kind="stable")
    bounds = np.r_[0, np.cumsum(np.bincount(part, minlength=num_parts))]
    return [pa.array(order[bounds[p]:bounds[p + 1]]) for p in range(num_parts)]


def _hash_part(table: pa.Table, key, num_parts: int) -> list[pa.Table]:
    """Split `table` into num_parts tables by a partitioner (`_placement`)."""
    # one take PER PARTITION, not one take + zero-copy slices: pickling a
    # pa.Table slice serializes the slice's FULL parent buffers (measured:
    # a 1/16 slice of a 48 MB table pickles to 48 MB), so returning slices
    # from a split task writes num_parts x block_bytes to the object store
    # — the write amplification scales with the partition count and sank
    # the sessions-family N->4N efficiency to 0.50.  Per-partition takes
    # do the same total row movement but produce compact, offset-0 arrays
    # that serialize at their true size.
    return [table.take(rows) for rows in _placement(table, key, num_parts)]


# Ray returns a task result smaller than this through its owner (the
# driver) instead of writing it to the object store
_INLINE_LIMIT = 100 * 1024  # ray_constants.DEFAULT_MAX_DIRECT_CALL_OBJECT_SIZE
# field metadata of a narrowed shard column: the minimum it is offset from,
# and the original field (IPC-serialized, metadata included)
_BASE, _FIELD = b"exchange.narrow.base", b"exchange.narrow.field"
_OFFSET_TYPES = (pa.uint8(), pa.uint16(), pa.uint32())


def _narrow(t: pa.Table) -> pa.Table:
    """Frame-of-reference coding of a shard: each null-free integer column
    becomes its offsets from its minimum, in the narrowest of
    uint8/uint16/uint32 that holds max - min and is narrower than the
    column.  Any other column (a wider range, nulls, floats, strings)
    stays as it is; a shard with nothing to narrow is returned itself.
    `_widen` restores the exact original table."""
    if t.num_rows == 0:
        return t
    fields, cols = list(t.schema), list(t.columns)
    narrowed = False
    for i, (f, col) in enumerate(zip(fields, cols)):
        if not pa.types.is_integer(f.type) or col.null_count:
            continue
        v = col.to_numpy()
        lo, hi = v.min(), v.max()
        span = int(hi) - int(lo)
        to = next((o for o in _OFFSET_TYPES if span < 1 << o.bit_width
                   and o.bit_width < f.type.bit_width), None)
        if to is None:
            continue
        # the true difference fits `to`, so the subtraction cannot wrap
        off = np.subtract(v, lo, out=np.empty(len(v), to.to_pandas_dtype()),
                          casting="unsafe")
        cols[i] = pa.array(off, to)
        fields[i] = pa.field(f.name, to, f.nullable, {
            _BASE: str(int(lo)).encode(),
            _FIELD: pa.schema([f]).serialize().to_pybytes()})
        narrowed = True
    if not narrowed:
        return t
    return pa.Table.from_arrays(cols, schema=pa.schema(fields, t.schema.metadata))


def _widen(t: pa.Table) -> pa.Table:
    """The original table of a `_narrow`ed shard (any other table as it
    is): the original fields, metadata included, and values."""
    fields, cols = list(t.schema), list(t.columns)
    widened = False
    for i, f in enumerate(fields):
        if not f.metadata or _BASE not in f.metadata:
            continue
        fields[i] = pa.ipc.read_schema(pa.py_buffer(f.metadata[_FIELD])).field(0)
        dtype = fields[i].type.to_pandas_dtype()
        v = np.add(cols[i].to_numpy(), dtype(int(f.metadata[_BASE])), dtype=dtype)
        cols[i] = pa.array(v, fields[i].type)
        widened = True
    if not widened:
        return t
    return pa.Table.from_arrays(cols, schema=pa.schema(fields, t.schema.metadata))


def _split(block: pa.Table, key, num_parts: int, map_fn=None) -> list[pa.Table]:
    """A split task's work: `map_fn`, then each row is placed by its
    original values and each partition's rows are taken from the
    `_narrow`ed block (one base per block).  A shard narrowed under Ray's
    inline limit is taken wide instead: narrowing never moves a shard
    from the object store to the driver (a shard's stored size is at
    least its `nbytes`), and a shard already under the limit stays as it
    is."""
    if map_fn is not None:
        block = map_fn(block)
    narrow = _narrow(block) if block.nbytes >= _INLINE_LIMIT else block
    if narrow is block or narrow.nbytes < _INLINE_LIMIT:
        return _hash_part(block, key, num_parts)
    shards = []
    for rows in _placement(block, key, num_parts):
        s = narrow.take(rows)
        shards.append(s if s.nbytes >= _INLINE_LIMIT else block.take(rows))
    return shards


def block_refs(ds) -> list:
    """Refs of the non-empty blocks of `ds`, running its plan at most
    once: no executor for a computed dataset, one for a lazy plan.  Read
    from the snapshot's block metadata, not with `to_arrow_refs()`, which
    runs a `limit(1)` plan to look for a schema (see the module
    docstring) when no block carries one."""
    return [ref for bundle in ds.materialize().iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows != 0]


def as_dataset(refs_or_table):
    """A computed Dataset over raw-Ray output: a list of Arrow block refs,
    or one local table.  Consuming it starts no executor."""
    import ray
    import ray.data

    if isinstance(refs_or_table, pa.Table):
        refs_or_table = [ray.put(refs_or_table)]
    return ray.data.from_arrow_refs(refs_or_table).materialize()


def known_schema(ds) -> pa.Schema | None:
    """The Arrow schema Ray reports for `ds` without running anything, or
    None where it cannot (a map's output before the map runs, a computed
    dataset without blocks)."""
    s = ds.schema(fetch_if_missing=False)
    s = getattr(s, "base_schema", s)
    if s is None or isinstance(s, pa.Schema):
        return s
    import pandas as pd  # PandasBlockSchema: parallel name / dtype lists

    return pa.Schema.from_pandas(pd.DataFrame(
        {n: pd.Series([], dtype=t) for n, t in zip(s.names, s.types)}),
        preserve_index=False)


def with_schema(ds, schema: pa.Schema | None):
    """An operator's result with its declared `schema`: the computed `ds`
    itself when it holds rows, else ONE `schema.empty_table()` block, so
    an empty result keeps the documented schema and fetching it starts no
    executor.  A lazy `ds` (its map runs when consumed) and an unknown
    (None) schema leave `ds` as it is."""
    from ray.data.dataset import MaterializedDataset

    if schema is None or not isinstance(ds, MaterializedDataset) or block_refs(ds):
        return ds
    return as_dataset(schema.empty_table())


def typed(ds, out, fields):
    """`out` through `with_schema`, its schema given by `fields` over the
    input `ds`'s schema as Ray reports it (`known_schema`): a column name
    keeps its input column's type, a ``(name, type)`` pair is fixed.  An
    unknown input schema leaves `out` as it is."""
    sch = known_schema(ds)
    return with_schema(out, None if sch is None else pa.schema(
        [f if isinstance(f, tuple) else (f, sch.field(f).type) for f in fields]))


class _Split(list):
    """A side split once (`split`): per partition, the refs of its shards
    that hold rows."""


def _split_block(spec, block):
    """A split task: a block's num_parts shards, then their row counts."""
    key, num_parts, map_fn = spec
    parts = _split(_arrow(block), key, num_parts, map_fn)
    return (*parts, [t.num_rows for t in parts])


def _submit_split(side, num_parts: int):
    """One split task per non-empty block of a side ``(ds, key, map_fn)``,
    each returning num_parts shards and their row counts.  A lazy side's
    map_fn fuses into its plan; a computed side's runs in the split
    task."""
    import ray
    from ray.data.dataset import MaterializedDataset

    ds, key, map_fn = side
    if map_fn is not None and not isinstance(ds, MaterializedDataset):
        ds, map_fn = map_blocks(ds, map_fn), None
    spec = ray.put((key, num_parts, map_fn))
    run = task(_split_block).options(num_returns=num_parts + 1)
    # static num_returns: submission returns refs immediately, so every
    # split task is in flight before any result is awaited
    return [run.remote(spec, b) for b in block_refs(ds)]


def _gather(tasks, num_parts: int) -> _Split:
    """The `_Split` of submitted split tasks; fetches only their counts."""
    import ray

    counts = ray.get([t[-1] for t in tasks])
    return _Split([t[p] for t, n in zip(tasks, counts) if n[p]]
                  for p in range(num_parts))


def split(ds, key, num_parts: int, map_fn=None) -> _Split:
    """A `co_partition` side ``(ds, key, map_fn)`` split once, for a
    static table met again and again (joined every round): pass it in
    `sides` in place of the tuple.  Its partitions line up with every
    side split by the same partitioner into num_parts."""
    return _gather(_submit_split((ds, key, map_fn), num_parts), num_parts)


def _partition(fn, sizes, *refs):
    """A partition task: `fn` over each side's `sizes` shards, widened and
    concatenated, and the pinned refs; returns its output and row count."""
    tables, i = [], 0
    for n in sizes:
        tables.append(pa.concat_tables([_widen(t) for t in refs[i:i + n]],
                                       promote_options="default"))
        i += n
    out = fn(*tables, *refs[i:])
    return out, out.num_rows


def co_partition(sides, num_parts: int | None, fn, pinned=None):
    """Co-partitioned exchange: split every side by its partitioner into
    num_parts (None: `default_num_parts`), then run ONE task per
    partition: ``fn(*tables) -> pa.Table``.

    `sides`: list of ``(Dataset, key, map_fn or None)`` or `split`
    results; key is a column name or a list of names (composite key,
    hash-partitioned) or a `Ranges`, and map_fn (a projection, a
    map-side combine) is a row-local block map: it fuses into a lazy
    side's plan (`map_blocks`) and runs in the split task of a computed
    side.  Hashed sides co-locate equal keys only if their key columns
    hash alike: the same arity, and per column integers of any width or
    the same other type (`functions/hashing.key_hash`).  `tables` are
    each side's partition, in `sides` order, then ``pinned[p]`` if
    `pinned` (num_parts ObjectRefs, e.g. one region sub-layer per range)
    is given.

    Zero rows: a partition task runs only where EVERY side has rows
    (every multi-side fn here is a join), so `fn` never sees a zero-row
    or column-less table, and a side without rows empties the result.
    Empty outputs are dropped by their count refs: an exchange with
    nothing in it returns a dataset without blocks (`with_schema` types
    an operator's).

    Shards cross narrowed: the split task places each row by its original
    values, then takes each shard from the block with its null-free
    integer columns written as offsets from their block minimum in the
    narrowest uint that holds their range (`_narrow`), and the partition
    task widens every shard back to its exact fields before the concat
    (`_widen`), so `fn` sees the input schema.  Only a shard that stays
    at or over Ray's inline limit (100 KiB) narrowed is sent narrowed;
    any other goes wide, as it is, so narrowing never moves a shard from
    the object store to the driver, which receives every task result
    under the limit.  At ``default_num_parts`` (2 per CPU slot) small
    shards already go that way: the seed-1 `sessions` benchmark shards
    (16 B/row wide, 168-180 KB at 8 partitions, 105-113 KB narrowed) fall
    under 100 KiB from 14 partitions up (7 slots).

    Each side's plan runs once (`block_refs`); the driver fetches only
    row counts.  Returns a computed Dataset of the non-empty outputs in
    partition order."""
    import ray

    if num_parts is None:
        num_parts = default_num_parts()
    # every side's split tasks are submitted before any count is awaited
    submitted = [s if isinstance(s, _Split) else _submit_split(s, num_parts)
                 for s in sides]
    splits = [s if isinstance(s, _Split) else _gather(s, num_parts)
              for s in submitted]

    fn_ref = ray.put(fn)
    run = task(_partition).options(num_returns=2)
    pairs = [run.remote(fn_ref, [len(s[p]) for s in splits],
                        *(r for s in splits for r in s[p]),
                        *([] if pinned is None else [pinned[p]]))
             for p in range(num_parts) if all(s[p] for s in splits)]
    counts = ray.get([n for _, n in pairs])
    return as_dataset([t for (t, _), n in zip(pairs, counts) if n > 0])


def hash_exchange_apply(ds, key_col: str | list[str], num_parts: int | None,
                        reduce_fn, map_fn=None):
    """Single-side `co_partition` into num_parts (None:
    `default_num_parts`): `map_fn` (the projection) fused into the input's
    plan or run in the split task, `reduce_fn` on each whole partition.
    The empty key ``[]`` hashes every row alike, so every row meets in one
    partition task (a global top-N, `agg.grouped_topk`).
    vs a projection stage plus a materialized partition this saves TWO
    object-store round-trips of the payload: ~2x for a slim
    exchange, where plasma traffic IS the job (sessions family, 16 B/row
    before shard narrowing: 102M rows 12.0 -> 20+M rows/s at 8 slots;
    narrowed, sessionize's shards carry ~10 B/row)."""
    return co_partition([(ds, key_col, map_fn)], num_parts, reduce_fn)


class _BroadcastJoiner:
    """The broadcast_join stage, built once where the plan is built: the
    right table's keys argsorted and checked unique, then the stage rides
    the object store once with the map (`map_blocks`).  Lookup per batch
    is one vectorized searchsorted — no shuffle of the big side ever
    happens."""

    def __init__(self, right: pa.Table, key_col: str, right_on: str):
        self.key_col = key_col
        rk = right[right_on].to_numpy(zero_copy_only=False)
        self.order = np.argsort(rk, kind="stable")
        self.sorted_keys = rk[self.order]
        if len(self.sorted_keys) > 1 and (
            self.sorted_keys[1:] == self.sorted_keys[:-1]
        ).any():
            # searchsorted attaches only the FIRST matching right row — a
            # duplicated dimension key would silently under-join
            raise ValueError(
                f"broadcast_join right key '{right_on}' is not unique"
            )
        self.right = right.drop_columns([right_on])

    def check_names(self, left_names):
        """Raise if an attached right column shares a name with the left
        side: pyarrow append_column permits duplicate names, and a shared
        non-key column would silently yield an ambiguous table."""
        clash = set(self.right.column_names) & set(left_names)
        if clash:
            raise ValueError(
                f"broadcast_join column collision: {sorted(clash)} exist "
                "on both sides — prune with columns=[...] or rename"
            )

    def __call__(self, batch: pa.Table) -> pa.Table:
        k = batch[self.key_col].to_numpy(zero_copy_only=False)
        if len(self.sorted_keys) == 0:
            hit = np.zeros(len(k), dtype=bool)
            pos = np.zeros(len(k), dtype=np.int64)
        else:
            pos = np.searchsorted(self.sorted_keys, k)
            pos = np.clip(pos, 0, len(self.sorted_keys) - 1)
            hit = self.sorted_keys[pos] == k
        self.check_names(batch.column_names)
        left = batch.take(pa.array(np.nonzero(hit)[0]))
        attach = self.right.take(pa.array(self.order[pos[hit]]))
        out = left
        for name in attach.column_names:
            out = out.append_column(name, attach[name])
        return out


def broadcast_join(ds, right_tbl: pa.Table, key_col: str,
                   right_on: str | None = None, columns=None):
    """Map-side INNER equi-join of a Dataset against a BROADCAST small
    table (dimension-table pattern): the right side is indexed once, here
    (`_BroadcastJoiner`: a duplicate right key raises at this call), and
    rides the object store once with the map (`map_blocks`); each batch
    does one vectorized searchsorted.  Right keys must be UNIQUE
    (dimension key).  `columns` prunes the attached right columns.  This
    is the never-shuffle-the-big-side path; two large sides meet in a
    `co_partition`.  Output: the input's columns, then the attached right
    columns (a shared name raises, at this call where Ray reports the
    input's schema); an empty computed result is one empty block of them."""
    rk = right_on or key_col
    if columns is not None:
        right_tbl = right_tbl.select([rk] + [c for c in columns if c != rk])
    join = _BroadcastJoiner(right_tbl, key_col, rk)
    sch = known_schema(ds)
    if sch is None:
        return map_blocks(ds, join)
    join.check_names(sch.names)
    return with_schema(map_blocks(ds, join), pa.schema(
        [*sch, *(pa.field(f.name, f.type) for f in join.right.schema)]))


def _segments_of_sorted(b_s: np.ndarray):
    """Segment starts/lengths of an already-sorted bucket array (O(n))."""
    is_new = np.ones(len(b_s), dtype=bool)
    is_new[1:] = b_s[1:] != b_s[:-1]
    starts = np.nonzero(is_new)[0]
    lens = np.diff(np.concatenate([starts, [len(b_s)]]))
    return starts, lens


def _segment_triu_pairs(ids_sorted: np.ndarray, starts: np.ndarray,
                        lens: np.ndarray):
    """All (a < b) within-segment pairs, fully vectorized: segments are
    grouped by length, each length class emits its pairs in ONE
    triu_indices gather (no Python loop over pairs or over segments)."""
    out_a, out_b = [], []
    for s in np.unique(lens):
        s = int(s)
        if s < 2:
            continue
        sel = starts[lens == s]
        mat = ids_sorted[sel[:, None] + np.arange(s)[None, :]]  # (m, s)
        iu, ju = np.triu_indices(s, k=1)
        out_a.append(mat[:, iu].ravel())
        out_b.append(mat[:, ju].ravel())
    if not out_a:
        z = np.array([], dtype=np.int64)
        return z, z
    return np.concatenate(out_a), np.concatenate(out_b)


def _left_cross_pairs(ids_sorted: np.ndarray, n_left: int):
    """Pairs (ids[i], ids[j]) for i < n_left, i < j < len — the triangle
    slice a hot-bucket CHUNK owns.  Vectorized via repeat + index
    arithmetic (never materializes the full triangle)."""
    n = len(ids_sorted)
    n_left = min(n_left, n)
    counts = (n - 1) - np.arange(n_left, dtype=np.int64)
    total = int(counts.sum())
    if total <= 0:
        z = np.array([], dtype=np.int64)
        return z, z
    a = np.repeat(ids_sorted[:n_left], counts)
    cum_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    j = (np.arange(total, dtype=np.int64)
         - np.repeat(cum_starts, counts)
         + np.repeat(np.arange(1, n_left + 1, dtype=np.int64), counts))
    return a, ids_sorted[j]


def _distinct(t: pa.Table) -> pa.Table:
    """The distinct rows of `t` (over all its columns)."""
    return t.group_by(t.column_names).aggregate([])


def _pairs(ids, i: np.ndarray, j: np.ndarray, a_col: str, b_col: str):
    """The distinct (ids[i], ids[j]) pairs, as (a_col, b_col)."""
    return _distinct(pa.table({a_col: ids.take(i), b_col: ids.take(j)}))


def _candidates(bands_ds, id_col: str, bucket_col: str, num_parts: int,
                a_col: str, b_col: str, hot_bucket_cap: int,
                map_fn=None) -> _Split:
    """The within-bucket pairs (a < b in Arrow sort order) of a bands
    relation (id_col, bucket_col), as one `co_partition` side split by
    a_col: the small-bucket pairs, emitted in the split task of the
    prepped bands, and, when a bucket holds more than `hot_bucket_cap`
    ids, the hot buckets' chunk pairs.  `map_fn` maps input blocks to the
    bands relation in the band exchange's split task.  A pair emitted by
    several buckets or chunks meets its copies in one partition, since
    they share their `a` id."""
    def prep(tbl: pa.Table) -> pa.Table:
        # one partition's distinct (bucket, id) rows sorted by (bucket,
        # id): both emission passes read a bucket as one sorted segment
        t = tbl.select([bucket_col, id_col])
        if pa.types.is_integer(t.schema.field(id_col).type):
            t = t.set_column(1, id_col, t[id_col].cast(pa.int64()))
        return _distinct(t).sort_by([(bucket_col, "ascending"),
                                     (id_col, "ascending")])

    prepped = co_partition([(bands_ds, bucket_col, map_fn)], num_parts, prep)

    def segments(tbl: pa.Table):  # (starts, lengths) of its buckets
        return _segments_of_sorted(tbl[bucket_col].to_numpy(zero_copy_only=False))

    def small_pairs(tbl: pa.Table) -> pa.Table:
        starts, lens = segments(tbl)
        small = lens <= hot_bucket_cap
        i, j = _segment_triu_pairs(np.arange(tbl.num_rows), starts[small],
                                   lens[small])
        return _pairs(tbl[id_col], i, j, a_col, b_col)

    # hot-bucket spill: one (bucket, id, lo) row per (chunk, member at or
    # above the chunk start); chunk c of a hot bucket of n members is
    # lo = c*cap and carries members [lo, n), so (bucket, lo) routes one
    # chunk to one task.  Fully vectorized (the _left_cross_pairs
    # repeat/arange pattern).
    def spill_rows(tbl: pa.Table) -> pa.Table:
        starts, lens = segments(tbl)
        hot = np.nonzero(lens > hot_bucket_cap)[0]
        n_chunks = -(-lens[hot] // hot_bucket_cap)
        seg_of_ch = np.repeat(hot, n_chunks)
        lo_ch = hot_bucket_cap * (
            np.arange(len(seg_of_ch)) - np.repeat(np.cumsum(n_chunks) - n_chunks,
                                                  n_chunks))
        m_ch = lens[seg_of_ch] - lo_ch
        row_ch = np.repeat(np.arange(len(seg_of_ch)), m_ch)
        w = np.arange(len(row_ch)) - np.repeat(np.cumsum(m_ch) - m_ch, m_ch)
        rows = starts[seg_of_ch][row_ch] + lo_ch[row_ch] + w
        return tbl.take(rows).append_column(
            "lo", pa.array(lo_ch[row_ch], pa.int64()))

    def chunk_pairs(tbl: pa.Table) -> pa.Table:
        # a chunk's members ascend by id (prep sorted each bucket), so the
        # sort restores the order _left_cross_pairs takes its lefts from
        t = tbl.sort_by([(bucket_col, "ascending"), ("lo", "ascending"),
                         (id_col, "ascending")])
        bk = t[bucket_col].to_numpy(zero_copy_only=False)
        lo = t["lo"].to_numpy()
        is_new = np.ones(t.num_rows, dtype=bool)
        is_new[1:] = (bk[1:] != bk[:-1]) | (lo[1:] != lo[:-1])
        starts = np.nonzero(is_new)[0]
        ends = np.r_[starts[1:], t.num_rows]
        pos = np.arange(t.num_rows)
        # loop over chunks, not pairs
        ij = [_left_cross_pairs(pos[s:e], hot_bucket_cap)
              for s, e in zip(starts, ends)]
        return _pairs(t[id_col], np.concatenate([i for i, _ in ij]),
                      np.concatenate([j for _, j in ij]), a_col, b_col)

    # no hot bucket anywhere (the common case): the spill has no rows, so
    # the chunk exchange runs no task and the skew insurance costs nothing
    chunks = co_partition([(map_blocks(prepped, spill_rows), [bucket_col, "lo"],
                            None)], num_parts, chunk_pairs)
    return _Split(map(operator.add, split(prepped, a_col, num_parts, small_pairs),
                      split(chunks, a_col, num_parts)))


def lsh_candidate_pairs(bands_ds, id_col: str, bucket_col: str,
                        num_parts: int, a_col: str, b_col: str,
                        hot_bucket_cap: int = 1024):
    """The shared LSH candidate scaffolding: hash-exchange (id, bucket)
    rows by bucket, emit all within-bucket id pairs (a < b), then dedup
    pairs globally co-located by hash(a) — identical pairs from different
    bands always share their `a` id, so the dedup stays fully distributed.
    Returns a Dataset (a_col, b_col).  Ids may be of any type `key_hash`
    supports; pairs order them by Arrow sort order, and integer ids come
    out int64.

    Skew handling (the LSH hot-bucket killer — boilerplate-heavy corpora
    put 10%+ of docs in one bucket, emitting O(n^2) pairs in one task):
    buckets with more than `hot_bucket_cap` members are NOT paired in
    place.  Their id lists are split into `cap`-sized left-chunks, each
    chunk replicated with the ids above it (the triangle slice it owns)
    and re-exchanged by a per-chunk key, so pair emission for a hot bucket
    spreads over ceil(n/cap) tasks of <= cap*n pairs each — the same
    output set, no single-task funnel.  All emission paths are vectorized
    (triu_indices per segment-length class / repeat+gather per chunk).

    The pair columns take the id type Ray reports for the input (int64
    for integer ids), so an empty result keeps it (`with_schema`)."""
    ids = known_schema(bands_ds)
    schema = None if ids is None else pa.schema(
        [(c, pa.int64() if pa.types.is_integer(ids.field(id_col).type)
          else ids.field(id_col).type) for c in (a_col, b_col)])
    return with_schema(co_partition(
        [_candidates(bands_ds, id_col, bucket_col, num_parts, a_col, b_col,
                     hot_bucket_cap)], num_parts, _distinct), schema)


def near_dup(ds, id_col: str, bands, payload, verify, schema: pa.Schema,
             num_parts: int | None = None, hot_bucket_cap: int = 1024):
    """The one LSH near-duplicate operator: each pair of `ds` rows sharing
    an LSH bucket, verified once, as rows of `schema`, whose first two
    fields name the pair's ids (a < b in Arrow sort order, integers as
    int64).  Per pipeline:

    * ``bands(block) -> (ids, buckets)``: the ids (Arrow) of the rows
      that can near-dup and their (len(ids), n_bands) int64 buckets; run
      in the band exchange's split task.
    * ``payload(block) -> pa.Table``: (id_col, the values `verify`
      compares) for every id `bands` gives; run once per block
      (`map_blocks`).  None: the input's blocks are the payload.
    * ``verify(pairs) -> columns in schema order``: `pairs` is (a, b, the
      payload columns suffixed ``_a``, then ``_b``); run in the second
      payload join's partition task, on the pairs of that partition.

    The input runs once; its bands cross the band exchange by bucket;
    the candidate pairs (`_candidates`) meet the payload in one exchange
    by `a`, which runs the pair DISTINCT and the first join (copies of a
    pair share their `a`); the exchange by `b` runs the second join and
    `verify`.  No pairs: the typed empty result, from exchanges that run
    no partition task.  Over a computed input no Ray Data executor
    starts."""
    if num_parts is None:
        num_parts = default_num_parts()
    a_col, b_col = schema.names[:2]
    ds = ds.materialize()

    def band_rows(block: pa.Table) -> pa.Table:
        ids, buckets = bands(block)
        rows = np.repeat(np.arange(len(ids)), buckets.shape[1])
        return pa.table({id_col: ids.take(rows), "bucket": buckets.ravel()})

    src = ds if payload is None else map_blocks(ds, payload)

    def join(pairs: pa.Table, payloads: pa.Table, key: str, suffix: str):
        payloads = payloads.rename_columns(
            [c if c == id_col else f"{c}_{suffix}" for c in payloads.column_names])
        return pairs.join(payloads, keys=key, right_keys=id_col, join_type="inner")

    def join_b_verify(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return pa.table(list(verify(join(lt, rt, b_col, "b"))), schema=schema)

    cands = _candidates(ds, id_col, "bucket", num_parts, a_col, b_col,
                        hot_bucket_cap, band_rows)
    with_a = co_partition(
        [cands, (src, id_col, None)], num_parts,
        lambda pairs, rt: join(_distinct(pairs), rt, a_col, "a"))
    return with_schema(co_partition(
        [(with_a, b_col, None), (src, id_col, None)], num_parts, join_b_verify),
        schema)
