"""Shuffle-path PIP join: a covering filter, a range-partitioned exchange
and the broadcast join's exact refine.

The broadcast join (pipelines/pip.py) ships the whole prepared layer to
every worker.  This path ships each region only to the partitions that
need it.  A region is a set of intervals on the leaf-cell curve (its
covering ranges), and so is a partition: num_parts - 1 bounds cut the
curve at quantiles of the candidate points' leaf ids, so a dense city
gets narrow ranges instead of one hot task.  A point reaches exactly one
range, so no (point, region) pair is produced twice and nothing is
deduplicated.

  1. `prepare_layer` gives the memoized coverings the broadcast join uses.
  2. The point map encodes each point and keeps those whose leaf lies in
     the union of all coverings (the candidates).
  3. Each candidate block reports BOUND_SAMPLES evenly spaced order
     statistics of its sorted leaves, and the driver merges them into the
     bounds (`_range_bounds`).  The input is read once.
  4. `exchange.co_partition` splits the candidates by `exchange.Ranges`
     on their leaf.
  5. Each partition runs `PIPJoin` (covering filter, interior
     fast-accept, `refine`) over its sub-layer: the regions whose
     covering ranges meet its range, pinned to that partition.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geometry import cell_union
from ..stages import exchange
from ..stages.encode import encode_cells, geotag_and_encode
from ..stages.pip import (PIPJoin, PreparedLayer, _ranges_contain, cell_ranges,
                          covering_ids, prepare_layer)

# Evenly spaced order statistics that each candidate block reports of its
# sorted leaf ids; the range bounds are merged from them.
BOUND_SAMPLES = 64


def _order_stats(block: pa.Table):
    """(up to BOUND_SAMPLES evenly spaced sorted leaf ids, row count) of a
    candidate block."""
    leaves = np.sort(block["cell_id"].to_numpy(zero_copy_only=False))
    pos = np.linspace(0, leaves.size - 1, min(BOUND_SAMPLES, leaves.size))
    return leaves[pos.round().astype(np.int64)], block.num_rows


def _range_bounds(stats, num_parts: int) -> np.ndarray:
    """num_parts - 1 sorted uint64 bounds at the quantiles of the blocks'
    `_order_stats`, each statistic standing for an equal share of its
    block's rows.  No candidates: no bounds (one range)."""
    if not stats:
        return np.empty(0, dtype=np.uint64)
    leaves = np.concatenate([s for s, _ in stats])
    weight = np.concatenate([np.full(s.size, n / s.size) for s, n in stats])
    order = np.argsort(leaves, kind="stable")
    cum = np.cumsum(weight[order])
    at = np.searchsorted(cum, cum[-1] * np.arange(1, num_parts) / num_parts)
    return leaves[order][np.minimum(at, leaves.size - 1)]


def _sub_layers(layer: PreparedLayer, bounds: np.ndarray,
                num_parts: int) -> list[PreparedLayer]:
    """Per range of `bounds`, the regions of `layer` whose covering ranges
    meet it, in layer order.  A covering range [rmin, rmax] meets the
    ranges from the one holding rmin to the one holding rmax."""
    ids = list(layer.coverings)
    meets = np.zeros((len(ids), num_parts + 1), dtype=np.int64)
    for row, rid in zip(meets, ids):
        rmin, rmax = layer.coverings[rid]
        np.add.at(row, np.searchsorted(bounds, rmin, side="right"), 1)
        np.add.at(row, np.searchsorted(bounds, rmax, side="right") + 1, -1)
    meets = np.cumsum(meets, axis=1)[:, :num_parts] > 0
    fields = (layer.regions, layer.coverings, layer.interiors)
    subs = []
    for p in range(num_parts):
        sel = [rid for rid, m in zip(ids, meets[:, p]) if m]
        subs.append(PreparedLayer(*({rid: f[rid] for rid in sel} for f in fields)))
    return subs


def shuffle_pip_join(ds, key_col: str, layer, num_parts: int | None = None,
                     pretagged: bool = False):
    """(key_col, polygon_id) rows of the points inside each region of
    `layer`: the rows of the broadcast pip_join, range-partitioned on the
    points' leaf ids (module docstring).  `pretagged`: the input already
    carries lat/lng columns (skips the key -> geotag derivation).
    Returns a computed dataset; an empty one keeps the key column's type
    where Ray reports the input's schema, and is int64 (a geotag key's
    type) where it does not."""
    import ray

    prepared = prepare_layer(layer)
    covered = cell_ranges(cell_union.normalize(np.concatenate(
        [np.empty(0, dtype=np.uint64)]
        + [covering_ids(cov) for cov in prepared.coverings.values()])))
    encode = encode_cells if pretagged else geotag_and_encode(key_col)

    def candidates(batch: pa.Table) -> pa.Table:
        batch = encode(batch)
        keep = _ranges_contain(*covered, batch["cell_id"].to_numpy(zero_copy_only=False))
        return batch.select([key_col, "lat", "lng", "cell_id"]).filter(pa.array(keep))

    points = exchange.map_blocks(ds, candidates).materialize()
    if num_parts is None:
        num_parts = exchange.default_num_parts()
    bounds = _range_bounds(ray.get([exchange.task(_order_stats).remote(b)
                                    for b in exchange.block_refs(points)]),
                           num_parts)
    pinned = [ray.put(sub) for sub in _sub_layers(prepared, bounds, num_parts)]

    def join(pts: pa.Table, sub: PreparedLayer) -> pa.Table:
        return PIPJoin(sub, key_col)(pts)

    schema = exchange.known_schema(ds)
    key = pa.field(key_col, pa.int64()) if schema is None else schema.field(key_col)
    return exchange.with_schema(exchange.co_partition(
        [(points, exchange.Ranges("cell_id", bounds), None)], num_parts, join,
        pinned=pinned), pa.schema([key, ("polygon_id", pa.string())]))
