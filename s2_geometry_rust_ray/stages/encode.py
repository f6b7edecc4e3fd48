"""Stateless row-local stages (run by `exchange.map_blocks` or as a grouped
reduce's `prepare`): geotag derivation + S2 cell encoding.

These are plain functions over pyarrow batches (zero-copy from the object
store); all math is NumPy-vectorized (functions/coords.py, functions/cellid.py).
No stateful stage needed — there is no per-worker state (the Hilbert lookup tables
are module-level constants materialized at import in every worker).

Scale notes (100 TB / 10^12 rows):
- Column pruning happens at the read (callers pass columns=[...]); these
  stages only append derived columns and never touch wide payload columns
  (`bytes`, `caption`) — the batch dict they receive should already exclude
  them unless the pipeline is a pass-through write.
- cell_id is uint64 and becomes the sort/shuffle key; parents at coarse
  levels (cell_l{K}) are cheap bit-ops appended here so downstream groupbys
  need no re-derivation.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions import cellid, geo


def derive_geotags(batch: pa.Table, key_col: str) -> pa.Table:
    """Append deterministic (lat, lng) derived from an integer key column."""
    key = batch[key_col].to_numpy(zero_copy_only=False)
    lat, lng = geo.derive_latlng(key)
    return batch.append_column("lat", pa.array(lat)).append_column(
        "lng", pa.array(lng)
    )


def encode_cells(
    batch: pa.Table,
    lat_col: str = "lat",
    lng_col: str = "lng",
    levels: tuple[int, ...] = (),
    with_face: bool = False,
    with_token: bool = False,
) -> pa.Table:
    """Append leaf `cell_id:uint64` (+ optional `cell_l{K}` parents, face,
    hex token) — the §3.1 indexing kernel."""
    lat = batch[lat_col].to_numpy(zero_copy_only=False)
    lng = batch[lng_col].to_numpy(zero_copy_only=False)
    cid = cellid.from_latlng_deg(lat, lng)
    batch = batch.append_column("cell_id", pa.array(cid))
    for k in levels:
        batch = batch.append_column(f"cell_l{k}", pa.array(cellid.parent(cid, k)))
    if with_face:
        batch = batch.append_column("face", pa.array(cellid.face_of(cid)))
    if with_token:
        batch = batch.append_column("cell_token", cellid.to_hex(cid))
    return batch


def geotag_and_encode(
    key_col: str,
    levels: tuple[int, ...] = (),
    with_face: bool = False,
    with_token: bool = False,
):
    """Fused stage factory: key -> (lat,lng) -> cell columns in one batch fn."""

    def fn(batch: pa.Table) -> pa.Table:
        batch = derive_geotags(batch, key_col)
        return encode_cells(
            batch, levels=levels, with_face=with_face, with_token=with_token
        )

    return fn
