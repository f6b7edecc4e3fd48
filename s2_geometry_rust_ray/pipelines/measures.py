"""Per-loop spherical-measure pipeline: distributed ordered fold.

Computes per polygon loop (loop_key, n_vertices, tan_half_area) where
tan_half_area = tan(fan_area/2) via the rational tangent-addition fold
(geometry/measures.tan_half_area_fold — only +-*/, so the DuckDB oracle's
recursive CTE reproduces it bit-exactly; raw spherical excess needs
atan/tan, which drift 1 ulp between numpy and DuckDB libm paths).

Physical plan: the loop vertex table is exploded to (loop_key, vidx, x, y,
z) rows, hash-exchanged by loop_key (an ordered fold needs all of a loop's
rows co-located — the same shape as sessionize), then folded per group in
vertex order.  The human-facing measures API (area/curvature/centroid in
steradians) lives in geometry/measures.py."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geometry.loop import Polygon
from ..geometry.measures import tan_half_area_fold


def loop_vertex_table(layer: dict) -> pa.Table:
    """Explode a polygon layer into (loop_key, vidx, x, y, z) rows."""
    keys, vidx, xs, ys, zs = [], [], [], [], []
    for pid, poly in layer.items():
        if not isinstance(poly, Polygon):
            poly = Polygon.from_loops_latlng_deg(poly)
        for li, lp in enumerate(poly.loops):
            for i, v in enumerate(lp.v):
                keys.append(f"{pid}:{li}")
                vidx.append(i)
                xs.append(float(v[0]))
                ys.append(float(v[1]))
                zs.append(float(v[2]))
    return pa.table(
        {
            "loop_key": pa.array(keys, type=pa.string()),
            "vidx": np.asarray(vidx, dtype=np.int64),
            "x": np.asarray(xs, dtype=np.float64),
            "y": np.asarray(ys, dtype=np.float64),
            "z": np.asarray(zs, dtype=np.float64),
        }
    )


LOOP_MEASURES = pa.schema([("loop_key", pa.string()), ("n_vertices", pa.int64()),
                           ("tan_half_area", pa.float64())])


def loop_measures(layer: dict, num_parts: int | None = None):
    """Dataset of (loop_key, n_vertices, tan_half_area) for every loop in
    the layer.  Oracle: oracle/sql.q_loop_measures over the same vertex
    float literals.  num_parts=None scales with the cluster, capped at the
    loop count (one loop per partition is maximal parallelism here)."""
    from ..stages import exchange

    tbl = loop_vertex_table(layer)
    if num_parts is None:
        n_loops = len(set(tbl["loop_key"].to_pylist()))
        num_parts = max(1, min(exchange.default_num_parts(), n_loops))
    verts = exchange.as_dataset(tbl)

    def fold_partition(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas().sort_values(["loop_key", "vidx"])
        out_k, out_n, out_t = [], [], []
        for key, grp in df.groupby("loop_key", sort=True):
            v = grp[["x", "y", "z"]].to_numpy()
            out_k.append(key)
            out_n.append(len(v))
            out_t.append(tan_half_area_fold(v))
        return pa.table(
            {"loop_key": pa.array(out_k, type=pa.string()),
             "n_vertices": np.asarray(out_n, dtype=np.int64),
             "tan_half_area": np.asarray(out_t, dtype=np.float64)}
        )

    return exchange.with_schema(exchange.hash_exchange_apply(
        verts, "loop_key", num_parts, fold_partition
    ), LOOP_MEASURES)
