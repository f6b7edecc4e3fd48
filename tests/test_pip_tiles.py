"""The tiled broadcast region join, checked against the whole-batch
per-region covering loop it replaces."""

import math
import tracemalloc

import numpy as np
import pyarrow as pa
import pytest

from s2_geometry_rust_ray.geometry.loop import Loop, Polygon, latlng_deg_to_unit_xyz
from s2_geometry_rust_ray.pipelines import pip as ppip
from s2_geometry_rust_ray.stages import distance as D
from s2_geometry_rust_ray.stages import pip as S
from s2_geometry_rust_ray.stages.encode import geotag_and_encode

SIZES = [0, 1, S.TILE_ROWS - 1, S.TILE_ROWS + 1, 131079]


def _overlapping_layer():
    """Two overlapping squares, a copy of the first under another id, and
    a square holding both: points match up to four regions at once."""
    a, b = ppip.boolean_fixture_polys()
    lats = np.array([40.0, 40.0, 41.5, 41.5])
    lngs = np.array([-74.8, -73.2, -73.2, -74.8])
    outer = Polygon([Loop(latlng_deg_to_unit_xyz(lats, lngs))])
    return {"sq_a": a, "sq_b": b, "sq_a_copy": a, "outer": outer}


LAYERS = {
    "standard": lambda: S.prepare_layer(ppip.standard_polygon_layer()),
    "buffered": lambda: D.buffered(
        S.prepare_layer(ppip.standard_polygon_layer()), math.radians(1.5)),
    "route": lambda: D.buffered(
        S.prepare_layer(ppip.standard_routes(), covering_max_cells=64,
                        covering_max_level=12), math.radians(0.75)),
    "overlapping": lambda: S.prepare_layer(_overlapping_layer()),
}


def _keys(n: int) -> pa.Table:
    rng = np.random.default_rng(n)
    return pa.table({"k": rng.integers(0, 1 << 32, n, dtype=np.int64)})


def _reference_join(layer, batch, key_col, mode, id_col):
    """The whole-batch covering loop: one filter pass per region, then
    `refine`, hits stable-sorted by key."""
    lat, lng, leaves = S.batch_latlng_leaves(batch)
    keys = batch[key_col].to_numpy(zero_copy_only=False)
    out_keys, out_ids = [], []
    any_match = np.zeros(len(keys), dtype=bool)
    for rid, (rmin, rmax) in layer.coverings.items():
        cand = S._ranges_contain(rmin, rmax, leaves)
        if not cand.any():
            continue
        hit = S.refine(layer.regions[rid], layer.interiors[rid], lat, lng,
                       leaves, np.nonzero(cand)[0])
        if mode == "inner" and hit.size:
            hit = np.sort(hit)
            out_keys.append(keys[hit])
            out_ids.append(np.full(hit.size, rid, dtype=object))
        any_match[hit] = True
    if mode == "inner":
        if out_keys:
            k = np.concatenate(out_keys)
            r = np.concatenate(out_ids)
            order = np.argsort(k, kind="stable")
            return pa.table({key_col: k[order], id_col: pa.array(r[order], type=pa.string())})
        return pa.table({key_col: pa.array([], type=batch[key_col].type),
                         id_col: pa.array([], type=pa.string())})
    return batch.filter(pa.array(any_match if mode == "semi" else ~any_match))


@pytest.mark.parametrize("name", sorted(LAYERS))
@pytest.mark.parametrize("mode", ["inner", "semi", "anti"])
def test_pipjoin_output_matches_per_region_loop(name, mode):
    """Byte-identical output, through the stage (input already encoded)
    and through the fused geotag + encode join."""
    layer = LAYERS[name]()
    id_col = "route_id" if name == "route" else "polygon_id"
    stage = S.PIPJoin(layer, key_col="k", mode=mode, id_col=id_col)
    fused = ppip._GeotagEncodeJoin(layer=layer, key_col="k", mode=mode, id_col=id_col)
    matched = 0
    for n in SIZES:
        batch = _keys(n)
        encoded = geotag_and_encode("k")(batch)
        want = _reference_join(layer, encoded, "k", mode, id_col)
        assert stage(encoded).equals(want, check_metadata=True), (name, mode, n)
        if mode != "inner":
            want = want.select(batch.column_names)
        assert fused(batch).equals(want, check_metadata=True), (name, mode, n)
        matched += want.num_rows
    assert matched > 0
    if name == "overlapping" and mode == "inner":
        keys = want["k"].to_numpy()
        assert np.unique(keys).size < keys.size, "no point fell in two regions"


def test_fused_join_memory_is_bounded_by_the_tile():
    """The numpy peak of one 131072-row batch of the fused join stays far
    below the untiled 11.4 MB (encode temporaries of the whole batch)."""
    join = ppip._GeotagEncodeJoin(
        layer=S.prepare_layer(ppip.standard_polygon_layer()), key_col="k")
    batch = _keys(131072)
    join(batch)  # warm: lazily built kernel state is not the batch's
    tracemalloc.start()
    try:
        join(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20, f"{peak / 2**20:.2f} MB"


def test_prepare_memo_tells_int_and_str_ids_apart():
    """Region ids 1 and "1" print alike but are different layers: the
    second must not get the first's (int) ids back.  A layer mixing int
    and str ids is prepared too, and memoized whatever its key order."""
    a, _ = ppip.boolean_fixture_polys()
    assert list(S.prepare_layer({1: a}).regions) == [1]
    layer = S.prepare_layer({"1": a})
    assert list(layer.regions) == ["1"]
    out = S.PIPJoin(layer, key_col="k")(geotag_and_encode("k")(_keys(131079)))
    assert out["polygon_id"].type == pa.string() and out.num_rows > 0
    assert set(out["polygon_id"].to_pylist()) == {"1"}
    mixed = S.prepare_layer({1: a, "x": a})  # ids that do not sort together
    assert list(mixed.regions) == [1, "x"]
    assert S.prepare_layer({"x": a, 1: a}) is mixed


def test_inner_join_rejects_non_string_ids():
    """The inner id column is a string column: an int-keyed layer fails
    when the stage is built, batch or no batch, and says why.  The semi
    and anti modes emit no ids and take it."""
    a, _ = ppip.boolean_fixture_polys()
    layer = S.prepare_layer({1: a})
    with pytest.raises(ValueError, match="region id 1 is a int"):
        S.PIPJoin(layer, key_col="k")
    batch = geotag_and_encode("k")(_keys(20000))
    semi = S.PIPJoin(layer, key_col="k", mode="semi")(batch)
    anti = S.PIPJoin(layer, key_col="k", mode="anti")(batch)
    assert semi.num_rows > 0 and semi.num_rows + anti.num_rows == batch.num_rows
