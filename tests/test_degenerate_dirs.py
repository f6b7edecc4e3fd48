"""Every `__ray_entry__` query over degenerate inputs: zero-row and
one-row copies of every sf0.001 table.  A query may return no rows, but it
must not raise, its result must be fetchable, and its schema must be the
one it has at sf0.001."""

import importlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from .test_oracle_parity import SF

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]

# Queries that end in a lazy row-local map (`map_batches`, or
# `exchange.map_blocks` over an input without blocks).  Ray 2.49's
# `map_batches` never calls its fn on a zero-row block, so over the
# zero-row copy these return blocks without columns: the map's output
# schema exists only once the fn has run on a row.
LAZY_MAPS = {
    "doc_fingerprints", "doc_quality", "doc_simhash", "doc_token_stats",
    "events_sample_5pct", "s2_boolean_pip_docs", "s2_cap_join_docs",
    "s2_cell_encode_docs", "s2_pip_join_docs", "s2_pip_join_lineitem",
    "s2_pip_join_shape_index_docs", "s2_rect_join_lineitem",
    "s2_route_buffer_docs", "s2_within_join_docs",
}


def _schemas(out) -> set:
    """The block schemas of a query's result (a Dataset or a frame), as
    (name, type, nullable) tuples: schema metadata does not count, nor
    does a zero-row block without columns next to typed ones (a lazy
    map's empty read block)."""
    import ray

    if hasattr(out, "to_arrow_refs"):
        schemas = [b.schema for b in ray.get(out.to_arrow_refs())]
    else:
        schemas = [pa.Schema.from_pandas(out, preserve_index=False)]
    keys = {tuple((f.name, str(f.type), f.nullable) for f in s) for s in schemas}
    return keys - {()} or keys


@pytest.fixture(scope="module")
def sf_schemas(ray_session):
    """Each query's block schemas at sf0.001."""
    qs = importlib.import_module("__ray_entry__").queries()
    return {name: _schemas(fn(SF)) for name, fn in qs.items()}


@pytest.mark.parametrize("rows", [0, 1])
def test_every_query_runs_on_degenerate_tables(ray_session, sf_schemas,
                                               tmp_path, rows):
    # written with pyarrow, not `limit(0)` over a parquet read (that
    # cancels in-flight read tasks)
    for t in TABLES:
        pq.write_table(pq.read_table(f"{SF}/{t}.parquet").slice(0, rows),
                       tmp_path / f"{t}.parquet")
    failed, wrong = {}, {}
    for name, fn in importlib.import_module("__ray_entry__").queries().items():
        try:
            got = _schemas(fn(str(tmp_path)))
        except Exception as e:  # noqa: BLE001 — report every query at once
            failed[name] = f"{type(e).__name__}: {str(e)[:200]}"
            continue
        if rows == 0 and name in LAZY_MAPS:
            if any(len(s) for s in got):  # typed now: take it off the list
                wrong[name] = (got, "column-less")
        elif got != sf_schemas[name]:
            wrong[name] = (got, sf_schemas[name])
    assert not failed, failed
    assert not wrong, wrong
