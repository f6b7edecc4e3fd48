"""Every `__ray_entry__` query over degenerate inputs: zero-row and
one-row copies of every sf0.001 table.  A query may return no rows, but it
must not raise, and its result must be fetchable."""

import importlib

import pyarrow.parquet as pq
import pytest

from .test_oracle_parity import SF

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.mark.parametrize("rows", [0, 1])
def test_every_query_runs_on_degenerate_tables(ray_session, tmp_path, rows):
    # written with pyarrow, not `limit(0)` over a parquet read (that
    # cancels in-flight read tasks)
    for t in TABLES:
        pq.write_table(pq.read_table(f"{SF}/{t}.parquet").slice(0, rows),
                       tmp_path / f"{t}.parquet")
    failed = {}
    for name, fn in importlib.import_module("__ray_entry__").queries().items():
        try:
            out = fn(str(tmp_path))
            if hasattr(out, "to_pandas"):  # fetch a Dataset's blocks
                out.to_pandas()
        except Exception as e:  # noqa: BLE001 — report every query at once
            failed[name] = f"{type(e).__name__}: {str(e)[:200]}"
    assert not failed, failed
