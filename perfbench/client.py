"""The closed-loop client: one thread that runs a workload's queries back to
back against a materialized input and records every job."""

from __future__ import annotations

import time
import traceback

import pyarrow as pa

from . import gen
from .spans import Tracer
from .workloads import Workload, digest


def materialize(table: pa.Table):
    import ray.data

    return ray.data.from_arrow(gen.blocks(table)).materialize()


def fetch(ds) -> pa.Table | None:
    """Execute a Dataset and bring its blocks to the driver."""
    import ray

    tables = ray.get(ds.to_arrow_refs())
    return pa.concat_tables(tables, promote_options="default") if tables else None


def _fail_batch(batch):
    raise RuntimeError("injected failure")


class Client:
    """A job is one query over the whole input; a pass is every query of the
    workload once.  A job that raises or whose output digest differs from
    the reference counts as failed."""

    def __init__(self, workload: Workload, ds, table: pa.Table, tracer: Tracer) -> None:
        self.w, self.ds, self.table, self.tracer = workload, ds, table, tracer
        self.attempted = 0
        self.failed = 0
        self.digests: list[tuple[str, str]] = []  # (query, digest) per job
        self.rows_out: dict[str, int] = {}
        self.errors: list[str] = []

    def run_pass(self, fail: bool = False) -> tuple[float, bool]:
        """(seconds the jobs took, whether all of them returned).  Output
        digests are taken outside the timed part.  `fail` makes the first
        job raise inside a Ray task."""
        busy, ok = 0.0, True
        with self.tracer.span("pass"):
            for query, fn in self.w.queries:
                self.attempted += 1
                ds = self.ds.map_batches(_fail_batch) if fail else self.ds
                fail = False
                t0 = time.perf_counter()
                try:
                    with self.tracer.span(f"pipelines.{query}"):
                        out = fetch(fn(ds))
                except Exception:
                    self.failed += 1
                    self.errors.append(traceback.format_exc(limit=4))
                    ok = False
                    continue
                finally:
                    busy += time.perf_counter() - t0
                with self.tracer.span("check"):
                    self.rows_out[query] = out.num_rows if out is not None else 0
                    self.digests.append((query, digest(out)))
        return busy, ok

    def check(self, reference: dict[str, str]) -> None:
        bad = [q for q, d in self.digests if d != reference[q]]
        self.failed += len(bad)
        self.errors += [f"{q}: output digest differs from the reference" for q in bad]
