"""One benchmark session in a fresh process: import, start Ray, build the
seeded input, run the cold pass and then warm passes back to back until the
time is up (one closed-loop client), check every job, shut Ray down.

Started by perfbench/run.py; writes its result as JSON to --out.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here, before the imports

import argparse
import json
import logging
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

import pyarrow as pa
import ray
import ray.data

import s2_geometry_rust_ray.pipelines.pip  # noqa: F401  (import cost is set-up)
import s2_geometry_rust_ray.pipelines.textops  # noqa: F401
import s2_geometry_rust_ray.pipelines.tiling  # noqa: F401
from perfbench import layers, procs
from perfbench.client import Client, materialize
from perfbench.spans import Tracer
from perfbench.workloads import WORKLOADS, Workload

OBJECT_STORE_BYTES = 512 << 20


class Terminated(BaseException):
    """Raised from the SIGTERM/SIGINT handler so `finally` shuts Ray down."""


def _terminate(signum, frame):
    raise Terminated(signum)


def start_ray(temp_dir: str) -> None:
    """Workers import the engine and perfbench through the PYTHONPATH that
    run.py sets for this process, which Ray's daemons and workers inherit,
    whatever directory the benchmark was launched from.  (Passing it as a
    runtime_env instead starts every worker through an extra setup process:
    about 2 s more set-up per session on one core.)"""
    if os.environ.get("PYTHONPATH", "").split(os.pathsep)[0] != ROOT:
        raise RuntimeError(f"PYTHONPATH must start with {ROOT}")
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    ray.init(
        num_cpus=procs.slots(),
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=temp_dir,
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def reference_for(w: Workload, table: pa.Table, path: str) -> dict[str, str]:
    """Computed once per run by the first session, read by the later ones."""
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    ref = w.reference(table)
    with open(path + ".part", "w") as f:
        json.dump(ref, f)
    os.replace(path + ".part", path)
    return ref


def run(a: argparse.Namespace) -> dict:
    w = WORKLOADS[a.workload]
    tracer = Tracer(a.run_id, enabled=a.spans is not None)
    rss = procs.PeakRss()
    try:
        imported = time.perf_counter()
        start_ray(a.ray_dir)
        started = time.perf_counter()
        table = w.make(a.seed)
        ds = materialize(table)
        setup_s = time.perf_counter() - T0
        phases = {"import_s": imported - T0, "ray_init_s": started - imported,
                  "input_s": T0 + setup_s - started}
        rss.sample()
        client = Client(w, ds, table, tracer)
        cold_s, _ = client.run_pass()
        rss.sample()
        warm_s = []
        deadline = time.perf_counter() + a.seconds
        fail = a.inject_fail
        while not warm_s or time.perf_counter() < deadline:
            dt, ok = client.run_pass(fail=fail)
            fail = False
            if ok:
                warm_s.append(dt)
            rss.sample()
        pass_rows = table.num_rows * len(w.queries)
        out = {
            "setup_s": setup_s,
            "phases": phases,
            "cold_s": cold_s,
            "rates": [pass_rows / dt for dt in warm_s],
            # the reference below is the benchmark's, not the engine's
            "peak_rss_mb": rss.mb,
            "calib_s": layers.calib_s(),
            "input": {"rows": table.num_rows, "bytes": table.nbytes,
                      "blocks": ds.num_blocks()},
        }
        if a.spans:
            out["per_layer"] = layers.traced_metrics(
                client, a.seed, tracer, cold_s, warm_s, out["rates"])
            tracer.dump(a.spans)
        client.check(reference_for(w, table, a.ref))
        out.update(attempted=client.attempted, failed=client.failed,
                   errors=client.errors)
        return out
    finally:
        ray.shutdown()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--run-id", required=True)
    p.add_argument("--ray-dir", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", help="trace the run and write its spans here")
    p.add_argument("--inject-fail", action="store_true")
    a = p.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    try:
        result = run(a)
    except Terminated:
        return 143
    with open(a.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
