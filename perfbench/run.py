"""Layered benchmark of the s2_geometry_rust_ray engine.

    python3 perfbench/run.py --workload tile_encode --seed 1 --seconds 10 --trace 0

Runs one workload as a closed-loop client with one thread, in SESSIONS fresh
processes one after another, each with its own Ray session sized like
`nproc`, and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 a single traced
session prints the per-layer ones.  --kernels prints the kernel and
geometry layer numbers without starting Ray.  The line before the result
describes the inputs and sessions.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SESSIONS = 2
# traced runs keep their spans here
SPANS_DIR = os.path.join(ROOT, ".perfbench_spans")
# a run must end within 180 s: sessions get this long in all, leaving time
# to stop a hung session (STOP_WAIT_S) and reap what it left (procs.reap_children)
RUN_DEADLINE_S = 135
STOP_WAIT_S = 15


class Terminated(BaseException):
    pass


def _terminate(signum, frame):
    raise Terminated(signum)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(names_units: list[dict], values: dict[str, float]) -> dict:
    missing = [m["name"] for m in names_units if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in names_units}


class Run:
    """Owns the run directory and the session processes of one invocation."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.run_id = f"{os.getpid()}-{secrets.token_hex(3)}"
        self.dir = os.path.join(ROOT, ".perfbench_tmp", self.run_id)
        os.makedirs(os.path.join(self.dir, "ray"))
        # Ray's files stay in the checkout, but its socket paths (about 66
        # characters below its temp dir) must fit in 107 bytes, so Ray gets
        # a short name in /tmp that points there
        self.ray_link = f"/tmp/perfbench-{self.run_id}"
        os.symlink(os.path.join(self.dir, "ray"), self.ray_link)
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.child: subprocess.Popen | None = None
        self.killed: list[int] = []

    def session(self, index: int, seconds: float, trace: bool) -> dict:
        out = os.path.join(self.dir, f"session-{index}.json")
        cmd = [
            sys.executable, "-m", "perfbench.session",
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", str(seconds), "--run-id", self.run_id,
            "--ray-dir", self.ray_link,
            "--ref", os.path.join(self.dir, "reference.json"), "--out", out,
        ]
        if trace:
            os.makedirs(SPANS_DIR, exist_ok=True)
            cmd += ["--spans", os.path.join(
                SPANS_DIR, f"{self.args.workload}-{self.args.seed}-{self.run_id}.json")]
        if self.args.inject_fail and index == 0:
            cmd.append("--inject-fail")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p))
        # the session's own output goes to stderr: stdout carries the result
        self.child = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
        try:
            code = self.child.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            self.stop_child()
        if code != 0 or not os.path.exists(out):
            raise RuntimeError(f"session {index} exited with code {code}")
        with open(out) as f:
            return json.load(f)

    def stop_child(self) -> None:
        """Stop the session process if it still runs, then every process it
        left behind (they are re-parented to this one)."""
        if self.child is not None and self.child.poll() is None:
            self.child.send_signal(signal.SIGTERM)
            try:
                self.child.wait(timeout=STOP_WAIT_S)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
        self.child = None
        from perfbench import procs

        self.killed += procs.reap_children()

    def close(self) -> None:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        self.stop_child()
        os.unlink(self.ray_link)
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.dir))
        except OSError:
            pass


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    results = [run.session(i, seconds / SESSIONS, trace=False) for i in range(SESSIONS)]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "ok_ops": (attempted - failed) / attempted,
    }
    detail = {
        "input": results[0]["input"],
        "sessions": [{k: r[k] for k in ("setup_s", "phases", "cold_s", "peak_rss_mb", "calib_s", "rates")}
                     for r in results],
        "errors": [e for r in results for e in r["errors"]][:5],
    }
    return values, {"attempted": attempted, "failed": failed, "detail": detail}


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS), default="tile_encode")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--kernels", action="store_true",
                   help="print the functions.* and geometry.* layer numbers; no Ray")
    p.add_argument("--inject-fail", action="store_true",
                   help="make the first warm job of the first session raise")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "s2_geometry_rust_ray", "__init__.py")):
        print(f"perfbench: no s2_geometry_rust_ray package under {ROOT}", file=sys.stderr)
        return 2
    metrics_spec = spec()
    if args.kernels:
        return kernels(args, metrics_spec)

    from perfbench import procs

    procs.become_subreaper()
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    run = Run(args)
    try:
        if args.trace:
            r = run.session(0, args.seconds / SESSIONS, trace=True)
            values, counts = r["per_layer"], {
                "attempted": r["attempted"], "failed": r["failed"],
                "detail": {"input": r["input"], "errors": r["errors"][:5]}}
            names = metrics_spec["per_layer"]
        else:
            values, counts = end_to_end(run, args.seconds)
            names = metrics_spec["end_to_end"]
        metrics = report(names, values)
    except Terminated:
        return 143
    finally:
        run.close()
    detail = dict(counts["detail"], workload=args.workload, seed=args.seed,
                  slots=procs.slots(), leftover_killed=run.killed)
    print(json.dumps(detail))
    print(json.dumps({"correct": counts["failed"] == 0,
                      "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0


def kernels(args: argparse.Namespace, metrics_spec: dict) -> int:
    from perfbench import layers
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    tables = {name: WORKLOADS[name].make(args.seed)
              for name in ("tile_encode", "pip_join", "near_dup_skew")}
    values = layers.kernel_metrics(tables, Tracer("kernels", enabled=True))
    names = [m for m in metrics_spec["per_layer"] if m["name"] in values]
    print(json.dumps({"correct": True, "attempted": len(names), "failed": 0,
                      "metrics": report(names, values)}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    sys.exit(main())
