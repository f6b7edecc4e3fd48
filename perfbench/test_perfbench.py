"""The benchmark's own checks.  Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q

The end-to-end cases start real Ray sessions and take a few minutes on one
core; they assert that no Ray process outlives a run, a run with a failing
job, or a run stopped with SIGTERM.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import gen, procs, run, workloads  # noqa: E402

RAY_MARKERS = ("raylet", "gcs_server", "ray::", "ray/dashboard", "ray/_private",
               "ray/autoscaler", "ray/core")


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:  # the process ended
        return ""


def ray_processes() -> set[int]:
    pids = (int(n) for n in os.listdir("/proc") if n.isdigit())
    return {p for p in pids if any(m in cmdline(p) for m in RAY_MARKERS)}


@pytest.fixture
def no_leftover_ray():
    before = ray_processes()
    yield
    # Ray daemons stop asynchronously; the benchmark waits for them, so
    # anything still here after a short grace is a leak
    deadline = time.monotonic() + 5
    while ray_processes() - before and time.monotonic() < deadline:
        time.sleep(0.2)
    assert ray_processes() - before == set()


def bench(*args: str, cwd: str = ROOT, timeout: float = 170) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_workload_and_metric():
    spec = run.spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    queries = [q for w in workloads.WORKLOADS.values() for q, _ in w.queries]
    assert {f"pipelines.{q}.s" for q in queries} <= set(names)


def test_generators_follow_the_seed():
    for make in (lambda s: gen.keys(s, 1000), lambda s: gen.events(s, 1000),
                 lambda s: gen.documents(s, 200, 20)):
        assert make(7).equals(make(7))
        assert not make(7).equals(make(8))
    assert len(gen.blocks(gen.keys(1, 1_000_000))) == 4  # 8 MB in 2 MiB blocks


def test_slots_follow_affinity_and_omp(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert procs.slots() == 1
    monkeypatch.delenv("OMP_NUM_THREADS")
    monkeypatch.delenv("OMP_THREAD_LIMIT", raising=False)
    assert procs.slots() == len(os.sched_getaffinity(0))


def test_reaping_kills_what_a_session_leaves():
    # a child that ignores SIGTERM and leaves an orphan behind
    script = f"""
import os, subprocess, sys
sys.path.insert(0, {ROOT!r})
from perfbench import procs
procs.become_subreaper()
subprocess.Popen(["bash", "-c", "trap '' TERM; (sleep 60 &); sleep 60"])
killed = procs.reap_children(grace_s=1, kill_s=5)
assert len(killed) >= 2 and procs.children(os.getpid()) == [], killed
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_run_from_another_directory(tmp_path, no_leftover_ray):
    proc = bench("--workload", "sessions", "--seed", "2", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-3000:]
    r = result(proc)
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 4
    assert [m["name"] for m in run.spec()["end_to_end"]] == list(r["metrics"])
    assert all(v["value"] > 0 for v in r["metrics"].values())


def test_failing_job_is_counted(no_leftover_ray):
    proc = bench("--workload", "pip_join", "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--inject-fail")
    assert proc.returncode == 0, proc.stderr[-3000:]
    r = result(proc)
    assert not r["correct"] and r["failed"] == 1
    assert r["metrics"]["ok_ops"]["value"] == (r["attempted"] - 1) / r["attempted"]


def test_sigterm_mid_job_leaves_no_ray_process(no_leftover_ray):
    p = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
         "tile_encode", "--seed", "4", "--seconds", "60", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        # wait until a session has its Ray daemons up and is running jobs
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not any(
                "raylet" in cmdline(d) for d in procs.descendants(p.pid)):
            time.sleep(0.5)
        time.sleep(8)
        assert p.poll() is None
        p.send_signal(signal.SIGTERM)
        out, _ = p.communicate(timeout=120)
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
    assert p.returncode != 0
    assert '"metrics"' not in out


def test_fails_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "tile_encode", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_kernel_mode_starts_no_ray(no_leftover_ray):
    proc = bench("--kernels", "--seed", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    metrics = result(proc)["metrics"]
    assert "functions.encode.alloc_bytes_per_row" in metrics
    assert "geometry.coverer.s_per_polygon" in metrics
    assert not any(k.startswith(("pipelines.", "runtime.")) for k in metrics)
