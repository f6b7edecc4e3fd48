"""Tiny-session liveness: the broadcast PIP join must complete on 1- and
2-cpu Ray sessions (a fixed actor pool reserving every slot deadlocked
there, because the source operator stays outside Ray's operator fusion;
the join's stage is built once on the driver and runs as a task map,
`exchange.map_blocks`, for that reason)."""

import subprocess
import sys


def test_two_cpu_session_pip_join_completes():
    """End-to-end liveness on a 2-cpu Ray session (fresh subprocess so the
    session-scoped 4-cpu fixture is untouched).  Pre-fix this hung forever;
    120 s is the regression tripwire."""
    code = (
        "import sys; sys.path.insert(0, '/root/repo')\n"
        "import ray\n"
        "ray.init(address='local', num_cpus=2, include_dashboard=False,"
        " logging_level='ERROR')\n"
        "from ray.data import DataContext\n"
        "DataContext.get_current().enable_progress_bars = False\n"
        "import ray.data, pyarrow as pa\n"
        "from s2_geometry_rust_ray.pipelines import pip as ppip\n"
        "ds = ray.data.range(5000).map_batches("
        "lambda b: pa.table({'k': b['id']}), batch_format='pyarrow')\n"
        "print('ROWS', ppip.pip_join(ds, 'k').count())\n"
        "ray.shutdown()\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, cwd="/root/repo",
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert "ROWS" in out.stdout


def test_one_cpu_session_pip_join_completes():
    """1-cpu liveness (ADVICE r3): any fixed pool — even size 1 — reserves
    the only slot and the un-fused source can never schedule.  map_blocks
    is a task map; this must complete, not hang."""
    code = (
        "import sys; sys.path.insert(0, '/root/repo')\n"
        "import ray\n"
        "ray.init(address='local', num_cpus=1, include_dashboard=False,"
        " logging_level='ERROR')\n"
        "from ray.data import DataContext\n"
        "DataContext.get_current().enable_progress_bars = False\n"
        "import ray.data, pyarrow as pa\n"
        "from s2_geometry_rust_ray.pipelines import pip as ppip\n"
        "ds = ray.data.range(3000).map_batches("
        "lambda b: pa.table({'k': b['id']}), batch_format='pyarrow')\n"
        "print('ROWS', ppip.pip_join(ds, 'k').count())\n"
        "ray.shutdown()\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, cwd="/root/repo",
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert "ROWS" in out.stdout
