"""Process bookkeeping from /proc (psutil is not installed): CPU slots, the
process tree, peak resident memory, and reaping what a session leaves.
Linux only."""

from __future__ import annotations

import ctypes
import os
import signal
import time

PR_SET_CHILD_SUBREAPER = 36


def slots() -> int:
    """CPU slots as `nproc` counts them: the CPU affinity, capped by
    OMP_NUM_THREADS and OMP_THREAD_LIMIT when they are set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "").split(",")[0].strip()
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v))
    return n


def become_subreaper() -> None:
    """Make orphaned descendants (a Ray daemon whose driver died) children of
    this process, so reap_children() can find and stop them."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _ppids() -> dict[int, int]:
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces and parentheses; fields follow ")"
        out[int(name)] = int(stat.rsplit(")", 1)[1].split()[1])
    return out


def children(pid: int) -> list[int]:
    return [p for p, pp in _ppids().items() if pp == pid]


def descendants(pid: int) -> list[int]:
    ppids = _ppids()
    kids: dict[int, list[int]] = {}
    for p, pp in ppids.items():
        kids.setdefault(pp, []).append(p)
    out, todo = [], list(kids.get(pid, []))
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, []))
    return out


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PeakRss:
    """Peak resident memory of this process plus its descendants: the sum
    over processes of each one's high-water mark (VmHWM), where a process's
    mark is the largest seen at any sample, so one that exited still counts."""

    def __init__(self) -> None:
        self.peak_kb: dict[int, int] = {}

    def sample(self) -> None:
        me = os.getpid()
        for pid in [me, *descendants(me)]:
            self.peak_kb[pid] = max(self.peak_kb.get(pid, 0), _hwm_kb(pid))

    @property
    def mb(self) -> float:
        return sum(self.peak_kb.values()) / 1024.0


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap_children(grace_s: float = 10.0, kill_s: float = 10.0) -> list[int]:
    """Wait for every child of this process to exit, reaping zombies; after
    `grace_s` send SIGKILL to those left, and to any orphan that arrives
    later.  Returns the pids that had to be killed.  Raises if a child is
    still alive `kill_s` after that."""
    killed: set[int] = set()
    start = time.monotonic()
    while True:
        _reap()
        alive = children(os.getpid())
        if not alive:
            return sorted(killed)
        waited = time.monotonic() - start
        if waited > grace_s + kill_s:
            raise RuntimeError(f"processes survive SIGKILL: {alive}")
        if waited > grace_s:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed.update(alive)
        time.sleep(0.1)
