"""In-memory spans around the calls the benchmark makes into each layer."""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Records (id, name, start, end, parent, run) spans while `enabled`;
    a disabled tracer records nothing.  Spans nest by call order in the
    single client thread."""

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"id": sid, "name": name, "start": start,
                               "end": end, "parent": parent, "run": self.run_id})

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def self_time(self, span: dict) -> float:
        """Duration minus the part of it that its children cover."""
        covered, last = 0.0, span["start"]
        kids = sorted((s for s in self.spans if s["parent"] == span["id"]),
                      key=lambda s: s["start"])
        for k in kids:
            lo, hi = max(k["start"], last), min(k["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                last = hi
        return span["end"] - span["start"] - covered

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([dict(s, self_s=self.self_time(s)) for s in self.spans], f)
