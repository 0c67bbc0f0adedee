"""In-memory span recorder for the traced benchmark run.

The benchmark opens one span around each of its own calls into an ``hqmm``
function; nothing inside the package is wrapped or patched. A span records
its name, start, end, parent and task id. Spans stay in memory until the run
ends, when ``write`` dumps them as JSON.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records nested spans; ``task`` labels every span opened under it."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.task_id = None

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "task": self.task_id,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Total self time per span name over ``spans[first:]``.

        A span's self time is its duration minus the time covered by its
        direct children; the benchmark is single-threaded, so children never
        overlap.
        """
        child_time = defaultdict(float)
        for rec in self.spans[first:]:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        totals: dict[str, float] = defaultdict(float)
        for i, rec in enumerate(self.spans[first:], start=first):
            totals[rec["name"]] += rec["end"] - rec["start"] - child_time[i]
        return dict(totals)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as f:
            json.dump({**header, "spans": self.spans}, f)


class NullTracer:
    """Stand-in for untraced passes: every span is a shared no-op."""

    enabled = False
    task_id = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null
