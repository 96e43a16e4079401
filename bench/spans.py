"""In-memory span recording for the traced run.

A span is [name, parent index, start ns, end ns, tag]; the tag names the
workload and round it belongs to.  Spans stay in memory until `dump`
writes them out once the run is over.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)
        self.tag = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, self._open[-1] if self._open else -1, time.perf_counter_ns(), 0, self.tag]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter_ns()
            self._open.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[self.tag, name] += n

    def totals(self) -> tuple[dict, dict]:
        """Seconds per (tag, name): self time, and whole duration."""
        child = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        total_s: dict = defaultdict(float)
        for i, (name, _, start, end, tag) in enumerate(self.spans):
            self_s[tag, name] += (end - start - child[i]) / 1e9
            total_s[tag, name] += (end - start) / 1e9
        return self_s, total_s

    def dump(self, path, summary: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"summary": summary,
                       "fields": ["name", "parent", "start_ns", "end_ns", "tag"],
                       "spans": self.spans}, fh)
