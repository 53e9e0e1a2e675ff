"""The benchmark's own span recorder (nothing under ``src/`` is touched).

A span is ``name, start, end, parent, op_id``; spans are kept in memory
and written as JSON lines when the run ends.  A layer's figure is the
median *self time* of its spans: duration minus the time its direct
children cover.
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, Iterator, List, Optional


class SpanRecorder:
    """Append-only span list with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._local = threading.local()
        self._ids = itertools.count()  # next() is atomic under the GIL

    @contextmanager
    def span(self, name: str, op_id: Optional[int] = None) -> Iterator[Dict]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": None if parent is None else parent["id"],
            "op_id": op_id if op_id is not None or parent is None else parent["op_id"],
        }
        self.spans.append(record)
        stack.append(record)
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def self_times(spans: List[Dict]) -> Dict[str, List[float]]:
    """Self time in seconds of every span, grouped by span name."""
    covered: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    grouped: Dict[str, List[float]] = {}
    for span in spans:
        own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
        grouped.setdefault(span["name"], []).append(own)
    return grouped


def layer_ms(spans: List[Dict]) -> Dict[str, float]:
    """``{span name: median self time in ms}``."""
    return {name: median(values) * 1000.0 for name, values in self_times(spans).items()}
