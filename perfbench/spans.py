"""A small in-memory span recorder for the benchmark's traced runs.

The recorder lives in the benchmark, not in ``repro.obs``, so the measuring
tool stays the same while the program under test changes.  The benchmark
opens one span around each call it makes into a layer's public function
(``lang.parse``, ``bmc.compile``, ``maxsat.localize_trace`` ...) under a root
span per request.  Spans are kept in memory and written out once, when the
run ends, as a Chrome trace that Perfetto opens.

With ``enabled=False`` a span is only a timer: callers still read its
duration (request latencies come from the same code), but nothing is kept.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Optional


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "tid", "attrs")

    def __init__(self, sid: int, name: str, parent: Optional[int], attrs: dict) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.tid = threading.get_ident()
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans of one process; ``spans()`` exports them as dicts."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Wall-clock anchor, so spans of several processes share one axis.
        self._wall0 = time.time()
        self._perf0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        if not self.enabled:
            timer = Span(0, name, None, attrs)
            timer.start = time.perf_counter()
            try:
                yield timer
            finally:
                timer.end = time.perf_counter()
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(next(self._ids), name, stack[-1].sid if stack else None, attrs)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self._spans.append(span)

    def spans(self) -> list[dict]:
        pid = os.getpid()
        offset = self._wall0 - self._perf0
        return [
            {
                "id": f"{pid}:{span.sid}",
                "parent": f"{pid}:{span.parent}" if span.parent else None,
                "name": span.name,
                "start": span.start + offset,
                "end": span.end + offset,
                "pid": pid,
                "tid": span.tid,
                "attrs": span.attrs,
            }
            for span in self._spans
        ]


def span_cost_seconds(samples: int = 20000) -> float:
    """Measured cost of recording one enabled span in this process."""
    recorder = Recorder(enabled=True)
    started = time.perf_counter()
    for _ in range(samples):
        with recorder.span("calibrate"):
            pass
    return (time.perf_counter() - started) / samples


def layer_of(name: str) -> str:
    """``bmc.artifact_load`` -> ``bmc``; root spans have no dot."""
    return name.split(".", 1)[0]


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _own_seconds(spans: list[dict]) -> dict[str, float]:
    """Per span id: its duration minus the part its children cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: span["end"]
        - span["start"]
        - _covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer not covered by the layer's own child spans."""
    own = _own_seconds(spans)
    totals: dict[str, float] = {}
    for span in spans:
        layer = layer_of(span["name"])
        totals[layer] = totals.get(layer, 0.0) + own[span["id"]]
    return totals


def unattributed_share(spans: list[dict]) -> float:
    """Share of root-span time that no layer span covers."""
    own = _own_seconds(spans)
    roots = [span for span in spans if span["parent"] is None]
    root_total = sum(span["end"] - span["start"] for span in roots)
    if root_total <= 0:
        return 0.0
    return sum(own[span["id"]] for span in roots) / root_total


def root_seconds(spans: list[dict]) -> float:
    return sum(span["end"] - span["start"] for span in spans if span["parent"] is None)


def write_chrome_trace(path: Path, spans: list[dict], summary: dict) -> None:
    """Write the spans as Chrome trace events plus the layer summary."""
    origin = min((span["start"] for span in spans), default=0.0)
    events = [
        {
            "name": span["name"],
            "cat": layer_of(span["name"]),
            "ph": "X",
            "ts": round((span["start"] - origin) * 1e6, 3),
            "dur": round((span["end"] - span["start"]) * 1e6, 3),
            "pid": span["pid"],
            "tid": span["tid"],
            "args": {**span["attrs"], "id": span["id"], "parent": span["parent"]},
        }
        for span in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms", "summary": summary})
        + "\n"
    )
