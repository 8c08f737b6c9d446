"""Span tracing: one clock and one request identity for the whole stack.

Before this module, per-phase visibility was a patchwork — ``SolverStats``
in the solver, the encode-profile side table of the compiled artifact,
``session.last_request_profile``, and ad-hoc dicts in the daemon's
``stats`` op — none of which shared a clock, a schema, or a request
identity.  A slow request could not be decomposed into encode vs. solve
vs. queue time.  :func:`span` is now the *single timing source*: every
phase the old profiles reported is measured by a span, and the profiles
are derived from span durations.

Three usage tiers, by how much context the caller has:

* :func:`span` — a context manager reading the thread-local trace context.
  It **always** measures wall time (``Span.duration`` is valid whether or
  not tracing is enabled), and records a trace event only when a collector
  is bound.  With tracing off the cost is one small object plus two
  ``perf_counter_ns`` calls — the ≤3 % overhead micro-assert in the
  benchmarks holds the line on this.
* :func:`trace` — opens a root span and binds a :class:`TraceCollector`
  to the calling thread; used by in-process callers (benchmark runs, the
  session API).  With ``REPRO_TRACE=export`` the finished trace is written
  as Chrome trace-event JSON plus a JSON log line (see
  :mod:`repro.obs.export`).
* explicit-context helpers — :func:`start_request_trace` (the serve
  frontend, where one asyncio thread interleaves many requests and
  thread-locals would cross wires), :func:`attached_span` (dispatcher
  threads recording into a registered collector by trace id),
  :func:`bind_trace` (executor threads adopting a request's context), and
  :func:`remote_trace` / :func:`merge_spans` (subprocess workers
  collecting spans locally and shipping them back for stitching).

A *trace id* is minted at the outermost entry point (the serve frontend
for daemon traffic, :func:`trace` for in-process runs), carried in the
wire protocol as the optional ``trace_id`` request field, and propagated
into worker-pool subprocesses and ``localize_batch(executor="process")``
shards — so one trace stitches router → daemon → worker → solver.  Span
timestamps are epoch-anchored microseconds (wall clock at span start,
monotonic clock for the duration), which keeps per-process timing
monotonic while letting spans from different processes merge onto one
timeline.

Gating: ``REPRO_TRACE=off|on|export`` (default ``off``).  ``on`` collects
spans for callers that hold a collector; ``export`` additionally writes
every finished root trace to ``$REPRO_TRACE_DIR`` (default
``./repro-traces``).
"""

from __future__ import annotations

import os
import re
import threading
import time
import weakref
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Optional

__all__ = [
    "Span",
    "TraceCollector",
    "attached_span",
    "bind_trace",
    "current_context",
    "current_trace_id",
    "merge_spans",
    "new_trace_id",
    "remote_trace",
    "span",
    "start_request_trace",
    "trace",
    "tracing_mode",
    "valid_trace_id",
]

#: The tracing knob.  Orthogonal to the ``REPRO_BACKEND`` knob: that one
#: picks *which code* runs, this one only decides whether its phases are
#: recorded.
TRACE_ENV = "REPRO_TRACE"
TRACE_DIR_ENV = "REPRO_TRACE_DIR"
DEFAULT_TRACE_DIR = "repro-traces"

_MODES = ("off", "on", "export")


def tracing_mode() -> str:
    """The active tracing mode: ``"off"``, ``"on"`` or ``"export"``.

    Read from the environment on every call so tests (and long-lived
    daemons restarted with a new environment) see the current value; the
    hot path (:func:`span`) never calls this — it checks the thread-local
    collector instead, which only exists when a trace was started.
    Unrecognized values degrade to ``"off"``: a typo in an env var must
    never crash serving.
    """
    value = os.environ.get(TRACE_ENV, "off").strip().lower()
    if value in _MODES:
        return value
    if value in ("1", "true", "yes"):
        return "on"
    return "off"


def trace_export_dir() -> str:
    """Directory receiving exported traces (``REPRO_TRACE_DIR`` override)."""
    return os.environ.get(TRACE_DIR_ENV, "").strip() or DEFAULT_TRACE_DIR


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return os.urandom(8).hex()


_TRACE_ID_RE = re.compile(r"[0-9a-f]{8,32}")


def valid_trace_id(value: object) -> bool:
    """Whether ``value`` is a well-formed trace id (8–32 lowercase hex).

    Anything adopting an id from outside the process (the serve frontend
    reading the wire ``trace_id`` field) must check it first: the id
    names the export file, so a free-form string is a path-injection
    surface (``trace_id="../../etc/x"`` would escape the trace dir).
    """
    return isinstance(value, str) and _TRACE_ID_RE.fullmatch(value) is not None


def _new_span_id() -> str:
    return os.urandom(4).hex()


# ------------------------------------------------------------- collectors

class TraceCollector:
    """The spans of one trace, as plain JSON-ready dicts.

    Thread-safe: dispatcher threads, executor threads and merge calls from
    subprocess replies all append concurrently.  A collector is registered
    process-globally by trace id while its trace is open, so explicit-
    context helpers (and merges of shipped subprocess spans) can find it
    without thread-local plumbing.
    """

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self._spans: list[dict] = []
        self._lock = threading.Lock()

    def add(self, span_dict: dict) -> None:
        with self._lock:
            self._spans.append(span_dict)

    def extend(self, span_dicts: list) -> None:
        with self._lock:
            self._spans.extend(dict(s) for s in span_dicts)

    def spans(self) -> list[dict]:
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


#: Registry of collectors for currently open traces, by trace id.  Entries
#: live from trace start to trace finish; :func:`attached_span` and
#: :func:`merge_spans` resolve through it.
_ACTIVE: dict[str, TraceCollector] = {}
_ACTIVE_LOCK = threading.Lock()


def _register(collector: TraceCollector) -> None:
    with _ACTIVE_LOCK:
        _ACTIVE[collector.trace_id] = collector


def _unregister(trace_id: str) -> None:
    with _ACTIVE_LOCK:
        _ACTIVE.pop(trace_id, None)


def collector_for(trace_id: Optional[str]) -> Optional[TraceCollector]:
    """The registered collector of an open trace, or ``None``."""
    if trace_id is None:
        return None
    with _ACTIVE_LOCK:
        return _ACTIVE.get(trace_id)


def merge_spans(trace_id: Optional[str], span_dicts: Optional[list]) -> int:
    """Fold spans shipped back from a subprocess into the open trace.

    Returns the number of spans merged; silently 0 when the trace has
    already closed (a worker reply racing the request's teardown must not
    error) or when there is nothing to merge.
    """
    if not span_dicts:
        return 0
    collector = collector_for(trace_id)
    if collector is None:
        return 0
    collector.extend(span_dicts)
    return len(span_dicts)


# ----------------------------------------------------------- thread-local

_TLS = threading.local()


def _context() -> Optional[tuple]:
    return getattr(_TLS, "ctx", None)


def current_trace_id() -> Optional[str]:
    """The trace id bound to this thread, or ``None``."""
    ctx = _context()
    return ctx[0].trace_id if ctx is not None else None


def current_context() -> Optional[tuple]:
    """The forwardable ``(trace_id, parent_span_id)`` of this thread.

    This is the value to ship across a process boundary: the receiving
    side passes it to :func:`remote_trace` so its spans stitch under the
    caller's current span.  ``None`` when no trace is bound.
    """
    ctx = _context()
    if ctx is None:
        return None
    collector, parent_id = ctx
    return (collector.trace_id, parent_id)


# ----------------------------------------------------------------- spans

class Span:
    """One timed operation.

    Always usable as a timer: ``duration`` (seconds) is valid after the
    ``with`` block whether or not tracing is on.  Attributes set via
    :meth:`set` ride into the trace event (and are dropped silently when
    nothing is recording).
    """

    __slots__ = (
        "name",
        "attrs",
        "duration",
        "span_id",
        "_collector",
        "_event",
        "_parent_id",
        "_prev_ctx",
        "_t0",
        "_ts_us",
    )

    def __init__(
        self,
        name: str,
        attrs: Optional[dict],
        collector: Optional[TraceCollector],
        parent_id: Optional[str],
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.duration = 0.0
        self.span_id: Optional[str] = None
        self._collector = collector
        self._event: Optional[dict] = None
        self._parent_id = parent_id
        self._prev_ctx: Any = None

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span (no-op when not recording).

        Valid before *or after* the ``with`` block closes: callers often
        only learn the interesting numbers (solver stats, cache outcomes)
        once the timed work has finished, so a late ``set`` patches the
        already-recorded event in place.
        """
        if self._collector is not None:
            if self.attrs is None:
                self.attrs = {}
            self.attrs.update(attrs)
            if self._event is not None:
                self._event["attrs"] = self.attrs
        return self

    @property
    def ctx(self) -> Optional[tuple]:
        """``(trace_id, span_id)`` for forwarding to a subprocess."""
        if self._collector is None or self.span_id is None:
            return None
        return (self._collector.trace_id, self.span_id)

    def __enter__(self) -> "Span":
        collector = self._collector
        if collector is not None:
            self.span_id = _new_span_id()
            self._ts_us = time.time_ns() // 1000
            self._prev_ctx = _context()
            _TLS.ctx = (collector, self.span_id)
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dur_ns = time.perf_counter_ns() - self._t0
        self.duration = dur_ns / 1e9
        collector = self._collector
        if collector is not None:
            _TLS.ctx = self._prev_ctx
            event = {
                "trace_id": collector.trace_id,
                "span_id": self.span_id,
                "parent_id": self._parent_id,
                "name": self.name,
                "ts_us": self._ts_us,
                "dur_us": dur_ns // 1000,
                "pid": os.getpid(),
                "tid": threading.get_ident() & 0xFFFFFFFF,
            }
            if exc_type is not None:
                event["error"] = exc_type.__name__
            if self.attrs:
                event["attrs"] = self.attrs
            self._event = event
            collector.add(event)


def span(name: str, **attrs: Any) -> Span:
    """Open a span under this thread's trace context (the usual entry).

    With no context bound the span degrades to a bare timer — ``duration``
    still works, nothing is recorded, and the attrs dict is not even
    built (keyword evaluation aside).  This is the disabled fast path the
    overhead micro-assert measures.
    """
    ctx = _context()
    if ctx is None:
        return Span(name, None, None, None)
    collector, parent_id = ctx
    return Span(name, attrs or None, collector, parent_id)


@contextmanager
def bind_trace(trace_ctx: Optional[tuple]) -> Iterator[None]:
    """Adopt an open trace's explicit ``(trace_id, parent_span_id)`` context.

    Used by executor threads handling a request whose root span lives on
    another thread: spans opened inside the ``with`` block parent under
    ``parent_span_id``.  A ``None`` context (tracing off, or the trace
    already closed) binds nothing.
    """
    collector = collector_for(trace_ctx[0]) if trace_ctx else None
    if collector is None:
        yield
        return
    prev = _context()
    _TLS.ctx = (collector, trace_ctx[1])
    try:
        yield
    finally:
        _TLS.ctx = prev


@contextmanager
def attached_span(
    trace_ctx: Optional[tuple], name: str, **attrs: Any
) -> Iterator[Span]:
    """A span recorded by explicit context, without touching thread-locals.

    For threads that juggle work of several traces (the worker pool's
    dispatcher threads): the span records into the registered collector of
    ``trace_ctx[0]`` under parent ``trace_ctx[1]``.  Yields the span; its
    ``ctx`` is the context to forward to a subprocess.
    """
    collector = collector_for(trace_ctx[0]) if trace_ctx else None
    handle = Span(name, attrs or None, collector, trace_ctx[1] if trace_ctx else None)
    if collector is None:
        # Bare timer; do not touch TLS either way for attached spans.
        with handle:
            yield handle
        return
    # Enter/exit manually so the TLS swap of __enter__ is undone at once:
    # attached spans are explicit-context by definition.
    with handle:
        _TLS.ctx = handle._prev_ctx
        try:
            yield handle
        finally:
            handle._prev_ctx = _context()


# --------------------------------------------------------------- tracing

class TraceHandle:
    """What :func:`trace` yields: identity plus the live collector."""

    def __init__(self, trace_id: str, collector: Optional[TraceCollector]) -> None:
        self.trace_id = trace_id
        self.collector = collector
        #: Filled at exit in export mode: path of the written trace file.
        self.export_path: Optional[str] = None

    def spans(self) -> list[dict]:
        return self.collector.spans() if self.collector is not None else []


@contextmanager
def trace(
    name: str,
    trace_id: Optional[str] = None,
    attrs: Optional[Mapping[str, Any]] = None,
    export_dir: Optional[str] = None,
) -> Iterator[TraceHandle]:
    """Open a root span and bind a collector to the calling thread.

    The in-process entry point (benchmark runs, library users).  A trace
    id is minted unless one is supplied.  With ``REPRO_TRACE=off`` the
    handle carries the id but no collector — every inner :func:`span`
    stays on the disabled fast path.  With ``REPRO_TRACE=export`` the
    finished trace is written as Chrome trace-event JSON plus a JSON log
    line under ``export_dir`` (default :func:`trace_export_dir`).
    """
    mode = tracing_mode()
    tid = trace_id or new_trace_id()
    handle = TraceHandle(tid, None)
    if mode == "off":
        yield handle
        return
    collector = TraceCollector(tid)
    handle.collector = collector
    _register(collector)
    prev = _context()
    root = Span(name, dict(attrs) if attrs else None, collector, None)
    try:
        with root:
            yield handle
    finally:
        _TLS.ctx = prev
        _unregister(tid)
        if mode == "export":
            from repro.obs.export import export_trace

            handle.export_path = export_trace(
                collector, root_name=name, directory=export_dir
            )


class RequestTrace:
    """An explicitly finished trace for event-loop frontends.

    One asyncio thread interleaves many requests, so the thread-local
    binding of :func:`trace` would cross wires between them.  A
    :class:`RequestTrace` keeps everything explicit: the root span is
    recorded at :meth:`finish`, the context to forward to executor
    threads is :attr:`ctx`, and the trace id exists even with tracing off
    (request identity is free; collection is what's gated).
    """

    def __init__(self, name: str, trace_id: str, attrs: Optional[dict]) -> None:
        self.name = name
        self.trace_id = trace_id
        self.attrs = attrs or {}
        self.collector: Optional[TraceCollector] = None
        self.root_span_id: Optional[str] = None
        self.export_path: Optional[str] = None
        self._ts_us = 0
        self._t0 = 0
        self.duration = 0.0
        mode = tracing_mode()
        self._export = mode == "export"
        if mode != "off":
            self.collector = TraceCollector(trace_id)
            self.root_span_id = _new_span_id()
            self._ts_us = time.time_ns() // 1000
            _register(self.collector)
        self._t0 = time.perf_counter_ns()

    @property
    def ctx(self) -> Optional[tuple]:
        if self.collector is None:
            return None
        return (self.trace_id, self.root_span_id)

    def set(self, **attrs: Any) -> None:
        if self.collector is not None:
            self.attrs.update(attrs)

    def finish(self) -> None:
        dur_ns = time.perf_counter_ns() - self._t0
        self.duration = dur_ns / 1e9
        if self.collector is None:
            return
        self.collector.add(
            {
                "trace_id": self.trace_id,
                "span_id": self.root_span_id,
                "parent_id": None,
                "name": self.name,
                "ts_us": self._ts_us,
                "dur_us": dur_ns // 1000,
                "pid": os.getpid(),
                "tid": threading.get_ident() & 0xFFFFFFFF,
                **({"attrs": self.attrs} if self.attrs else {}),
            }
        )
        _unregister(self.trace_id)
        if self._export:
            from repro.obs.export import export_trace

            self.export_path = export_trace(self.collector, root_name=self.name)


def start_request_trace(
    name: str, trace_id: Optional[str] = None, **attrs: Any
) -> RequestTrace:
    """Mint (or adopt) a request's trace id and open its root span.

    Always returns a handle — with tracing off it only carries the minted
    id, so responses can echo a ``trace_id`` unconditionally.
    """
    return RequestTrace(name, trace_id or new_trace_id(), attrs or None)


# ------------------------------------------------------- subprocess side

class RemoteSpans:
    """What :func:`remote_trace` yields: the spans to ship back."""

    def __init__(self) -> None:
        self.spans: list[dict] = []


@contextmanager
def remote_trace(trace_ctx: Optional[tuple]) -> Iterator[RemoteSpans]:
    """Collect spans in a subprocess for shipping back to the parent.

    The parent forwards :func:`current_context` (or a span's ``ctx``)
    with the work item; the worker wraps its execution in this context
    manager and returns ``bundle.spans`` with the reply, which the parent
    folds in via :func:`merge_spans`.  A ``None`` context is the tracing-
    off fast path: nothing is bound, nothing is collected.
    """
    bundle = RemoteSpans()
    if not trace_ctx:
        yield bundle
        return
    trace_id, parent_id = trace_ctx
    collector = TraceCollector(trace_id)
    # In a subprocess the registry slot is free — claim it so explicit-
    # context helpers resolve to this shard's collector.  When the
    # "remote" side actually shares the parent's process (thread
    # executors, tests) the parent's live collector already owns the
    # slot; leave it alone — spans opened under the TLS context below
    # still land in this shard's collector, and id-keyed lookups hit the
    # parent directly.  (Never shadow-and-restore: two concurrent same-
    # process shards exiting non-LIFO would restore a stale, finished
    # collector and silently drop later spans.)
    with _ACTIVE_LOCK:
        claimed = trace_id not in _ACTIVE
        if claimed:
            _ACTIVE[trace_id] = collector
    prev = _context()
    _TLS.ctx = (collector, parent_id)
    try:
        yield bundle
    finally:
        _TLS.ctx = prev
        if claimed:
            with _ACTIVE_LOCK:
                if _ACTIVE.get(trace_id) is collector:
                    _ACTIVE.pop(trace_id, None)
        bundle.spans = collector.spans()


# ------------------------------------------------- profile side tables

#: Id-keyed weakref side tables (PR 8's encode-profile registry pattern,
#: generalized and owned by the tracing layer): observability data about
#: an object — timings, backends — that must never ride its pickle.
_PROFILES: dict[int, dict] = {}


def attach_profile(obj: object, profile: dict) -> None:
    """Attach a profile dict to an object for its lifetime (never pickled)."""
    key = id(obj)
    _PROFILES[key] = profile
    weakref.finalize(obj, _PROFILES.pop, key, None)


def profile_of(obj: object) -> dict:
    """The profile attached to ``obj``, or ``{}``."""
    return _PROFILES.get(id(obj), {})
