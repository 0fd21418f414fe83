"""Nested spans with monotonic timing and JSON-lines export.

One :class:`TraceCollector` per observed process records a flat list
of *span events*: every ``with span("name", attr=...)`` block appends
one JSON-ready dict when it exits, carrying its wall-clock duration
(``dur_s``), its *self* time (``self_s`` — duration minus the time
spent in child spans), its parent linkage and the attributes the
instrumentation attached.  Events are appended in completion order,
exactly like a sampling profiler's exit log.

Tracing is **off by default and a no-op when off**: :func:`span`
returns a shared null context manager when no collector is active, so
instrumented hot paths pay one global read and one ``is None`` test.
Activation is process-local (see :mod:`repro.obs`); a collector
inherited through ``fork`` identifies itself as foreign via its
``pid`` so pool workers never write into the parent's memory image.

The export format is JSON lines, schema-versioned like the lint
report: the first line is a ``meta`` record carrying
:data:`TRACE_SCHEMA`, followed by one ``span`` record per event and an
optional final ``metrics`` record holding a
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.  Span ids are
unique per ``(pid, id)`` pair — merged worker events (see
:mod:`repro.experiments.pipeline`) keep their own id space, and parent
links never cross a pid boundary.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "TRACE_SCHEMA",
    "Span",
    "TraceCollector",
    "TraceData",
    "span",
    "active",
    "activate",
    "deactivate",
    "write_trace",
    "read_trace",
]

#: Bump when the JSON-lines record layout changes.
TRACE_SCHEMA = "repro-trace/1"


class _NullSpan:
    """The do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Span:
    """One timed block; use via ``with span(...) as sp``.

    ``set(**attrs)`` attaches or updates attributes mid-flight (e.g.
    a pruned-candidate count known only at the end of the block).
    """

    __slots__ = (
        "_collector", "name", "attrs", "_start", "_child_s",
        "id", "parent", "_depth", "_token",
    )

    def __init__(self, collector: "TraceCollector", name: str,
                 attrs: Dict[str, object]) -> None:
        self._collector = collector
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        collector = self._collector
        with collector._id_lock:
            self.id = collector._next_id
            collector._next_id += 1
        stack = collector._open.get()
        self.parent = stack[-1].id if stack else 0
        self._depth = len(stack)
        self._token = collector._open.set(stack + (self,))
        self._child_s = 0.0
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        collector = self._collector
        collector._open.reset(self._token)
        stack = collector._open.get()
        dur = end - self._start
        if stack:
            stack[-1]._child_s += dur
        event: Dict[str, object] = {
            "type": "span",
            "name": self.name,
            "id": self.id,
            "parent": self.parent,
            "depth": self._depth,
            "pid": collector.pid,
            "start_s": self._start - collector.origin,
            "dur_s": dur,
            "self_s": max(0.0, dur - self._child_s),
        }
        if self.attrs:
            event["attrs"] = dict(self.attrs)
        if exc_type is not None:
            event["error"] = exc_type.__name__
        collector.events.append(event)
        return False


class TraceCollector:
    """Process-local span store: a stack for nesting, a list of events.

    Context-aware: the open-span stack is an immutable tuple in a
    :class:`contextvars.ContextVar`, so span *nesting* follows the
    execution context rather than the thread.  Each asyncio task runs
    in its own copy of the context, so concurrent requests on the
    serving loop (:mod:`repro.serve`) never nest under each other even
    while holding spans across an ``await``; each thread starts from
    an empty context, so executor threads cannot corrupt another
    thread's parent linkage either.  Exiting a span resets the stack
    by token.  Ids are allocated under a lock (unique per collector);
    the completion log itself is a plain list — appends are atomic
    under the GIL and ordering is completion order.  Parent links
    never cross a task or thread boundary, mirroring how merged worker
    events never cross a pid boundary.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.origin = time.perf_counter()
        self.events: List[Dict[str, object]] = []
        self._open: contextvars.ContextVar[Tuple[Span, ...]] = (
            contextvars.ContextVar("repro_open_spans", default=())
        )
        self._id_lock = threading.Lock()
        self._next_id = 1

    def span(self, name: str, /, **attrs) -> Span:
        return Span(self, name, attrs)

    def extend(self, events: Iterable[Dict[str, object]]) -> None:
        """Merge foreign span events (a worker's) into this collector.

        Events keep their own ``pid``/``id`` space; only the flat list
        is shared, so durations and self-times aggregate cleanly while
        parent links stay meaningful within each originating process.
        """
        self.events.extend(events)

    def drain(self) -> List[Dict[str, object]]:
        """Detach and return every recorded event (worker shipping)."""
        events, self.events = self.events, []
        return events


# ----------------------------------------------------------------------
# process-local activation (managed by repro.obs)
# ----------------------------------------------------------------------
_active: Optional[TraceCollector] = None


def active() -> Optional[TraceCollector]:
    """The collector spans record into, or ``None`` when tracing is off."""
    return _active


def activate(collector: TraceCollector) -> None:
    global _active
    _active = collector


def deactivate() -> None:
    global _active
    _active = None


def span(name: str, /, **attrs):
    """A span on the active collector, or a shared no-op when off.

    The span's own name is positional-only so attributes may freely use
    any keyword (``span("experiment", name=...)``).  This is the
    instrumentation entry point: cheap enough to leave in hot paths
    unconditionally (one global load and one branch when tracing is
    disabled).
    """
    collector = _active
    if collector is None:
        return _NULL_SPAN
    return Span(collector, name, attrs)


# ----------------------------------------------------------------------
# JSON-lines export / import
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceData:
    """One parsed trace file: the meta record, spans, metrics snapshot."""

    meta: Dict[str, object]
    spans: Tuple[Dict[str, object], ...]
    metrics: Dict[str, Dict[str, object]]

    @property
    def schema(self) -> str:
        return str(self.meta.get("schema", ""))


def write_trace(
    path: os.PathLike,
    collector: TraceCollector,
    metrics: Optional[Dict[str, Dict[str, object]]] = None,
) -> Path:
    """Write the collector's events (plus a metrics snapshot) as JSONL.

    Layout: one ``meta`` record, one ``span`` record per event in
    completion order, and — when ``metrics`` is given — one final
    ``metrics`` record.  Parent directories are created.
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        meta = {
            "type": "meta",
            "schema": TRACE_SCHEMA,
            "pid": collector.pid,
            "spans": len(collector.events),
        }
        handle.write(json.dumps(meta) + "\n")
        for event in collector.events:
            handle.write(json.dumps(event) + "\n")
        if metrics is not None:
            handle.write(
                json.dumps({"type": "metrics", "data": metrics}) + "\n"
            )
    return out


def read_trace(path: os.PathLike) -> TraceData:
    """Parse a trace file written by :func:`write_trace`.

    Raises ``ValueError`` on a missing/mismatched schema or malformed
    lines, so consumers (the summary renderer, tests) fail loudly on
    foreign files.
    """
    meta: Optional[Dict[str, object]] = None
    spans: List[Dict[str, object]] = []
    metrics: Dict[str, Dict[str, object]] = {}
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON ({exc})"
                ) from None
            kind = record.get("type")
            if kind == "meta":
                if record.get("schema") != TRACE_SCHEMA:
                    raise ValueError(
                        f"{path}: schema {record.get('schema')!r} is not "
                        f"{TRACE_SCHEMA!r}"
                    )
                meta = record
            elif kind == "span":
                spans.append(record)
            elif kind == "metrics":
                metrics = record.get("data", {})
            else:
                raise ValueError(
                    f"{path}:{lineno}: unknown record type {kind!r}"
                )
    if meta is None:
        raise ValueError(f"{path}: missing meta record (not a trace file?)")
    return TraceData(meta=meta, spans=tuple(spans), metrics=metrics)
