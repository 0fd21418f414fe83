"""Span recording from outside the program, and the per-layer rollup.

A *span* is one call into a layer: its layer name, start and end
(``time.perf_counter``, which is the system-wide ``CLOCK_MONOTONIC`` on
Linux, so spans from the daemon and the load generator share one
time base), the span that caused it and a few attributes taken from
the call's arguments or result.

The open span lives in a :class:`contextvars.ContextVar`, not in
thread-local state: asyncio gives every task its own copy of the
context, so two coroutines in flight on one event loop never become
each other's parent.  Threads start from an empty context, so work an
executor thread runs is a root span of its own.

:func:`install` replaces a function with a recording wrapper at every
binding the program holds: its home module, every loaded ``repro``
module that imported it by name, class attributes, and default
argument values (``CoalescingScheduler.__init__`` binds the service
functions as defaults).  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_current: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass
class Span:
    layer: str
    start: float
    parent: Optional["Span"]
    end: float = 0.0
    error: Optional[str] = None
    attrs: Dict[str, float] = field(default_factory=dict)


class Recorder:
    """Collects finished spans in memory, in completion order."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def _enter(self, layer: str) -> Tuple[Span, contextvars.Token]:
        span = Span(layer, time.perf_counter(), _current.get())
        return span, _current.set(span)

    def _exit(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        _current.reset(token)
        self.spans.append(span)

    def wrap(self, layer: str, fn: Callable,
             attrs: Optional[Callable[..., Dict[str, float]]] = None
             ) -> Callable:
        """``fn`` recording one ``layer`` span per call.

        ``attrs(args, kwargs, result)`` adds numbers to the span; an
        exception is recorded by type name and re-raised.
        """
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span, token = self._enter(layer)
                try:
                    result = await fn(*args, **kwargs)
                except BaseException as exc:
                    span.error = type(exc).__name__
                    raise
                finally:
                    self._exit(span, token)
                if attrs is not None:
                    span.attrs = attrs(args, kwargs, result)
                return result
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._exit(span, token)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result
        return wrapper


# ----------------------------------------------------------------------
# patching every binding
# ----------------------------------------------------------------------
def _resolve(module: str, qualname: str) -> Tuple[Any, str, Callable]:
    owner: Any = importlib.import_module(module)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, inspect.getattr_static(owner, name)


def _functions_of(module) -> List[Callable]:
    found = []
    for value in vars(module).values():
        if inspect.isfunction(value):
            found.append(value)
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            found.extend(v for v in vars(value).values()
                         if inspect.isfunction(v))
    return found


def install(replacements: Sequence[Tuple[str, str, Callable[[Callable],
                                                           Callable]]]
            ) -> Callable[[], None]:
    """Apply ``(module, qualname, make_wrapper)`` to every binding.

    Returns a function that restores the original bindings.  Wrappers
    compose: installing twice wraps the first wrapper.
    """
    undo: List[Callable[[], None]] = []

    def _set(owner, name, value):
        old = owner.__dict__[name] if isinstance(owner, type) else \
            getattr(owner, name)
        setattr(owner, name, value)
        undo.append(lambda: setattr(owner, name, old))

    for module, qualname, make in replacements:
        owner, name, original = _resolve(module, qualname)
        patched = make(original)
        _set(owner, name, patched)
        for mod in [m for key, m in list(sys.modules.items())
                    if key == "repro" or key.startswith("repro.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    _set(mod, attr, patched)
            for fn in _functions_of(mod):
                defaults = fn.__defaults__
                if defaults and any(d is original for d in defaults):
                    fn.__defaults__ = tuple(
                        patched if d is original else d for d in defaults
                    )
                    undo.append(functools.partial(
                        setattr, fn, "__defaults__", defaults))

    def restore() -> None:
        for step in reversed(undo):
            step()
        undo.clear()
    return restore


# ----------------------------------------------------------------------
# rollup
# ----------------------------------------------------------------------
def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span: duration minus the union of its children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(
                (span.start, span.end))
    return {
        id(span): (span.end - span.start)
        - _union_length(children.get(id(span), []))
        for span in spans
    }


def covered(span: Span, intervals: List[Tuple[float, float]]) -> float:
    """Length of ``span``'s interval that ``intervals`` cover."""
    clipped = [(max(s, span.start), min(e, span.end))
               for s, e in intervals if e > span.start and s < span.end]
    return _union_length(clipped)


def to_records(spans: Sequence[Span]) -> List[list]:
    """Spans as JSON-ready rows ``[id, parent_id, layer, start, end,
    error, attrs]`` (for shipping spans out of the daemon process)."""
    ids = {id(span): n for n, span in enumerate(spans)}
    return [
        [ids[id(s)], ids.get(id(s.parent)) if s.parent is not None
         else None, s.layer, s.start, s.end, s.error, s.attrs]
        for s in spans
    ]


def from_records(rows: Sequence[list]) -> List[Span]:
    by_id: Dict[int, Span] = {}
    out = []
    for sid, _parent, layer, start, end, error, attrs in rows:
        span = Span(layer, start, None, end, error, attrs)
        by_id[sid] = span
        out.append(span)
    for span, row in zip(out, rows):
        if row[1] is not None:
            span.parent = by_id.get(row[1])
    return out
