"""Tracing spans: nested wall-clock timing exported as a JSONL timeline.

Usage::

    from repro.obs import trace

    with trace.span("algorithm1", layer=i) as sp:
        factors = find_scaling_factors(...)
        sp.set(alpha=factors.alpha, beta=factors.beta)

Spans nest: each carries its parent's id and its depth, so the timeline
file reconstructs into a tree (children are written *before* their
parent because a span is emitted when it closes).  When observability
is disabled :func:`span` returns a shared no-op singleton — no
allocation, no clock reads — keeping instrumented hot paths free.
"""

from __future__ import annotations

import time
from typing import List, Optional

from .core import _STATE, emit_span

_SPAN_COUNTER = 0
_stack: List["Span"] = []


class _NullSpan:
    """Shared do-nothing span returned while observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **fields) -> None:
        pass


NULL_SPAN = _NullSpan()


class Span:
    """One timed, named region of the run."""

    __slots__ = (
        "name", "fields", "span_id", "parent_id", "depth",
        "started_at", "_t0", "duration_s",
    )

    def __init__(self, name: str, fields: dict) -> None:
        self.name = name
        self.fields = fields
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.depth = 0
        self.started_at = 0.0
        self._t0 = 0.0
        self.duration_s: Optional[float] = None

    def set(self, **fields) -> None:
        """Attach result fields to the span before it closes."""
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        global _SPAN_COUNTER
        _SPAN_COUNTER += 1
        self.span_id = _SPAN_COUNTER
        parent = _stack[-1] if _stack else None
        self.parent_id = parent.span_id if parent is not None else None
        self.depth = len(_stack)
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        _stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self._t0
        if _stack and _stack[-1] is self:
            _stack.pop()
        record = {
            "kind": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "started_at": self.started_at,
            "duration_s": self.duration_s,
            "status": "error" if exc_type is not None else "ok",
        }
        if exc_type is not None:
            record["error"] = {
                "type": exc_type.__name__,
                "message": str(exc),
            }
        if self.fields:
            record["fields"] = dict(self.fields)
        emit_span(record)
        return False


def span(name: str, **fields):
    """Open a span named ``name`` (a no-op when disabled)."""
    if not _STATE.enabled:
        return NULL_SPAN
    return Span(name, fields)


def current_span() -> Optional[Span]:
    """The innermost open span, or ``None``."""
    return _stack[-1] if _stack else None


def reset() -> None:
    """Clear the span stack (test isolation after exceptions)."""
    _stack.clear()
