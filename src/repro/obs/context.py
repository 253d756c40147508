"""Trace context: one identifier that follows a request everywhere.

The core obs layer (:mod:`repro.obs.core`) records *what ran* inside
one process; the provenance layer records *why*.  What neither could
answer before this module existed is "which request was that?" — the
serve daemon interleaves jobs across worker threads, the batch driver
fans reports out across forked processes, and the merged telemetry was
a pile of anonymous snapshots.

A :class:`TraceContext` is minted at every ingress — a ``repro serve``
HTTP request, a CLI invocation, a :func:`repro.batch.triage_many`
batch — and carries three ids:

* ``trace_id`` — 16 hex chars naming the whole request.  Every span
  event, provenance node, structured log line, telemetry snapshot and
  flight-recorder entry produced while the context is bound carries
  this id, so one grep joins them all;
* ``span_id`` — 8 hex chars naming this hop (the ingress, one worker's
  slice of a batch, one retry attempt);
* ``parent_id`` — the ``span_id`` of the hop that spawned this one
  (None at the root), so cross-process traces still form a tree.

Binding is **per context** (a :class:`contextvars.ContextVar`): each
thread starts unbound, so the serve daemon's worker threads each carry
their own context and concurrent jobs never contaminate each other's
records.  Crossing the multiprocessing boundary is explicit
and cheap — :meth:`TraceContext.to_dict` / :meth:`TraceContext.
from_dict` move the three strings as plain data, and the batch driver
passes a :meth:`child` context to every worker attempt.

Interop: :meth:`to_traceparent` / :func:`from_traceparent` speak the
W3C ``traceparent`` header shape (``00-<trace>-<span>-01``), so an
upstream proxy's trace id flows through ``repro serve`` unchanged.

Everything here is allocation-light and engine-agnostic: no module in
this file imports the solver stack, and :func:`current` is a single
context-variable read — cheap enough for the span-close path.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = [
    "TraceContext",
    "bind",
    "current",
    "current_trace_id",
    "from_traceparent",
    "new_trace",
]

#: The ambient context; :func:`bind` sets it for a block.
_ctx: ContextVar["TraceContext | None"] = ContextVar(
    "repro.obs.trace", default=None)

#: hex-digit alphabet check for parsing foreign ids
_HEX = set("0123456789abcdef")


def _fresh_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """One hop of one request: ``(trace_id, span_id, parent_id)``."""

    trace_id: str
    span_id: str
    parent_id: str | None = None
    origin: str = "unknown"       # ingress kind: serve | cli | batch | ...

    def child(self, origin: str | None = None) -> "TraceContext":
        """A new hop of the same trace: fresh ``span_id``, this hop as
        parent.  The batch driver mints one per report attempt; the
        serve daemon mints one per job run."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_fresh_id(4),
            parent_id=self.span_id,
            origin=origin or self.origin,
        )

    # ------------------------------------------------------------------
    # plain-data interchange (multiprocessing boundary, job registry)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload: dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "origin": self.origin,
        }
        if self.parent_id is not None:
            payload["parent_id"] = self.parent_id
        return payload

    @classmethod
    def from_dict(cls, payload: dict | None) -> "TraceContext | None":
        """Rebuild a context shipped as plain data; None stays None and
        malformed payloads are dropped (a broken trace id must never
        break the computation it labels)."""
        if not payload or not isinstance(payload, dict):
            return None
        trace_id = payload.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        span_id = payload.get("span_id")
        if not isinstance(span_id, str) or not span_id:
            span_id = _fresh_id(4)
        parent = payload.get("parent_id")
        return cls(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent if isinstance(parent, str) else None,
            origin=str(payload.get("origin", "unknown")),
        )

    # ------------------------------------------------------------------
    # W3C traceparent interop
    # ------------------------------------------------------------------
    def to_traceparent(self) -> str:
        """Render as a W3C ``traceparent`` header value.

        The trace id is left-padded to the 32 hex chars the header
        requires (ours are 16); the span id likewise to 16.
        """
        return (f"00-{self.trace_id.rjust(32, '0')}-"
                f"{self.span_id.rjust(16, '0')}-01")


def from_traceparent(header: str | None,
                     origin: str = "serve") -> TraceContext | None:
    """Parse a W3C ``traceparent`` header into a context, or None.

    The caller's ids become this trace's identity: the returned
    context's ``trace_id`` is the header's (lower-cased, left-zeros
    stripped down to our 16-char width when longer), its ``parent_id``
    the header's span id, and a fresh ``span_id`` names our hop.
    Malformed headers return None — a bad header must never 500 a
    request.
    """
    if not header or not isinstance(header, str):
        return None
    parts = header.strip().lower().split("-")
    if len(parts) < 3:
        return None
    trace_id, parent = parts[1], parts[2]
    if not trace_id or set(trace_id) - _HEX or set(parent) - _HEX:
        return None
    if set(trace_id) == {"0"}:
        return None
    trimmed = trace_id.lstrip("0") or "0"
    if len(trimmed) <= 16:
        trace_id = trimmed.rjust(16, "0")
    # same width restoration for the parent span id: drop the header's
    # left-padding but keep genuine leading zeros of our 8-char ids
    parent = parent.lstrip("0")
    if parent and len(parent) <= 8:
        parent = parent.rjust(8, "0")
    return TraceContext(
        trace_id=trace_id,
        span_id=_fresh_id(4),
        parent_id=parent or None,
        origin=origin,
    )


# ---------------------------------------------------------------------------
# the ambient context
# ---------------------------------------------------------------------------

def new_trace(origin: str = "unknown") -> TraceContext:
    """Mint a fresh root context (a new ingress)."""
    return TraceContext(
        trace_id=_fresh_id(8),
        span_id=_fresh_id(4),
        parent_id=None,
        origin=origin,
    )


def current() -> TraceContext | None:
    """The context bound here (None when unbound)."""
    return _ctx.get()


def current_trace_id() -> str | None:
    """Shorthand: the bound context's trace id, or None."""
    ctx = _ctx.get()
    return ctx.trace_id if ctx is not None else None


@contextmanager
def bind(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Install ``ctx`` as the ambient context for the block.

    Nests: the previous binding is restored on exit, even through
    exceptions.  Binding None clears the context for the block (used by
    tests and by code that must not inherit a caller's trace).
    """
    token = _ctx.set(ctx)
    try:
        yield ctx
    finally:
        _ctx.reset(token)
