"""Structured JSON logging (the versioned ``repro.log/1`` stream).

The span/counter layer answers *how long and how often*; the trace
stream answers *in what order*; this module answers *what happened, in
words an operator can grep* — access logs, worker lifecycle events
(retry / quarantine / pool rebuild), slow solver queries — each line a
self-describing JSON object with the ambient :mod:`trace context
<repro.obs.context>` auto-attached, so one ``grep trace_id`` joins the
logs to the spans, the provenance nodes and the flight recorder.

Design contracts, in the same spirit as the core obs layer:

* **near-zero cost unconfigured** — every probe checks one
  module-global int and returns; ``benchmarks/bench_overhead.py`` keeps
  the whole obs stack (this module included) under its bounds;
* **versioned** — a file sink starts with a header line ``{"type":
  "header", "schema": "repro.log/1"}`` and :func:`read_log` refuses
  foreign schemas, exactly like ``repro.trace/1``;
* **rate-limited** — a runaway event (a hot loop logging per
  iteration) is capped per event name per second; suppressed lines are
  counted and the count is attached to the next emitted line of that
  event (``"dropped": N``), so throttling is visible, never silent;
* **multiprocess-safe** — the file sink appends whole lines through an
  ``O_APPEND`` descriptor, so the batch driver's forked workers can
  share one log file without interleaving partial lines;
* **bounded in memory** — records always land in a ring buffer
  (:func:`records`) whether or not a file sink is configured, so tests
  and the serve flight recorder can read recent lines back without
  touching disk.

Record shape (one JSON object per line)::

    {"type": "log", "ts": 1722860000.123, "level": "info",
     "event": "serve.access", "trace": "9f2c...", "span": 41,
     "method": "POST", "path": "/v1/triage", "status": 202, ...}

``trace`` is the bound :class:`~repro.obs.context.TraceContext`'s
trace id; ``span`` is the innermost open obs span id.  Both are
omitted when absent rather than emitted as nulls.

The **slow-query log** rides the core layer's span-close hook: once
:func:`configure` sets ``slow_query_ms``, every closing span whose
name starts with a solver-stage prefix (``smt.`` / ``qe.`` / ``msa.``
/ ``sat.`` / ``omega.``) and whose duration exceeds the threshold
emits one ``slow_query`` record with the span's name, duration and
attributes — the "why was this request slow" answer, attributed to its
trace.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, TextIO

from . import context as _context
from . import core as _core

__all__ = [
    "LOG_SCHEMA",
    "configure",
    "debug",
    "error",
    "info",
    "is_enabled",
    "log",
    "read_log",
    "records",
    "reset",
    "slow_query_ms",
    "warning",
]

LOG_SCHEMA = "repro.log/1"

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}
_LEVEL_NAMES = {v: k for k, v in LEVELS.items()}

#: Span-name prefixes eligible for the slow-query log.
SLOW_QUERY_PREFIXES = ("smt.", "qe.", "msa.", "sat.", "omega.")

_RING_SIZE = 2_048

#: Records kept per event name per wall second; the rest are dropped
#: and counted.
RATE_LIMIT = 200

# module state: one int gate (0 = disabled) keeps the unconfigured
# fast path to a single global load, like obs.core's _enabled flag
_threshold = 0              # 0 = logging off; else minimum level value
_slow_query_s: float | None = None
_ring: deque[dict] = deque(maxlen=_RING_SIZE)
_file_fd: int | None = None
_file_path: str | None = None
_write_lock = threading.Lock()
# event name -> [window_epoch_second, emitted_in_window, dropped_total]
_buckets: dict[str, list] = {}


def is_enabled(level: str = "debug") -> bool:
    """True when records at ``level`` are currently being kept."""
    return bool(_threshold) and LEVELS.get(level, 10) >= _threshold


def slow_query_ms() -> float | None:
    """The configured slow-query threshold in ms (None = off)."""
    return None if _slow_query_s is None else _slow_query_s * 1000.0


def configure(*, file: str | os.PathLike | None = None,
              level: str = "info",
              slow_query_ms: float | None = None) -> None:
    """Turn structured logging on.

    ``file`` appends ``repro.log/1`` lines there (header written once
    per fresh/empty file; append mode, fork-safe); without it records
    live only in the in-memory ring.  ``level`` is the minimum kept
    level.  ``slow_query_ms`` arms the slow-query span hook.
    """
    global _threshold, _slow_query_s, _file_fd, _file_path
    if level not in LEVELS:
        raise ValueError(f"unknown log level {level!r} "
                         f"(expected one of {sorted(LEVELS)})")
    reset()
    _threshold = LEVELS[level]
    if file is not None:
        path = os.fspath(file)
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        _file_fd = os.open(path,
                           os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                           0o644)
        _file_path = path
        if fresh:
            _emit_raw({"type": "header", "schema": LOG_SCHEMA})
    if slow_query_ms is not None:
        _slow_query_s = max(0.0, float(slow_query_ms)) / 1000.0
        _core.set_span_hook(_observe_span)


def reset() -> None:
    """Turn logging off and drop all state (ring, buckets, file sink)."""
    global _threshold, _slow_query_s, _file_fd, _file_path
    _threshold = 0
    _slow_query_s = None
    _core.set_span_hook(None)
    if _file_fd is not None:
        try:
            os.close(_file_fd)
        except OSError:
            pass
    _file_fd = None
    _file_path = None
    _ring.clear()
    _buckets.clear()


# ---------------------------------------------------------------------------
# emitting
# ---------------------------------------------------------------------------

def log(level: str, event: str, **fields: Any) -> None:
    """Emit one structured record (no-op while unconfigured).

    The ambient trace id and innermost span id are attached
    automatically; ``fields`` must be JSON-representable plain data
    (anything else is stringified by the encoder).
    """
    threshold = _threshold
    if not threshold:
        return
    value = LEVELS.get(level, 20)
    if value < threshold:
        return
    dropped = _throttle(event)
    if dropped is None:
        return
    record: dict[str, Any] = {
        "type": "log",
        "ts": time.time(),
        "level": _LEVEL_NAMES.get(value, level),
        "event": event,
    }
    trace = _context.current()
    if trace is not None:
        record["trace"] = trace.trace_id
    span = _core.current_span_id()
    if span:
        record["span"] = span
    if dropped:
        record["dropped"] = dropped
    record.update(fields)
    _ring.append(record)
    if _file_fd is not None:
        _emit_raw(record)


def debug(event: str, **fields: Any) -> None:
    log("debug", event, **fields)


def info(event: str, **fields: Any) -> None:
    log("info", event, **fields)


def warning(event: str, **fields: Any) -> None:
    log("warning", event, **fields)


def error(event: str, **fields: Any) -> None:
    log("error", event, **fields)


def _throttle(event: str) -> int | None:
    """Token accounting per event name per wall second.

    Returns None when this record must be dropped, else the number of
    records of this event dropped since the last one that got through
    (attached to the record so suppression is visible).
    """
    now = int(time.time())
    bucket = _buckets.get(event)
    if bucket is None:
        _buckets[event] = [now, 1, 0]
        return 0
    if bucket[0] != now:
        bucket[0] = now
        bucket[1] = 1
        dropped, bucket[2] = bucket[2], 0
        return dropped
    if bucket[1] >= RATE_LIMIT:
        bucket[2] += 1
        return None
    bucket[1] += 1
    dropped, bucket[2] = bucket[2], 0
    return dropped


def _emit_raw(record: dict) -> None:
    """Append one whole line to the file sink.

    A single ``os.write`` of a complete line on an ``O_APPEND``
    descriptor is atomic for reasonable line lengths on POSIX, so
    forked workers sharing the sink never interleave partial lines.
    The lock serializes threads within this process.
    """
    fd = _file_fd
    if fd is None:
        return
    data = (json.dumps(record, default=str) + "\n").encode()
    try:
        with _write_lock:
            os.write(fd, data)
    except OSError:
        pass  # a full disk must never fail the computation being logged


# ---------------------------------------------------------------------------
# the slow-query hook (installed on the core span-close path)
# ---------------------------------------------------------------------------

def _observe_span(event: dict) -> None:
    """Core calls this with every closed span's event dict.

    Hot path: every span closing in the process funnels through here
    while the slow-query hook is armed, so the fast-exit compare comes
    first and reads the event dict directly (core always populates
    ``dur_s``/``name``).
    """
    threshold = _slow_query_s
    if threshold is None or event["dur_s"] < threshold:
        return
    name = event.get("name", "")
    if not name.startswith(SLOW_QUERY_PREFIXES):
        return
    record_fields: dict[str, Any] = {
        "name": name,
        "dur_ms": round(1000.0 * event.get("dur_s", 0.0), 3),
        "span_id": event.get("id", 0),
    }
    attrs = event.get("attrs")
    if attrs:
        record_fields["attrs"] = dict(attrs)
    if event.get("error"):
        record_fields["error"] = event["error"]
    log("warning", "slow_query", **record_fields)


# ---------------------------------------------------------------------------
# reading the stream back
# ---------------------------------------------------------------------------

def records(*, event: str | None = None,
            trace: str | None = None) -> list[dict]:
    """A copy of the in-memory ring (oldest first), optionally filtered
    by event name and/or trace id."""
    out = list(_ring)
    if event is not None:
        out = [r for r in out if r.get("event") == event]
    if trace is not None:
        out = [r for r in out if r.get("trace") == trace]
    return out


def read_log(source: str | os.PathLike | TextIO) -> dict:
    """Parse a ``repro.log/1`` file back into its records.

    Returns ``{"schema", "records"}``.  A missing or foreign header
    fails loudly (format drift must not silently misparse); unparseable
    lines (a torn write from a crashed process) are skipped, matching
    the corruption tolerance of the cache store.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = list(source)
    parsed: list[dict] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            parsed.append(json.loads(line))
        except ValueError:
            continue
    if not parsed or parsed[0].get("type") != "header":
        raise ValueError("not a repro.log stream: missing header line")
    schema = parsed[0].get("schema")
    if schema != LOG_SCHEMA:
        raise ValueError(f"unsupported log schema {schema!r} "
                         f"(expected {LOG_SCHEMA})")
    return {
        "schema": schema,
        "records": [r for r in parsed[1:] if r.get("type") == "log"],
    }
