"""A persistent, content-addressed artifact store.

Every entry is one JSON file at ``root/<format-version>/<stage>/<k>.json``,
where ``k`` is a content digest (see :mod:`repro.logic.digest`) of
everything the artifact is a pure function of.  One flat directory per
stage: a store capped at ``max_entries`` (8,192 by default) does not
need a fan-out level, and creating one directory per key prefix cost
as much as the entry write itself.  Properties the rest of the system
relies on:

* **versioned keys** — the store format version and the digest scheme
  version are both part of the path, so either can be bumped without
  serving stale artifacts to new code (an older layout, such as the
  ``v1-dg1`` fan-out tree, is ignored and can be deleted);
* **corruption tolerance** — a truncated, garbled or non-JSON entry
  reads as a *miss* (and is deleted), never as an exception: a cache
  must not be able to break a triage run;
* **concurrency tolerance** — writes are atomic (temp file + rename), so
  the batch driver's forked workers can share one store; duplicate
  writes of the same key are idempotent by construction (same content
  address, same content);
* **LRU eviction** — reads refresh an entry's mtime and eviction drops
  the oldest entries once the store exceeds ``max_entries``, so a
  long-lived cache directory stays bounded.  An ``flock`` on
  ``<format-version>/.lock`` keeps eviction from unlinking a peer's
  write: renames hold it shared, an eviction holds it exclusive.

The store keeps no counts of its own: each operation (hit, miss, put,
eviction, corrupt drop) is counted per stage by the :func:`counting`
block open in the caller's context, which is how a report accounts
its own operations whichever process or thread ran it, and streams
into :mod:`repro.obs` as ``cache.store.*`` / ``cache.<stage>.*``.  When
structured logging is on at ``debug`` level, every get/put additionally
emits one ``cache.op`` record carrying the stage, outcome and the
caller's trace context — the per-operation view the aggregate counters
can't give.
"""

from __future__ import annotations

import fcntl
import json
import os
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Iterator, Mapping

from .. import obs
from ..obs import logging as olog
from ..logic.digest import DIGEST_VERSION

__all__ = ["CacheStore", "STORE_VERSION", "count_block", "counting"]

#: Store layout version; part of every entry path.
STORE_VERSION = "v2"

#: The operations :func:`counting` counts, per stage.
_OPERATIONS = ("hits", "misses", "puts", "evictions", "corrupt")

#: The counts of the innermost :func:`counting` block in this context.
_tally: ContextVar[dict[str, Counter] | None] = ContextVar(
    "repro.tally", default=None)


@contextmanager
def counting() -> Iterator[dict[str, Counter]]:
    """Count this context's store operations in the block, per stage
    (``{stage: Counter(hits=..., misses=..., ...)}``): no other
    thread's, and the only count the store keeps."""
    counts: dict[str, Counter] = {}
    token = _tally.set(counts)
    try:
        yield counts
    finally:
        _tally.reset(token)


def count_block(*tallies: Mapping[str, Mapping[str, int]]) -> dict:
    """Per-stage counts, summed over ``tallies``, as plain data: each
    operation's total, then ``stages`` with every operation listed for
    every stage."""
    totals = dict.fromkeys(_OPERATIONS, 0)
    per: dict[str, dict[str, int]] = {}
    for stages in tallies:
        for stage, counts in stages.items():
            row = per.get(stage)
            if row is None:
                row = per[stage] = dict.fromkeys(_OPERATIONS, 0)
            for op in _OPERATIONS:
                n = counts.get(op, 0)
                row[op] += n
                totals[op] += n
    return {**totals, "stages": dict(sorted(per.items()))}


class CacheStore:
    """A small on-disk content-addressed store of JSON artifacts."""

    def __init__(self, root: str | os.PathLike,
                 *, max_entries: int = 8_192):
        self.root = Path(root)
        self._base = self.root / f"{STORE_VERSION}-{DIGEST_VERSION}"
        self._base.mkdir(parents=True, exist_ok=True)
        self._lock_path = self._base / ".lock"
        self.max_entries = max_entries
        # entry count is maintained incrementally and re-synced from a
        # directory scan whenever eviction runs
        self._entries = sum(1 for _ in self._iter_entries())

    # ------------------------------------------------------------------
    def _path(self, stage: str, key: str) -> Path:
        return self._base / stage / f"{key}.json"

    def _iter_entries(self) -> Iterator[Path]:
        yield from self._base.glob("*/*.json")

    @contextmanager
    def _locked(self, operation: int) -> Iterator[None]:
        """Hold the root's ``flock`` (``LOCK_SH`` or ``LOCK_EX``).

        The lock file is opened per operation, never kept: a kept
        descriptor would leak one fd per memoized store, and a forked
        child would share its open file description with the parent,
        so their locks would not exclude each other."""
        with open(self._lock_path, "ab", buffering=0) as lock:
            fcntl.flock(lock, operation)
            yield  # closing the file releases the lock

    def _count(self, stage: str, event: str,
               key: str | None = None) -> None:
        tally = _tally.get()
        if tally is not None:
            tally.setdefault(stage, Counter())[event] += 1
        short = {"hits": "hit", "misses": "miss", "puts": "put",
                 "evictions": "eviction", "corrupt": "corrupt"}[event]
        obs.inc(f"cache.store.{short}")
        obs.inc(f"cache.{stage}.{short}")
        if olog.is_enabled("debug"):
            olog.debug("cache.op", op=short, stage=stage,
                       key=(key or "")[:12])

    # ------------------------------------------------------------------
    def get(self, stage: str, key: str) -> dict | None:
        """The artifact stored under ``stage/key``, or None.

        Any read problem — missing file, partial write from a crashed
        process, hand-edited garbage — is a miss; undecodable entries
        are deleted so they cannot poison later runs.
        """
        path = self._path(stage, key)
        try:
            data = path.read_bytes()
        except OSError:
            self._count(stage, "misses", key)
            return None
        try:
            artifact = json.loads(data)
            if not isinstance(artifact, dict):
                raise ValueError("artifact is not an object")
        except (ValueError, UnicodeDecodeError):
            self._count(stage, "corrupt", key)
            self._count(stage, "misses", key)
            try:
                path.unlink()
                self._entries = max(0, self._entries - 1)
            except OSError:
                pass
            return None
        self._count(stage, "hits", key)
        try:
            os.utime(path)  # refresh recency for LRU eviction
        except OSError:
            pass
        return artifact

    def put(self, stage: str, key: str, artifact: dict) -> None:
        """Store ``artifact`` under ``stage/key`` (atomic, best-effort).

        A full disk or permission problem is swallowed: failing to cache
        must never fail the computation that produced the artifact.
        """
        path = self._path(stage, key)
        try:
            fresh = not path.exists()
            try:
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            except FileNotFoundError:
                # the stage's first write, or its directory was removed
                # under this live store: (re)create it once and retry
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(artifact, handle, separators=(",", ":"))
                with self._locked(fcntl.LOCK_SH):
                    # stamp recency at the rename, not at the write: a
                    # put that waited for the lock must not land looking
                    # older than the entries peers wrote meanwhile
                    os.utime(tmp)
                    os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return
        self._count(stage, "puts", key)
        if fresh:
            self._entries += 1
            if self._entries > self.max_entries:
                self._evict()

    @staticmethod
    def _mtime(path: Path) -> float:
        """Sort key tolerant of a concurrent unlink between the scan and
        the stat (another store sharing this root may be evicting too)."""
        try:
            return path.stat().st_mtime
        except OSError:
            return 0.0

    def _evict(self) -> None:
        """Drop oldest entries down to 90% of capacity (re-scans, so the
        incremental count is also corrected for concurrent writers).

        Safe under shared roots: the scan and the unlinks run under the
        exclusive lock that every ``put`` holds shared around its
        rename, so no peer's write can land between a victim's check
        and its unlink: a fresh write is only dropped once it really is
        among the oldest entries (``tests/test_cache.py`` exercises this
        under threads).  An entry a peer's read refreshed after the scan
        began is spared."""
        try:
            with self._locked(fcntl.LOCK_EX):
                scan_start = time.time()
                entries = sorted(self._iter_entries(), key=self._mtime)
                self._entries = len(entries)
                target = max(1, (self.max_entries * 9) // 10)
                for path in entries[: max(0, self._entries - target)]:
                    try:
                        if path.stat().st_mtime >= scan_start:
                            continue  # refreshed by a peer: spare it
                        path.unlink()
                    except OSError:
                        continue
                    self._entries -= 1
                    self._count(path.parent.name, "evictions")
        except OSError:
            pass  # the store's directory was removed under it

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The store's location, entry count and capacity."""
        return {
            "path": str(self.root),
            "entries": self._entries,
            "max_entries": self.max_entries,
        }

    def clear(self) -> None:
        """Delete every entry (the layout directories stay)."""
        for path in list(self._iter_entries()):
            try:
                path.unlink()
            except OSError:
                pass
        self._entries = 0
