"""Persistent content-addressed caching for the staged triage pipeline.

The in-process speedups — hash-consing, QE memo tables, the SMT
verdict LRU — are all process-lifetime, so nothing survives a restart
and nothing is shared between the batch driver's workers beyond
fork-time state.  This package turns the ones a later run reads back into
cross-run, cross-worker wins:

* :class:`CacheStore` (:mod:`repro.cache.store`) is a small on-disk
  store mapping ``stage/content-digest`` to a JSON artifact, with
  versioned keys, LRU eviction and corruption-tolerant reads;
* the *active store* (:func:`use_store` / :func:`current_store`) is how
  the solver stack finds it: the SMT verdict cache consults the active
  store on a memory miss, and the diagnosis engine's stage functions
  (:mod:`repro.diagnosis.stages`) persist whole stage artifacts through
  it.  QE memos stay in-process: a warm run replays stage artifacts and
  never reaches QE, so persisting them only cost writes.

Opening a store is idempotent per path (:func:`open_store` memoizes), so
the batch driver and its forked workers can all "open" the same
directory cheaply.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator

from .store import STORE_VERSION, CacheStore

__all__ = [
    "CacheStore",
    "STORE_VERSION",
    "current_store",
    "open_store",
    "set_store",
    "use_store",
    "use_store_here",
]

_active: CacheStore | None = None
_opened: dict[str, CacheStore] = {}

# Thread-local store overrides.  ``use_store`` swaps the process-global
# slot, which is not reentrant across threads: two concurrent ``repro
# serve`` worker threads interleaving their enter/exit would restore
# each other's stores into the global.  Thread-scoped attempts therefore
# bind via ``use_store_here``; the install counter keeps the ubiquitous
# ``current_store`` call a global load plus a falsy check while no
# thread-local binding is live.
_tl = threading.local()
_tl_installs = 0
_tl_lock = threading.Lock()


def open_store(root: str | os.PathLike,
               *, max_entries: int = 8_192) -> CacheStore:
    """Open (and memoize per path) the store rooted at ``root``."""
    key = os.path.abspath(os.fspath(root))
    store = _opened.get(key)
    if store is None or store.max_entries != max_entries:
        store = CacheStore(key, max_entries=max_entries)
        _opened[key] = store
    return store


def current_store() -> CacheStore | None:
    """The active store (None when caching is off).  A thread-local
    :func:`use_store_here` binding shadows the process-wide slot."""
    if _tl_installs:
        store = getattr(_tl, "store", None)
        if store is not None:
            return store
    return _active


def set_store(store: CacheStore | None) -> CacheStore | None:
    """Install ``store`` as the active store; returns the previous one."""
    global _active
    previous = _active
    _active = store
    return previous


@contextmanager
def use_store(store: CacheStore | None) -> Iterator[CacheStore | None]:
    """Scope the active store to a ``with`` block (process-wide)."""
    previous = set_store(store)
    try:
        yield store
    finally:
        set_store(previous)


@contextmanager
def use_store_here(store: CacheStore | None
                   ) -> Iterator[CacheStore | None]:
    """Scope the active store to a ``with`` block on *this thread* only.

    Other threads keep seeing the process-global store.  Used wherever
    a triage attempt runs on a ``repro serve`` worker thread sharing
    its process with concurrent attempts: the global slot of
    :func:`use_store` is not reentrant across threads.  Binding
    ``None`` does not mask the global — it is a no-op scope.
    """
    global _tl_installs
    previous = getattr(_tl, "store", None)
    with _tl_lock:
        _tl_installs += 1
    _tl.store = store
    try:
        yield store
    finally:
        _tl.store = previous
        with _tl_lock:
            _tl_installs -= 1
