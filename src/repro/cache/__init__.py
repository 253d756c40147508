"""Persistent content-addressed caching for the staged triage pipeline.

The in-process speedups — hash-consing and the solver stack's memos —
are all process-lifetime, so nothing survives a restart and nothing is
shared between the batch driver's workers beyond fork-time state.  This
package turns the ones a later run reads back into cross-run,
cross-worker wins:

* :class:`CacheStore` (:mod:`repro.cache.store`) is a small on-disk
  store mapping ``stage/content-digest`` to a JSON artifact, with
  versioned keys, LRU eviction and corruption-tolerant reads;
* the *active store* (:func:`use_store` / :func:`current_store`) is how
  the solver stack finds it: ``SmtSolver.is_sat`` consults the active
  store on a memo miss (the analyzer's guard checks and repair
  synthesis run under it), and the diagnosis engine hands it to its
  stage functions (:mod:`repro.diagnosis.stages`), which persist whole
  stage artifacts.  The engine runs its session under no active store:
  a warm run replays those stages whole, so the verdicts of the solver
  checks beneath them would never be read back.  The binding is per
  context, so concurrent ``repro serve`` worker threads each see only
  their own store.  QE memos stay in-process for the same reason: a
  warm run never reaches QE, so persisting them only cost writes.

Opening a store is idempotent per path (:func:`open_store` memoizes), so
the batch driver and its forked workers can all "open" the same
directory cheaply.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from .store import STORE_VERSION, CacheStore, count_block, counting

__all__ = [
    "CacheStore",
    "STORE_VERSION",
    "count_block",
    "counting",
    "current_store",
    "open_store",
    "use_store",
]

#: Open stores, keyed by absolute path (normalized, and as given).
_opened: dict[str | os.PathLike, CacheStore] = {}

#: The store of the innermost :func:`use_store` block in this context.
_store: ContextVar[CacheStore | None] = ContextVar(
    "repro.cache.store", default=None)


def open_store(root: str | os.PathLike) -> CacheStore:
    """Open (and memoize per directory) the store rooted at ``root``.

    An absolute ``root`` is also remembered as given, so reopening it is
    one dictionary lookup; a relative one is resolved on every call,
    because it names another directory once the working directory
    changes."""
    store = _opened.get(root)
    if store is None:
        key = os.path.abspath(os.fspath(root))
        store = _opened.get(key)
        if store is None:
            store = _opened[key] = CacheStore(key)
        if os.path.isabs(root):
            _opened[root] = store
    return store


def current_store() -> CacheStore | None:
    """The active store (None when caching is off)."""
    return _store.get()


@contextmanager
def use_store(store: CacheStore | None) -> Iterator[CacheStore | None]:
    """Scope the active store to a ``with`` block in this context.

    Other threads keep their own binding (a new thread starts with
    none); binding ``None`` turns caching off for the block.
    """
    token = _store.set(store)
    try:
        yield store
    finally:
        _store.reset(token)
