"""Persistent content-addressed caching for the staged triage pipeline.

The in-process speedups — hash-consing and the solver stack's memos —
are all process-lifetime, so nothing survives a restart and nothing is
shared between the batch driver's workers beyond fork-time state.  This
package turns the ones a later run reads back into cross-run,
cross-worker wins:

* :class:`CacheStore` (:mod:`repro.cache.store`) is a small on-disk
  store mapping ``stage/content-digest`` to a JSON artifact, with
  versioned keys, LRU eviction and corruption-tolerant reads;
* the report runner (:func:`repro.batch.outcomes.run_report`) passes
  its store, as an argument, to the three places that use it: the
  front end, whose analyzer's ``SmtSolver(store)`` persists its guard
  verdicts (``smt-sat``); the diagnosis engine, which hands it to its
  stage functions (:mod:`repro.diagnosis.stages`); and repair
  synthesis.  No store is bound in ambient state, so each report uses
  exactly the store its caller passed, on whichever thread it runs.
  The engine's and repair's own solver checks, and the QE memos, stay
  in-process: a warm run replays their stages whole and never reads
  them back.

Opening a store is idempotent per path (:func:`open_store` memoizes), so
the batch driver and its forked workers can all "open" the same
directory cheaply.
"""

from __future__ import annotations

import os

from .store import STORE_VERSION, CacheStore, count_block, counting

__all__ = [
    "CacheStore",
    "STORE_VERSION",
    "count_block",
    "counting",
    "open_store",
]

#: Open stores, keyed by absolute path (normalized, and as given).
_opened: dict[str | os.PathLike, CacheStore] = {}


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
