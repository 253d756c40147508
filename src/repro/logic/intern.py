"""Hash-consing (interning) support for terms and formulas.

Every term and formula node is interned at construction: structurally
equal nodes built anywhere in the process are the *same* object.  This
makes equality an identity check on the hot paths (memo tables in the
SMT encoder, DNF clause sets, the solver stack's memos), lets every node
carry its hash as a precomputed field, and lets the solver stack memoize
on the nodes themselves.

Interning is an optimization, never a semantic requirement: structural
``__eq__``/``__hash__`` remain correct for nodes that escape the tables
(table overflow, unpickled objects from other processes), so the tables
may be capped or cleared at any time.

Each node class registers its table here so that operational tooling —
the batch driver, the benchmarks, long-running services — can observe
and bound memory:

* :func:`intern_stats` returns the live entry count per table;
* :func:`clear_intern_tables` empties every table (existing nodes stay
  valid; future constructions simply re-intern).

The solver stack's memos are :class:`Memo` instances, registered here
too, so the same valve drops them with the nodes they key on;
:func:`clear_memos` empties the memos alone.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Protocol, TypeVar

# Per-table cap: beyond this many distinct nodes of one class, new nodes
# are constructed without being recorded (correctness is unaffected).
INTERN_LIMIT = 1_000_000


class _Table(Protocol):
    def __len__(self) -> int: ...
    def clear(self) -> None: ...


_T = TypeVar("_T", bound=_Table)

_TABLES: Dict[str, _Table] = {}

#: What :meth:`Memo.get` returns for an absent key (a stored ``None``,
#: Omega's UNSAT, is a value).
MISSING: Any = object()


def register_table(name: str, table: _T) -> _T:
    """Register a table (or :class:`Memo`) for stats/clearing; returns it."""
    _TABLES[name] = table
    return table


def intern_stats() -> dict[str, int]:
    """Live entry count of every intern table, keyed by class name."""
    return {name: len(table) for name, table in sorted(_TABLES.items())}


def clear_intern_tables() -> None:
    """Drop all interned nodes (a memory valve for long-running processes)."""
    for table in _TABLES.values():
        table.clear()


class Memo:
    """A bounded LRU over values that are pure functions of their key.

    Keys are hash-consed nodes, or tuples and frozensets of them, so a
    lookup hashes a precomputed field and compares by identity.  One
    instance serves every caller and thread of the process; a value is
    shared by all of them, so no caller may mutate one.

    Every operation holds the memo's lock.  The table is an
    ``OrderedDict``, and its C implementation can crash the interpreter
    when a peer thread changes it while it runs a key's Python-level
    ``__hash__`` or ``__eq__``.
    """

    __slots__ = ("limit", "_table", "_lock")

    def __init__(self, name: str, limit: int):
        self.limit = limit
        self._table: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        register_table(name, self)

    def get(self, key: Hashable) -> Any:
        """The value stored under ``key``, or :data:`MISSING`."""
        with self._lock:
            value = self._table.get(key, MISSING)
            if value is not MISSING:
                self._table.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value``, evicting the least recently used past the limit."""
        with self._lock:
            self._table[key] = value
            if len(self._table) > self.limit:
                self._table.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._table.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._table)


def clear_memos() -> None:
    """Empty every :class:`Memo` (SMT verdicts, Omega models and QE's
    eliminations and clause verdicts)."""
    for table in _TABLES.values():
        if isinstance(table, Memo):
            table.clear()
