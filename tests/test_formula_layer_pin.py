"""A pin of the formula layer's observable behaviour.

The corpus is ``I`` and ``phi`` of every shipped program and of 40
generated ones, plus, for each of them with free variables, an
``exists`` over its first free variable and a ``forall`` over its last
(variables sorted by name).  For every formula the pin hashes its
``str``, content digest, serialized object, concrete syntax, the
``str`` of its negation's NNF, its size, its free-variable names and,
when it is quantifier-free, its DNF and CNF clauses.  The golden was
computed before ``And``/``Or`` and ``Exists``/``Forall`` shared their
implementations; a refactor of the layer must leave it unchanged under
any hash seed (CI runs this file under two).
"""

from __future__ import annotations

import functools
import hashlib
import json
import pickle
from pathlib import Path

from repro.logic import (
    cnf_clauses,
    digest,
    dnf_clauses,
    exists,
    forall,
    formula_from_obj,
    formula_to_obj,
    is_quantifier_free,
    neg,
    nnf,
    to_source,
)
from repro.suite import front_end

from .strategies import random_program

PROGRAMS = Path(__file__).resolve().parent.parent / "src" / "repro" \
    / "suite" / "programs"

CORPUS_SIZE = 318
#: the DNF/CNF rows' clause limit; four formulas of the corpus exceed
#: it and hash a marker instead
CLAUSE_LIMIT = 20_000

PIN = "3a69d44995a1b04d70c306b9fcd063b0a25b12c80ac4947c3531ec0a6a2218e6"


@functools.lru_cache(maxsize=None)
def corpus() -> tuple:
    sources = [path.read_text() for path in sorted(PROGRAMS.glob("*.err"))]
    sources += [random_program(seed) for seed in range(40)]
    base = []
    for source in sources:
        _program, analysis = front_end(source)
        base += [analysis.invariants, analysis.success]
    quantified = []
    for f in base:
        free = sorted(f.free_vars(), key=lambda v: (v.name, v.kind.value))
        if free:
            quantified += [exists([free[0]], f), forall([free[-1]], f)]
    return tuple(base + quantified)


def clauses(convert, f) -> object:
    try:
        found = convert(f, limit=CLAUSE_LIMIT)
    except MemoryError:
        return "overflow"
    return [[str(lit) for lit in clause] for clause in found]


def rows(f) -> list:
    row = [
        str(f), digest(f), json.dumps(formula_to_obj(f), sort_keys=True),
        to_source(f), str(nnf(neg(f))), f.size(),
        sorted(v.name for v in f.free_vars()),
    ]
    if is_quantifier_free(f):
        row += [clauses(dnf_clauses, f), clauses(cnf_clauses, f)]
    return row


def test_formula_layer_matches_the_pin():
    assert len(corpus()) == CORPUS_SIZE
    blob = json.dumps([rows(f) for f in corpus()]).encode()
    assert hashlib.sha256(blob).hexdigest() == PIN


def test_serialization_and_pickling_return_the_node_itself():
    for f in corpus():
        assert formula_from_obj(formula_to_obj(f)) is f
        assert pickle.loads(pickle.dumps(f)) is f
