"""The ground-truth oracle answers each query from the runs of its slice.

``ExhaustiveOracle`` runs only the parameters a query's variables depend
on (all others pinned to 0) and the havoc seeds only when the havoc
stream is among them.  These tests check that the value tuples the
slice binds equal the full box's, on generated programs and on every
Figure-7 query, and pin how many runs a Figure-7 pass makes.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter

import pytest

from repro.analysis import analyze_program
from repro.batch import triage_many
from repro.diagnosis import ExhaustiveOracle, FunctionOracle, diagnose_error
from repro.lang import parse_program
from repro.suite import BENCHMARKS, DIAGNOSTICS, load_analysis

from .strategies import random_program

#: runs per Figure-7 report; the full box is 5,558 runs in all
FIGURE7_EXECUTIONS = {
    "p01_accumulate": 20,
    "p02_wordcount": 48,
    "p03_square": 104,
    "p04_options": 6,
    "p05_strlcpy": 222,
    "p06_chroot": 48,
    "p07_rotate": 45,
    "p08_alternate": 36,
    "p09_window": 7,
    "p10_toggle": 7,
    "p11_transfer": 7,
}


def project(envs, variables) -> set[tuple]:
    """The value tuples of ``variables`` over the runs binding them all."""
    order = sorted(variables, key=str)
    get, need = itemgetter(*order), set(order)
    return {get(env) for env in envs if need <= env.keys()}


def assert_slices_equal_box(oracle: ExhaustiveOracle, variable_sets):
    """Each variable set projects the same from its slice as from the
    full box."""
    for vs in variable_sets:
        s = oracle._slice(vs)
        assert project(oracle._bound(s), vs) == \
            project(oracle._bound(), vs), (sorted(map(str, vs)), sorted(s))


@pytest.mark.parametrize("seed", range(40))
def test_slices_equal_the_full_box_on_generated_programs(seed):
    source = random_program(seed)
    program = parse_program(source)
    analysis = analyze_program(program)
    oracle = ExhaustiveOracle(program, analysis, radius=3, havoc_rounds=4,
                              fuel=3_000)
    variables = sorted(analysis.info, key=str)
    assert_slices_equal_box(
        oracle,
        [frozenset([v]) for v in variables]
        + [frozenset(pair) for pair in combinations(variables, 2)])


def test_generated_programs_cover_the_slicing_rules():
    """The generator keeps producing what the slicing rules are about."""
    sources = [random_program(seed) for seed in range(40)]
    assert all(len(p.params) >= 3 and any(q.unsigned for q in p.params)
               for p in map(parse_program, sources))

    def share(*texts):
        return sum(any(t in s for t in texts) for s in sources)

    assert share("@assume") >= 30
    assert share("    if (", "    while (") >= 20       # nested
    assert share(" != 0 && ", " == 0 || ") >= 20       # short-circuits at 0
    assert share("while (k != 0)") >= 8                # diverges at 0


def test_figure7_queries_project_as_the_full_box():
    """Every query the Figure-7 triage (and the screening problems) asks:
    the runs that answered it bind the same value tuples of its
    variables as the full box."""
    asked = 0
    for bench in BENCHMARKS + DIAGNOSTICS:
        program, analysis = load_analysis(bench)
        oracle = ExhaustiveOracle(program, analysis,
                                  radius=bench.oracle_radius)
        queries = []

        def ask(query, oracle=oracle, queries=queries):
            queries.append(query)
            return oracle.answer(query)

        diagnose_error(analysis, FunctionOracle(ask))
        box = ExhaustiveOracle(program, analysis,
                               radius=bench.oracle_radius)._bound()
        for query in queries:
            variables = query.formula.free_vars()
            used = oracle._bound(oracle._slice(variables))
            assert project(used, variables) == project(box, variables), \
                (bench.name, str(query.formula))
        asked += len(queries)
    assert asked == 20  # 19 Figure-7 queries and d02's one


def test_figure7_oracle_executions_are_pinned(live_counters):
    """The ``oracle.executions`` counter of each report: a slice that
    silently fell back to the full box would show here."""
    result = triage_many([b.name for b in BENCHMARKS], jobs=1)
    counts = {o.name: o.telemetry["counters"]["oracle.executions"]
              for o in result.outcomes}
    assert counts == FIGURE7_EXECUTIONS
    assert sum(counts.values()) == 550
