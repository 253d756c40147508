"""Pins of concrete-execution and loop-post semantics.

The goldens were captured from the tree-walking interpreter and the
always-re-closing zone domain.  Any speed-up of either layer must leave
them unchanged:

* one digest over every execution ``ExhaustiveOracle`` makes on the
  Figure-7 suite — inputs, seed, ``ok``, ``env``, ``steps``,
  ``havoc_values``, ``loop_exit_envs`` and ``site_values``, with runs
  skipped for running out of fuel recorded as such;
* the oracle's answers to every query Figure-7 triage asks;
* ``infer_loop_posts`` on every shipped ``.err`` program.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.abstract.annotate import infer_loop_posts
from repro.diagnosis import ExhaustiveOracle, FunctionOracle, diagnose_error
from repro.diagnosis.oracles import _input_space
from repro.lang import (
    Havoc,
    HavocPolicy,
    Interpreter,
    OutOfFuel,
    parse_program,
)
from repro.logic.formulas import And, Or
from repro.suite import BENCHMARKS, load_analysis

ROOT = Path(__file__).resolve().parent.parent
ERR_PROGRAMS = sorted(
    list((ROOT / "src" / "repro" / "suite" / "programs").glob("*.err"))
    + list((ROOT / "examples").glob("*.err"))
)

#: ``ExhaustiveOracle``'s defaults
HAVOC_ROUNDS = 8
FUEL = 100_000

ORACLE_RUNS = 5558
ORACLE_DIGEST = \
    "f31bbf2643bcbf8a422b721906df258192ab13245cbfc07dc5c5f2426aaeb5fa"

FIGURE7_ANSWERS = [list(a) for a in (
    ("p01_accumulate", "invariant", "n - 1 <= 0", "no"),
    ("p01_accumulate", "invariant", "-flag + 1 <= 0", "no"),
    ("p01_accumulate", "invariant", "n - z@loop2 - 1 <= 0", "yes"),
    ("p02_wordcount", "invariant", "lines@loop1 <= 0", "no"),
    ("p02_wordcount", "invariant", "-chars@loop1 + lines@loop1 <= 0",
     "yes"),
    ("p03_square", "invariant", "-mul_l23 <= 0", "yes"),
    ("p04_options", "witness", "argc - 1 <= 0", "yes"),
    ("p05_strlcpy", "invariant", "padded@loop2 <= 0", "no"),
    ("p05_strlcpy", "invariant", "cap = 0", "no"),
    ("p05_strlcpy", "invariant",
     "(-cap + padded@loop2 + 1 <= 0 | cap = 0)", "yes"),
    ("p06_chroot", "invariant", "-optind@loop1 + 1 <= 0", "yes"),
    ("p07_rotate", "invariant", "scanned@loop1 <= 0", "no"),
    ("p07_rotate", "invariant", "removed@loop1 - scanned@loop1 = 0", "no"),
    ("p08_alternate", "invariant", "odds@loop2 <= 0", "no"),
    ("p08_alternate", "invariant", "-evens@loop2 + odds@loop2 <= 0", "yes"),
    ("p09_window", "invariant", "written@loop1 <= 0", "no"),
    ("p09_window", "invariant", "-n + written@loop1 <= 0", "no"),
    ("p10_toggle", "invariant", "lamp@loop1 - 1 = 0", "no"),
    ("p11_transfer", "invariant", "drained@loop2 - moved@loop1 = 0", "no"),
)]

#: ``infer_loop_posts`` with the default domains, facts as source text
LOOP_POSTS = json.loads(
    (Path(__file__).parent / "data" / "loop_posts.json").read_text())


def oracle_records(bench) -> list:
    """Every execution the oracle makes on ``bench``, in the oracle's
    order; checks that the oracle binds exactly the runs that did not
    run out of fuel."""
    program, analysis = load_analysis(bench)
    oracle = ExhaustiveOracle(program, analysis, radius=bench.oracle_radius)
    has_havoc = any(isinstance(s, Havoc) for s in program.body.walk())
    rng = random.Random()
    interp = Interpreter(fuel=FUEL, havoc_policy=HavocPolicy(rng))
    records, kept = [], []
    for inputs in _input_space(program, bench.oracle_radius):
        for seed in range(HAVOC_ROUNDS if has_havoc else 1):
            rng.seed(seed)
            try:
                run = interp.run(program, inputs)
            except OutOfFuel:
                records.append([bench.name, inputs, seed, "out of fuel"])
                continue
            kept.append(oracle._evaluator.bind(inputs, run))
            records.append([
                bench.name, inputs, seed, run.ok, run.env, run.steps,
                run.havoc_values, run.loop_exit_envs, run.site_values,
            ])
    assert oracle._bound() == kept
    return records


def oracle_digest() -> tuple[int, str]:
    records = [r for bench in BENCHMARKS for r in oracle_records(bench)]
    blob = json.dumps(records, sort_keys=True).encode()
    return len(records), hashlib.sha256(blob).hexdigest()


def canonical(formula) -> str:
    """``str(formula)`` with the parts of every ``And``/``Or`` sorted: the
    order of parts depends on the normal-form caches' state."""
    if isinstance(formula, (And, Or)):
        sep = " & " if isinstance(formula, And) else " | "
        return "(" + sep.join(sorted(canonical(a) for a in formula.args)) + ")"
    return str(formula)


def figure7_answers() -> list[list[str]]:
    answers: list[list[str]] = []
    for bench in BENCHMARKS:
        program, analysis = load_analysis(bench)
        truth = ExhaustiveOracle(program, analysis,
                                 radius=bench.oracle_radius)

        def ask(query, truth=truth, name=bench.name):
            answer = truth.answer(query)
            answers.append([name, query.kind, canonical(query.formula),
                            answer.value])
            return answer

        diagnose_error(analysis, FunctionOracle(ask))
    return answers


def loop_posts() -> dict[str, dict[str, list[str]]]:
    return {
        path.name: {
            str(label): [str(fact) for fact in facts]
            for label, facts in sorted(
                infer_loop_posts(parse_program(path.read_text())).items())
        }
        for path in ERR_PROGRAMS
    }


def test_oracle_executions_digest():
    assert oracle_digest() == (ORACLE_RUNS, ORACLE_DIGEST)


def test_figure7_oracle_answers():
    assert figure7_answers() == FIGURE7_ANSWERS


def test_loop_posts_of_shipped_programs():
    assert len(ERR_PROGRAMS) == 15
    assert loop_posts() == LOOP_POSTS


if __name__ == "__main__":  # print fresh goldens
    print(oracle_digest())
    print(json.dumps(figure7_answers(), indent=1))
    print(json.dumps(loop_posts(), indent=1))
