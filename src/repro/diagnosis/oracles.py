"""Oracles: sources of answers to invariant/witness queries.

The paper's oracle is a human programmer.  The reproduction provides:

* :class:`InteractiveOracle` — a human at a terminal;
* :class:`ScriptedOracle`   — a fixed answer sequence (tests, replays);
* :class:`ExhaustiveOracle` — ground truth by exhaustive execution over a
  bounded input box (used to calibrate the benchmark suite and as the
  truth source for the simulated user study);
* :class:`SamplingOracle`   — random testing: it can definitively answer
  "yes" to witness queries and "no" to invariant queries when it finds a
  concrete execution, and says "unknown" otherwise — exactly the
  Section 8 future-work idea of discharging witness queries dynamically;
* :class:`ChainOracle`      — try oracles in order until one is decisive.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .. import obs
from ..analysis import AnalysisResult
from ..lang.ast import Assign, BinOp, Block, Havoc, If, Program, While
from ..lang.interp import (
    ExecutionResult,
    HavocPolicy,
    Interpreter,
    OutOfFuel,
    records_product,
)
from ..logic.terms import Var
from .queries import Answer, Query


class Oracle:
    """Base class: maps queries to answers."""

    def answer(self, query: Query) -> Answer:
        raise NotImplementedError


class ScriptedOracle(Oracle):
    """Answers from a fixed sequence; exhausted -> ``default``."""

    def __init__(self, answers: Sequence[Answer | str],
                 default: Answer = Answer.UNKNOWN):
        self._answers = [
            a if isinstance(a, Answer) else Answer.parse(a) for a in answers
        ]
        self._default = default
        self._index = 0
        self.asked: list[Query] = []

    def answer(self, query: Query) -> Answer:
        self.asked.append(query)
        if self._index < len(self._answers):
            result = self._answers[self._index]
            self._index += 1
            return result
        return self._default


class FunctionOracle(Oracle):
    """Answers computed by a callback (used by the user-study simulator)."""

    def __init__(self, fn):
        self._fn = fn

    def answer(self, query: Query) -> Answer:
        return self._fn(query)


class InteractiveOracle(Oracle):
    """Asks a human on stdin/stdout."""

    def __init__(self, input_fn=input, print_fn=print):
        self._input = input_fn
        self._print = print_fn

    def answer(self, query: Query) -> Answer:
        self._print()
        self._print(query.render())
        while True:
            try:
                raw = self._input("[yes/no/unknown] > ")
            except EOFError:
                return Answer.UNKNOWN
            try:
                return Answer.parse(raw)
            except ValueError:
                self._print("please answer yes, no, or unknown")


class ChainOracle(Oracle):
    """Tries each oracle in turn; first non-UNKNOWN answer wins."""

    def __init__(self, oracles: Sequence[Oracle]):
        self._oracles = list(oracles)

    def answer(self, query: Query) -> Answer:
        for oracle in self._oracles:
            result = oracle.answer(query)
            if result is not Answer.UNKNOWN:
                return result
        return Answer.UNKNOWN


# ---------------------------------------------------------------------------
# execution-backed oracles
# ---------------------------------------------------------------------------

class _ExecutionEvaluator:
    """Evaluates query formulas against concrete executions.

    Analysis variables are bound from an instrumented run: inputs from
    the run's inputs, loop abstractions from the loop's last exit
    environment, havoc/product abstractions from recorded site values.
    An execution that never reaches a referenced site does not bind the
    query (such runs are skipped).
    """

    def __init__(self, analysis: AnalysisResult):
        # where each analysis variable is read from, worked out once
        self._inputs = tuple(
            (nu, name) for name, nu in analysis.input_vars.items())
        self._loops: list[tuple[Var, int, str | None]] = []
        self._sites: list[tuple[Var, int]] = []
        for v, info in analysis.info.items():
            if info.kind == "loop":
                self._loops.append((v, info.label or -1, info.program_var))
            elif info.kind != "input" and info.span is not None:
                self._sites.append((v, info.span.start))  # havoc / mul

    def bind(self, inputs: dict[str, int],
             run: ExecutionResult) -> dict[Var, int]:
        env = {nu: inputs[name] for nu, name in self._inputs}
        loop_exits = run.loop_exit_envs
        for v, label, program_var in self._loops:
            exits = loop_exits.get(label)
            if exits:
                env[v] = exits[-1][program_var]
        sites = run.site_values
        for v, at in self._sites:
            value = sites.get(at)
            if value is not None:
                env[v] = value
        return env

    def sources(self, program: Program) -> dict[Var, frozenset[str]]:
        """The sources (see :func:`_dependences`) of every analysis
        variable whose loop exit or site the program records."""
        exits, sites = _dependences(program)
        table = {nu: frozenset([name]) for nu, name in self._inputs}
        table.update((v, exits[label, name]) for v, label, name
                     in self._loops if (label, name) in exits)
        table.update((v, sites[at]) for v, at in self._sites if at in sites)
        return table

    def holds(self, query: Query, env: dict[Var, int]) -> bool | None:
        """Whether the query formula holds on this execution; ``None`` if
        the execution does not bind every variable the query mentions."""
        formula = query.formula
        if not formula.free_vars() <= env.keys():
            return None
        return formula.evaluate(env)


#: the source standing for the havoc RNG stream (no variable's name)
_STREAM = "$stream"


def _recorded_products(node) -> Iterator[BinOp]:
    """The product sites of an expression or predicate."""
    if records_product(node):
        yield node
    for child in node.children():
        yield from _recorded_products(child)


def _dependences(program: Program) -> tuple[dict, dict]:
    """Forward data- and control-dependence: ``(exits, sites)`` map
    ``(loop label, variable)`` and the offset of a havoc or product site
    to the sources (parameters and ``_STREAM``) that the last recorded
    value, and whether there is one, can depend on in a run that
    completes.  What runs under a branch or loop also depends on what
    its conditions read (``pc``)."""
    empty: frozenset[str] = frozenset()
    exits: dict[tuple[int, str], frozenset[str]] = {}
    sites: dict[int, frozenset[str]] = {}

    def reads(names, env):
        return empty.union(*[env.get(name, empty) for name in names])

    def note(table, key, deps):
        table[key] = table.get(key, empty) | deps

    def predicate(pred, env, pc):
        # && and || decide whether a product runs
        inner = pc | reads(pred.variables(), env)
        for product in _recorded_products(pred):
            note(sites, product.span.start, inner)
        return inner

    def run(stmt, env, pc):
        """Carry ``env`` (variable -> sources) over ``stmt`` in place."""
        if isinstance(stmt, Assign):
            for product in _recorded_products(stmt.value):
                note(sites, product.span.start,
                     pc | reads(product.variables(), env))
            env[stmt.target] = pc | reads(stmt.value.variables(), env)
        elif isinstance(stmt, Havoc):
            # the assumption's other variables decide how many draws the
            # site takes from the stream, so later sites see them too
            others = stmt.assume.variables() - {stmt.target} \
                if stmt.assume is not None else ()
            deps = pc | env[_STREAM] | reads(others, env)
            env[stmt.target] = env[_STREAM] = deps
            note(sites, stmt.span.start, deps)
        elif isinstance(stmt, Block):
            for sub in stmt.body:
                run(sub, env, pc)
        elif isinstance(stmt, If):
            inner = predicate(stmt.cond, env, pc)
            other = dict(env)
            run(stmt.then_branch, env, inner)
            run(stmt.else_branch, other, inner)
            for name, deps in other.items():
                note(env, name, deps)
        elif isinstance(stmt, While):
            while True:  # to a fixpoint
                inner = predicate(stmt.cond, env, pc)
                after = dict(env)
                run(stmt.body, after, inner)
                if all(deps <= env.get(name, empty)
                       for name, deps in after.items()):
                    break
                for name, deps in after.items():
                    note(env, name, deps)
            for name, deps in env.items():
                note(exits, (stmt.label, name), deps | inner)

    env = {name: frozenset([name]) for name in program.param_names()}
    env.update(dict.fromkeys(program.locals, empty))
    env[_STREAM] = frozenset([_STREAM])
    run(program.body, env, empty)
    predicate(program.check.pred, env, empty)
    return exits, sites


def _input_space(program: Program, radius: int,
                 pinned: frozenset[str] = frozenset()
                 ) -> Iterable[dict[str, int]]:
    """All input vectors in the box (unsigned params clipped at 0), with
    the parameters in ``pinned`` held at 0."""
    ranges = []
    for param in program.params:
        low = 0 if param.unsigned else -radius
        ranges.append((0,) if param.name in pinned
                      else range(low, radius + 1))
    for combo in itertools.product(*ranges):
        yield dict(zip((p.name for p in program.params), combo))


class ExhaustiveOracle(Oracle):
    """Ground truth by exhaustive execution over a bounded input box.

    Within the box the answers are exact; the benchmark suite is
    calibrated so that box-exhaustive answers coincide with the true
    (unbounded) answers.  Programs with havocs are run ``havoc_rounds``
    times per input with different seeds.

    A query runs only its *slice*, the sources its variables depend on
    (:func:`_dependences`; the whole box for a variable with no entry):
    other parameters are pinned to 0, and the seeds past 0 run only for
    a slice holding the stream.  The answer is the full box's, since it
    depends only on the value tuples of the query's variables over the
    runs binding them all, and on a run that completes these do not
    depend on the pinned sources.  A slice with a run out of fuel is
    answered from the full box: a pinned value that diverges could hide
    tuples.  Bindings are memoized per slice.  Other errors propagate,
    but a slice may never reach an input whose ``@assume`` is
    unsatisfiable, where the full box raises ``AnalysisError``.
    """

    def __init__(self, program: Program, analysis: AnalysisResult,
                 *, radius: int = 6, havoc_rounds: int = 8,
                 fuel: int = 100_000):
        self._program = program
        self._analysis = analysis
        self._radius = radius
        self._havoc_rounds = havoc_rounds
        self._fuel = fuel
        self._evaluator = _ExecutionEvaluator(analysis)
        self._sources: dict[Var, frozenset[str]] | None = None
        self._slices: dict[frozenset[str], list[dict[Var, int]]] = {}
        self._rng: random.Random | None = None
        self._interp: Interpreter | None = None

    @cached_property
    def _box(self) -> frozenset[str]:
        """Every source: the slice that is the full box."""
        havoc = any(isinstance(s, Havoc) for s in self._program.body.walk())
        return frozenset(self._program.param_names()) | (
            {_STREAM} if havoc else set())

    def _slice(self, variables: Iterable[Var]) -> frozenset[str]:
        """The sources the analysis variables depend on; the full box
        when one of them has no entry."""
        if self._sources is None:
            self._sources = self._evaluator.sources(self._program)
        sources: frozenset[str] = frozenset()
        for v in variables:
            if v not in self._sources:
                return self._box
            sources |= self._sources[v]
        return sources

    def _bound(self, sources: frozenset[str] | None = None
               ) -> list[dict[Var, int]]:
        """The analysis-variable bindings of the runs of a slice (by
        default the full box), each bound once, right after its run.
        The full box skips runs that run out of fuel; any other slice
        with such a run is answered from the full box."""
        sources = self._box if sources is None else sources
        if sources in self._slices:
            return self._slices[sources]
        if self._interp is None:
            # one interpreter compiles the program once for every slice;
            # re-seeding its RNG gives each round Random(seed)'s stream
            self._rng = random.Random()
            self._interp = Interpreter(fuel=self._fuel,
                                       havoc_policy=HavocPolicy(self._rng))
        pinned = self._box - sources
        seeds = range(self._havoc_rounds if _STREAM in self._box else 1)
        if _STREAM not in sources:
            seeds = seeds[:1]
        envs: list[dict[Var, int]] = []
        runs = 0
        bind, rng = self._evaluator.bind, self._rng
        for inputs in _input_space(self._program, self._radius, pinned):
            for seed in seeds:
                rng.seed(seed)
                runs += 1
                try:
                    run = self._interp.run(self._program, inputs)
                except OutOfFuel:
                    if not pinned:
                        continue
                    obs.inc("oracle.executions", runs)
                    envs = self._slices[sources] = self._bound()
                    return envs
                envs.append(bind(inputs, run))
        obs.inc("oracle.executions", runs)
        self._slices[sources] = envs
        return envs

    def answer(self, query: Query) -> Answer:
        # a holding run decides a witness query, a violating run an
        # invariant query
        witness = query.kind == "witness"
        for env in self._bound(self._slice(query.formula.free_vars())):
            if self._evaluator.holds(query, env) == witness:
                return Answer.YES if witness else Answer.NO
        return Answer.NO if witness else Answer.YES


class SamplingOracle(Oracle):
    """Random testing: decisive only in the existential direction.

    Finds witnesses ("yes" to witness queries, "no" to invariant queries)
    by running the program on random inputs; in the absence of a witness
    it answers "unknown" — it cannot prove universal facts.
    """

    def __init__(self, program: Program, analysis: AnalysisResult,
                 *, samples: int = 400, radius: int = 50,
                 rng: random.Random | None = None, fuel: int = 100_000):
        self._program = program
        self._analysis = analysis
        self._samples = samples
        self._radius = radius
        self._rng = rng or random.Random(12345)
        self._evaluator = _ExecutionEvaluator(analysis)
        # one interpreter for every sample; re-seeding its policy's RNG
        # gives each sample the stream of Random(seed)
        self._havoc_rng = random.Random()
        self._interp = Interpreter(fuel=fuel,
                                   havoc_policy=HavocPolicy(self._havoc_rng))

    def _random_inputs(self) -> dict[str, int]:
        inputs = {}
        for param in self._program.params:
            low = 0 if param.unsigned else -self._radius
            # mix small values (where corner cases live) with larger ones
            if self._rng.random() < 0.6:
                value = self._rng.randint(max(low, -6), 6)
            else:
                value = self._rng.randint(low, self._radius)
            inputs[param.name] = max(value, 0) if param.unsigned else value
        return inputs

    def answer(self, query: Query) -> Answer:
        for _ in range(self._samples):
            inputs = self._random_inputs()
            self._havoc_rng.seed(self._rng.getrandbits(32))
            try:
                run = self._interp.run(self._program, inputs)
            except OutOfFuel:
                continue
            env = self._evaluator.bind(inputs, run)
            holds = self._evaluator.holds(query, env)
            if holds is None:
                continue
            if query.kind == "witness" and holds:
                return Answer.YES
            if query.kind == "invariant" and not holds:
                return Answer.NO
        return Answer.UNKNOWN
