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
from typing import Iterable, Sequence

from ..analysis import AnalysisResult
from ..lang.ast import Havoc, Program
from ..lang.interp import ExecutionResult, HavocPolicy, Interpreter, OutOfFuel
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

    def holds(self, query: Query, env: dict[Var, int]) -> bool | None:
        """Whether the query formula holds on this execution; ``None`` if
        the execution does not bind every variable the query mentions."""
        formula = query.formula
        if not formula.free_vars() <= env.keys():
            return None
        return formula.evaluate(env)


def _input_space(program: Program, radius: int) -> Iterable[dict[str, int]]:
    """All input vectors in the box (unsigned params clipped at 0)."""
    ranges = []
    for param in program.params:
        low = 0 if param.unsigned else -radius
        ranges.append(range(low, radius + 1))
    for combo in itertools.product(*ranges):
        yield dict(zip((p.name for p in program.params), combo))


class ExhaustiveOracle(Oracle):
    """Ground truth by exhaustive execution over a bounded input box.

    Within the box the answers are exact; the benchmark suite is
    calibrated so that box-exhaustive answers coincide with the true
    (unbounded) answers.  Programs with havocs are run ``havoc_rounds``
    times per input with different seeds.
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
        self._envs: list[dict[Var, int]] | None = None

    def _bound(self) -> list[dict[Var, int]]:
        """The analysis-variable binding of every execution in the box
        (runs out of fuel are skipped), each bound once, right after its
        run."""
        if self._envs is None:
            self._envs = []
            bind = self._evaluator.bind
            has_havoc = any(
                isinstance(s, Havoc) for s in self._program.body.walk()
            )
            rounds = self._havoc_rounds if has_havoc else 1
            # one interpreter compiles the program once; re-seeding its
            # policy's RNG gives each round the stream of Random(seed)
            rng = random.Random()
            interp = Interpreter(fuel=self._fuel,
                                 havoc_policy=HavocPolicy(rng))
            for inputs in _input_space(self._program, self._radius):
                for seed in range(rounds):
                    if has_havoc:
                        rng.seed(seed)
                    try:
                        run = interp.run(self._program, inputs)
                    except OutOfFuel:
                        continue
                    self._envs.append(bind(inputs, run))
        return self._envs

    def answer(self, query: Query) -> Answer:
        # a holding run decides a witness query, a violating run an
        # invariant query
        witness = query.kind == "witness"
        for env in self._bound():
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
