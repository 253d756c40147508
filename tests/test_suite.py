"""Tests for the Figure 7 benchmark suite.

These are the calibration guarantees the evaluation rests on:

* every benchmark parses, annotates and analyzes;
* the analysis initially reports a *potential* error on all eleven
  (neither Lemma 1 nor Lemma 2 applies), as the paper states;
* the metadata classification matches ground truth established by
  exhaustive concrete execution over the oracle box;
* query-guided diagnosis with the ground-truth oracle reaches the
  correct classification within the paper's 1–3 query band (we allow up
  to 3).
"""

import itertools
import random

import pytest

from repro.diagnosis import ExhaustiveOracle, diagnose_error
from repro.lang import Havoc, HavocPolicy, Interpreter
from repro.logic import neg
from repro.smt import SmtSolver
from repro.suite import (
    BENCHMARKS,
    DIAGNOSTICS,
    Benchmark,
    benchmark_by_id,
    benchmark_by_name,
    load_analysis,
    load_source,
)

# analyses and diagnoses are expensive; share per-benchmark artifacts
_CACHE: dict[str, tuple] = {}
_DIAGNOSES: dict[str, object] = {}


def artifacts(bench: Benchmark):
    if bench.name not in _CACHE:
        _CACHE[bench.name] = load_analysis(bench)
    return _CACHE[bench.name]


def diagnosis(bench: Benchmark):
    if bench.name not in _DIAGNOSES:
        program, analysis = artifacts(bench)
        oracle = ExhaustiveOracle(program, analysis,
                                  radius=bench.oracle_radius)
        _DIAGNOSES[bench.name] = diagnose_error(analysis, oracle)
    return _DIAGNOSES[bench.name]


class TestRegistry:
    def test_eleven_problems(self):
        assert len(BENCHMARKS) == 11

    def test_three_diagnostics(self):
        assert len(DIAGNOSTICS) == 3

    def test_kind_split_matches_paper(self):
        # five real-style and six synthetic problems
        real = [b for b in BENCHMARKS if b.kind == "real"]
        synthetic = [b for b in BENCHMARKS if b.kind == "synthetic"]
        assert len(real) == 5 and len(synthetic) == 6

    def test_classification_split_matches_paper(self):
        bugs = [b for b in BENCHMARKS if b.classification == "real bug"]
        alarms = [b for b in BENCHMARKS if b.is_false_alarm]
        assert len(bugs) == 5 and len(alarms) == 6

    def test_paper_row_order(self):
        """Figure 7's per-row kind/classification must match exactly."""
        expected = [
            ("synthetic", "false alarm"), ("real", "false alarm"),
            ("synthetic", "false alarm"), ("real", "real bug"),
            ("real", "false alarm"), ("real", "false alarm"),
            ("real", "real bug"), ("synthetic", "false alarm"),
            ("synthetic", "real bug"), ("synthetic", "real bug"),
            ("synthetic", "real bug"),
        ]
        actual = [(b.kind, b.classification) for b in BENCHMARKS]
        assert actual == expected

    def test_lookup(self):
        assert benchmark_by_id(6).name == "p06_chroot"
        assert benchmark_by_name("p10_toggle").problem_id == 10
        with pytest.raises(KeyError):
            benchmark_by_id(99)
        with pytest.raises(KeyError):
            benchmark_by_name("nope")

    def test_sources_load(self):
        for bench in BENCHMARKS + DIAGNOSTICS:
            source = load_source(bench)
            assert "program" in source and "assert" in source


@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
class TestPerBenchmark:
    def test_initially_inconclusive(self, bench):
        _, analysis = artifacts(bench)
        solver = SmtSolver()
        assert not solver.entails(analysis.invariants, analysis.success), (
            "analysis must not discharge the report outright"
        )
        assert not solver.entails(analysis.invariants,
                                  neg(analysis.success)), (
            "analysis must not validate the report outright"
        )

    def test_ground_truth_matches_classification(self, bench):
        program, _ = artifacts(bench)
        has_havoc = any(
            isinstance(s, Havoc) for s in program.body.walk()
        )
        rounds = 8 if has_havoc else 1
        radius = bench.oracle_radius
        failing = 0
        ranges = []
        for p in program.params:
            low = 0 if p.unsigned else -radius
            ranges.append(range(low, radius + 1))
        for combo in itertools.product(*ranges):
            inputs = dict(zip(program.param_names(), combo))
            for seed in range(rounds):
                interp = Interpreter(
                    havoc_policy=HavocPolicy(random.Random(seed))
                )
                if not interp.run(program, inputs).ok:
                    failing += 1
        truth = "real bug" if failing else "false alarm"
        assert truth == bench.classification

    def test_diagnosis_resolves_correctly(self, bench):
        result = diagnosis(bench)
        assert result.classification == bench.classification

    def test_query_count_in_paper_band(self, bench):
        """Paper: 'ranging from one to three questions on these
        benchmarks'."""
        result = diagnosis(bench)
        assert 1 <= result.num_queries <= 3, (
            f"{bench.name} took {result.num_queries} queries"
        )


class TestDiagnostics:
    def test_diagnostics_are_trivial(self):
        """The screening problems must be decidable by the analysis alone
        or by a single obvious look: here we just check the ground truth
        labels are right."""
        for bench in DIAGNOSTICS:
            program, _ = load_analysis(bench)
            radius = 5
            failing = 0
            ranges = []
            for p in program.params:
                low = 0 if p.unsigned else -radius
                ranges.append(range(low, radius + 1))
            for combo in itertools.product(*ranges):
                inputs = dict(zip(program.param_names(), combo))
                interp = Interpreter()
                if not interp.run(program, inputs).ok:
                    failing += 1
            truth = "real bug" if failing else "false alarm"
            assert truth == bench.classification
