"""Tests for the simulated user study.

The full Figure 7 regeneration lives in the benchmark harness (it takes
minutes); these tests exercise the components and run a scaled-down
study to check the qualitative findings: the technique must beat manual
classification decisively on both accuracy and time.
"""

import math
import random

import pytest

from repro.diagnosis import Answer, EngineConfig
from repro.suite import BENCHMARKS, benchmark_by_name
from repro.userstudy import (
    DiagnosisTree,
    Participant,
    UserStudy,
    accuracy_ttest,
    answer_query,
    classify_manually,
    format_figure7,
    run_user_study,
    summarize,
    time_ttest,
    welch_ttest,
)
from repro.userstudy.participants import (
    MANUAL_GIVEUP,
    QUERY_BASE_CORRECT,
)


class TestParticipantModel:
    def test_skill_in_range(self):
        rng = random.Random(1)
        for i in range(200):
            p = Participant.sample(i, rng)
            assert 0.0 <= p.skill <= 1.0

    def test_manual_distribution_shape(self):
        """Across many trials manual accuracy must hover near the paper's
        ~33% with a meaningful don't-know share."""
        rng = random.Random(7)
        bench = benchmark_by_name("p06_chroot")
        outcomes = {"correct": 0, "wrong": 0, "unknown": 0}
        trials = 3000
        for i in range(trials):
            participant = Participant.sample(i, rng)
            answer, seconds = classify_manually(participant, bench, rng)
            assert seconds > 30
            if answer == "unknown":
                outcomes["unknown"] += 1
            elif answer == bench.classification:
                outcomes["correct"] += 1
            else:
                outcomes["wrong"] += 1
        correct_rate = outcomes["correct"] / trials
        unknown_rate = outcomes["unknown"] / trials
        assert 0.2 < correct_rate < 0.5
        assert abs(unknown_rate - MANUAL_GIVEUP) < 0.05

    def test_query_answers_mostly_truthful(self):
        rng = random.Random(3)
        from repro.diagnosis.queries import Query
        from repro.logic import parse_formula

        query = Query("invariant", parse_formula("x >= 0"), "Is x >= 0?")
        agree = 0
        trials = 2000
        for i in range(trials):
            participant = Participant.sample(i, rng)
            answer, seconds = answer_query(
                participant, query, Answer.YES, rng
            )
            assert seconds > 1
            if answer is Answer.YES:
                agree += 1
        assert agree / trials > QUERY_BASE_CORRECT - 0.08

    def test_harder_queries_less_accurate(self):
        rng = random.Random(5)
        from repro.diagnosis.queries import Query
        from repro.logic import parse_formula

        easy = Query("invariant", parse_formula("x >= 0"), "easy")
        hard = Query(
            "invariant",
            parse_formula("x + y + z >= 0 && x <= y"),
            "hard",
        )

        def accuracy(query):
            hits = 0
            local = random.Random(11)
            for i in range(3000):
                participant = Participant(i, 0.6)
                answer, _ = answer_query(participant, query, Answer.YES,
                                         local)
                hits += answer is Answer.YES
            return hits / 3000

        assert accuracy(easy) > accuracy(hard)


class TestDiagnosisTree:
    def test_tree_caches_prefixes(self):
        from repro.suite import load_analysis

        bench = benchmark_by_name("p10_toggle")
        _, analysis = load_analysis(bench)
        tree = DiagnosisTree(analysis, EngineConfig(max_rounds=6))
        kind, payload = tree.resolve(())
        assert kind == "ask"
        first_query = payload
        # same prefix resolves from cache to the identical object
        kind2, payload2 = tree.resolve(())
        assert payload2 is first_query
        # answering NO must terminate (validation via learned witness)
        kind3, result = tree.resolve((Answer.NO,))
        assert kind3 == "done"
        assert result.classification == "real bug"


class TestStats:
    def test_welch_known_values(self):
        left = [1.0, 2.0, 3.0, 4.0]
        right = [10.0, 11.0, 12.0, 13.0]
        result = welch_ttest(left, right)
        assert result.p_value < 1e-4
        assert result.n_left == result.n_right == 4

    def test_identical_samples_insignificant(self):
        data = [5.0, 6.0, 7.0, 8.0]
        result = welch_ttest(data, list(data))
        assert result.p_value > 0.9

    def test_pure_python_fallback_agrees(self, study):
        """The pure-Python Welch test must match scipy's reference to
        float precision, on a hand-made pair and on the small study's
        accuracy and time samples, whose small p-values (down to ~1e-7)
        need a relative tolerance."""
        from repro.userstudy.stats import _welch_py

        left = [1.0, 2.0, 3.0, 4.0]
        right = [10.0, 11.0, 12.0, 13.0]
        t, p = _welch_py(left, right)
        assert t < 0 and p < 1e-4
        assert _welch_py(left, list(left)) == (0.0, 1.0)
        scipy_stats = pytest.importorskip("scipy.stats")
        pairs = [
            (left, right),
            (study.per_participant_accuracy("manual"),
             study.per_participant_accuracy("technique")),
            (study.times("manual"), study.times("technique")),
        ]
        for a, b in pairs:
            t, p = _welch_py(a, b)
            ref = scipy_stats.ttest_ind(a, b, equal_var=False)
            assert math.isclose(t, float(ref.statistic), rel_tol=1e-9)
            assert math.isclose(p, float(ref.pvalue), rel_tol=1e-9)


@pytest.fixture(scope="module")
def study():
    """A scaled-down study over a 3-problem subset: fast enough for the
    unit suite, still end-to-end through the real engine."""
    subset = tuple(
        b for b in BENCHMARKS
        if b.name in ("p03_square", "p06_chroot", "p10_toggle")
    )
    return UserStudy(
        num_recruited=14,
        seed=42,
        benchmarks=subset,
        engine_config=EngineConfig(max_rounds=6),
    ).run()


class TestSmallStudy:
    """Qualitative findings of the small study: the technique must beat
    manual classification decisively on accuracy and time."""

    def test_both_conditions_populated(self, study):
        assert study.times("manual") and study.times("technique")

    def test_technique_beats_manual_accuracy(self, study):
        manual = study.average_cell("manual")
        technique = study.average_cell("technique")
        assert technique.pct_correct > manual.pct_correct + 20

    def test_technique_much_faster(self, study):
        manual = study.average_cell("manual")
        technique = study.average_cell("technique")
        assert technique.avg_seconds < manual.avg_seconds / 2

    def test_ttests_significant(self, study):
        assert accuracy_ttest(study).p_value < 0.01
        assert time_ttest(study).p_value < 1e-6

    def test_table_renders(self, study):
        table = format_figure7(study)
        assert "Manual classification" in table
        assert "Average" in table
        assert "p =" in table

    def test_summary_keys(self, study):
        summary = summarize(study)
        assert set(summary) >= {
            "participants", "manual", "technique",
            "accuracy_p_value", "time_p_value",
        }
