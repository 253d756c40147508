"""Statistics and rendering for the user study (Figure 7 + t-tests)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .study import StudyResult


@dataclass(frozen=True)
class TTestResult:
    statistic: float
    p_value: float
    n_left: int
    n_right: int


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-15:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
             + a * math.log(x) + b * math.log1p(-x))
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def _student_t_two_sided(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom."""
    return _betainc(df / 2.0, 0.5, df / (df + t * t))


def _welch_py(left: Sequence[float],
              right: Sequence[float]) -> tuple[float, float]:
    n1, n2 = len(left), len(right)
    m1, m2 = sum(left) / n1, sum(right) / n2
    v1 = sum((v - m1) ** 2 for v in left) / (n1 - 1)
    v2 = sum((v - m2) ** 2 for v in right) / (n2 - 1)
    se2 = v1 / n1 + v2 / n2
    if se2 == 0.0:
        return (0.0, 1.0) if m1 == m2 else (math.inf, 0.0)
    t = (m1 - m2) / math.sqrt(se2)
    df = se2 * se2 / ((v1 / n1) ** 2 / (n1 - 1)
                      + (v2 / n2) ** 2 / (n2 - 1))
    return t, _student_t_two_sided(t, df)


def welch_ttest(left: Sequence[float],
                right: Sequence[float]) -> TTestResult:
    """Two-tailed Welch t-test (unequal variances), as in the paper.

    Pure Python: the p-value comes from the incomplete-beta continued
    fraction and matches ``scipy.stats.ttest_ind(equal_var=False)`` to
    ~1e-13 relative (the tests compare the two when scipy is present).
    """
    statistic, p_value = _welch_py(left, right)
    return TTestResult(
        statistic=statistic,
        p_value=p_value,
        n_left=len(left),
        n_right=len(right),
    )


def accuracy_ttest(study: StudyResult) -> TTestResult:
    """Manual vs technique per-participant accuracy."""
    return welch_ttest(
        study.per_participant_accuracy("manual"),
        study.per_participant_accuracy("technique"),
    )


def time_ttest(study: StudyResult) -> TTestResult:
    """Manual vs technique classification times."""
    return welch_ttest(study.times("manual"), study.times("technique"))


def format_figure7(study: StudyResult) -> str:
    """Render the study as the paper's Figure 7 table."""
    header = (
        f"{'':12s} {'LOC':>4s} {'Kind':>10s} {'Class.':>12s} | "
        f"{'%corr':>6s} {'%wrong':>7s} {'%?':>6s} {'time':>7s} | "
        f"{'%corr':>6s} {'%wrong':>7s} {'%?':>6s} {'time':>7s}"
    )
    bar = "-" * len(header)
    lines = [
        f"{'':34s}{'':12s}  Manual classification      |"
        f"        New technique",
        header,
        bar,
    ]
    for bench in study.benchmarks:
        manual = study.cell(bench.problem_id, "manual")
        guided = study.cell(bench.problem_id, "technique")
        lines.append(
            f"Problem {bench.problem_id:<4d} {bench.paper_loc:>4d} "
            f"{bench.kind:>10s} {bench.classification:>12s} | "
            f"{manual.pct_correct:5.1f}% {manual.pct_wrong:6.1f}% "
            f"{manual.pct_unknown:5.1f}% {manual.avg_seconds:5.0f} s | "
            f"{guided.pct_correct:5.1f}% {guided.pct_wrong:6.1f}% "
            f"{guided.pct_unknown:5.1f}% {guided.avg_seconds:5.0f} s"
        )
    manual_avg = study.average_cell("manual")
    guided_avg = study.average_cell("technique")
    lines.append(bar)
    lines.append(
        f"{'Average':12s} {'':4s} {'':10s} {'':12s} | "
        f"{manual_avg.pct_correct:5.1f}% {manual_avg.pct_wrong:6.1f}% "
        f"{manual_avg.pct_unknown:5.1f}% {manual_avg.avg_seconds:5.0f} s | "
        f"{guided_avg.pct_correct:5.1f}% {guided_avg.pct_wrong:6.1f}% "
        f"{guided_avg.pct_unknown:5.1f}% {guided_avg.avg_seconds:5.0f} s"
    )

    acc = accuracy_ttest(study)
    tim = time_ttest(study)
    lines.append("")
    lines.append(
        f"participants: {len(study.participants)} valid "
        f"({study.excluded} excluded by the diagnostic problems)"
    )
    lines.append(
        f"accuracy t-test (Welch, two-tailed): p = {acc.p_value:.3g}"
    )
    lines.append(
        f"time t-test     (Welch, two-tailed): p = {tim.p_value:.3g}"
    )
    return "\n".join(lines)


def summarize(study: StudyResult) -> dict:
    """Aggregate numbers for programmatic comparison with the paper."""
    manual = study.average_cell("manual")
    guided = study.average_cell("technique")
    return {
        "participants": len(study.participants),
        "excluded": study.excluded,
        "manual": {
            "pct_correct": manual.pct_correct,
            "pct_wrong": manual.pct_wrong,
            "pct_unknown": manual.pct_unknown,
            "avg_seconds": manual.avg_seconds,
        },
        "technique": {
            "pct_correct": guided.pct_correct,
            "pct_wrong": guided.pct_wrong,
            "pct_unknown": guided.pct_unknown,
            "avg_seconds": guided.avg_seconds,
        },
        "accuracy_p_value": accuracy_ttest(study).p_value,
        "time_p_value": time_ttest(study).p_value,
    }
