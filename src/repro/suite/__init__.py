"""The Figure 7 benchmark suite.

Eleven problems mirroring the paper's user-study benchmarks — five
modeled on real C utilities (coreutils/OpenSSH-style slices) and six
synthetic — plus the three diagnostic screening problems.  Each problem
carries one assertion; the analysis initially reports a potential (but
not certain) error on all eleven, with the same diversity of causes the
paper lists: imprecise loop invariants, missing library annotations,
non-linear arithmetic, and missing environment facts.

The paper's original C sources are not redistributable (and the paper
used manual slices); each program here preserves its problem's *cause of
imprecision*, classification, and query structure — see DESIGN.md for
the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from ..abstract import annotate_program
from ..analysis import AnalysisResult, analyze_program
from ..lang import Program, parse_program


@dataclass(frozen=True)
class Benchmark:
    """Metadata for one user-study problem (one row of Figure 7)."""

    problem_id: int
    name: str
    kind: str                  # 'synthetic' | 'real'
    classification: str        # 'false alarm' | 'real bug'
    cause: str                 # source of analysis imprecision
    paper_loc: int             # LOC of the paper's original benchmark
    filename: str
    diagnostic: bool = False   # one of the three screening problems
    oracle_radius: int = 6     # exhaustive-oracle input box

    @property
    def is_false_alarm(self) -> bool:
        return self.classification == "false alarm"


BENCHMARKS: tuple[Benchmark, ...] = (
    Benchmark(1, "p01_accumulate", "synthetic", "false alarm",
              "imprecise loop invariants", 88, "p01_accumulate.err"),
    Benchmark(2, "p02_wordcount", "real", "false alarm",
              "imprecise loop invariants (missing relational fact)", 352,
              "p02_wordcount.err", oracle_radius=5),
    Benchmark(3, "p03_square", "synthetic", "false alarm",
              "non-linear arithmetic", 66, "p03_square.err"),
    Benchmark(4, "p04_options", "real", "real bug",
              "missing environment fact (argc can be 1)", 278,
              "p04_options.err", oracle_radius=5),
    Benchmark(5, "p05_strlcpy", "real", "false alarm",
              "imprecise loop invariants (capacity bound)", 363,
              "p05_strlcpy.err", oracle_radius=5),
    Benchmark(6, "p06_chroot", "real", "false alarm",
              "imprecise loop invariants (optind > 0, as in the paper)",
              173, "p06_chroot.err", oracle_radius=5),
    Benchmark(7, "p07_rotate", "real", "real bug",
              "missing library annotation (unlink can fail)", 326,
              "p07_rotate.err", oracle_radius=4),
    Benchmark(8, "p08_alternate", "synthetic", "false alarm",
              "imprecise loop invariants (alternation)", 97,
              "p08_alternate.err", oracle_radius=5),
    Benchmark(9, "p09_window", "synthetic", "real bug",
              "imprecise loop invariants (off-by-one)", 116,
              "p09_window.err"),
    Benchmark(10, "p10_toggle", "synthetic", "real bug",
              "imprecise loop invariants (parity)", 72, "p10_toggle.err"),
    Benchmark(11, "p11_transfer", "synthetic", "real bug",
              "imprecise loop invariants (cross-phase)", 118,
              "p11_transfer.err"),
)

DIAGNOSTICS: tuple[Benchmark, ...] = (
    Benchmark(101, "d01_plus_one", "synthetic", "false alarm",
              "none (screening problem)", 8, "d01_plus_one.err",
              diagnostic=True),
    Benchmark(102, "d02_negate", "synthetic", "real bug",
              "none (screening problem)", 8, "d02_negate.err",
              diagnostic=True),
    Benchmark(103, "d03_count", "synthetic", "false alarm",
              "none (screening problem)", 10, "d03_count.err",
              diagnostic=True),
)


def benchmark_by_id(problem_id: int) -> Benchmark:
    for bench in BENCHMARKS + DIAGNOSTICS:
        if bench.problem_id == problem_id:
            return bench
    raise KeyError(f"no benchmark with id {problem_id}")


def benchmark_by_name(name: str) -> Benchmark:
    for bench in BENCHMARKS + DIAGNOSTICS:
        if bench.name == name:
            return bench
    raise KeyError(f"no benchmark named {name!r}")


def load_source(bench: Benchmark) -> str:
    """Read a benchmark's program text from package data."""
    return (
        resources.files(__package__)
        .joinpath("programs", bench.filename)
        .read_text()
    )


def front_end(source: str, *, auto_annotate: bool = True
              ) -> tuple[Program, AnalysisResult]:
    """Parse, annotate (unannotated loops get inferred ``@post``s) and
    analyze program text; returns both artifacts."""
    program = parse_program(source)
    if auto_annotate:
        program = annotate_program(program)
    return program, analyze_program(program)


def load_analysis(bench: Benchmark,
                  *, auto_annotate: bool = True
                  ) -> tuple[Program, AnalysisResult]:
    """:func:`front_end` on a benchmark's source."""
    return front_end(load_source(bench), auto_annotate=auto_annotate)


__all__ = [
    "Benchmark",
    "BENCHMARKS",
    "DIAGNOSTICS",
    "benchmark_by_id",
    "benchmark_by_name",
    "front_end",
    "load_source",
    "load_analysis",
]
