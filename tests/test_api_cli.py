"""Tests for the public API facade and the command-line interface."""

import io
import json

import pytest

from repro.api import (
    AnalysisOutcome,
    InitialVerdict,
    Pipeline,
    dynamic_oracle,
    ground_truth_oracle,
    load_benchmark,
    report_envelope,
)
from repro.cli import build_parser, main
from repro.diagnosis import ScriptedOracle, Verdict, diagnose_error
from repro.suite import BENCHMARKS, load_source

FOO = """
program foo(flag, unsigned n) {
  var k = 1, i = 0, j = 0;
  if (flag != 0) { k = n * n; }
  while (i <= n) { i = i + 1; j = j + i; } @post(i >= 0 && i > n)
  var z = k + i + j;
  assert(z > 2 * n);
}
"""

SAFE = "program safe(x) { var y = x + 1; assert(y > x); }"
DOOMED = "program doomed(x) { var y = x; assert(y > x); }"
# the @post contradicts itself, so I is unsatisfiable
INCONSISTENT = """
program incons(unsigned n) {
  var i = 0;
  while (i < n) { i = i + 1; } @post(i >= n && i < 0 && n >= 0)
  assert(i == 7);
}
"""


class TestApi:
    def test_analyze_verified(self):
        outcome = Pipeline().analyze(SAFE)
        assert isinstance(outcome, AnalysisOutcome)
        assert outcome.verdict is InitialVerdict.VERIFIED

    def test_analyze_refuted(self):
        outcome = Pipeline().analyze(DOOMED)
        assert outcome.verdict is InitialVerdict.REFUTED

    def test_analyze_uncertain(self):
        outcome = Pipeline().analyze(FOO)
        assert outcome.verdict is InitialVerdict.UNCERTAIN

    def test_analyze_inconsistent_invariants_decide_nothing(self):
        # an unsatisfiable I entails phi and !phi alike; the engine's
        # consistency check says "unknown" for it, and so must analyze
        outcome = Pipeline(auto_annotate=False).analyze(INCONSISTENT)
        assert outcome.verdict is InitialVerdict.UNCERTAIN

    def test_diagnose_source(self):
        result = Pipeline().diagnose(FOO, ScriptedOracle(["yes"]))
        assert result.verdict is Verdict.DISCHARGED

    def test_load_benchmark(self):
        bench, program, analysis = load_benchmark("p06_chroot")
        assert bench.problem_id == 6
        assert program.name == "p06_chroot"
        assert analysis.invariants is not None

    def test_ground_truth_oracle_resolves(self):
        analysis, oracle = ground_truth_oracle("p10_toggle")
        result = diagnose_error(analysis, oracle)
        assert result.classification == "real bug"

    def test_dynamic_oracle_validates(self):
        analysis, oracle = dynamic_oracle("p09_window", samples=200)
        result = diagnose_error(analysis, oracle)
        assert result.classification == "real bug"


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["suite", "p10_toggle"])
        assert args.name == "p10_toggle"

    def test_analyze_command(self, tmp_path, capsys):
        path = tmp_path / "safe.err"
        path.write_text(SAFE)
        code = main(["analyze", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "verified" in out

    def test_suite_single(self, capsys):
        code = main(["suite", "p10_toggle", "-v"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[ok ]" in out and "real bug" in out

    def test_diagnose_sampling(self, tmp_path, capsys):
        path = tmp_path / "bug.err"
        path.write_text("""
        program bug(x) {
          var y = x + 1;
          assert(y != 0);
        }
        """)
        code = main(["diagnose", str(path), "--oracle", "sampling"])
        # exit 1: a real-bug verdict, per the documented status contract
        assert code == 1
        out = capsys.readouterr().out
        assert "REAL BUG" in out

    def test_diagnose_already_verified(self, tmp_path, capsys):
        path = tmp_path / "safe.err"
        path.write_text(SAFE)
        code = main(["diagnose", str(path)])
        assert code == 0
        assert "FALSE ALARM" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["analyze", "diagnose"])
    def test_malformed_source_is_a_usage_error(self, command, tmp_path,
                                               capsys):
        path = tmp_path / "bad.err"
        path.write_text("program bad(x) { assert(x > ; }")
        code = main([command, str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: expected an expression")
        assert "^" in err

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_repair_takes_inline_source_too_long_for_a_file_name(
            self, capsys):
        source = "program p(x) { var y = x + 1; " + "y = y + 1; " * 30 \
            + "assert(y > x); }"
        assert main(["repair", source]) == 0
        assert "no patch needed" in capsys.readouterr().out


#: Malformed invocations, run from an empty directory: each names a
#: file that does not exist, a benchmark that is not in the suite or an
#: out-of-range count or port.
MALFORMED = [
    ["analyze", "missing.err"],
    ["diagnose", "missing.err"],
    ["repair", "missing.err"],
    ["triage", "nosuch"],
    ["explain", "nosuch"],
    ["stats", "nosuch"],
    ["trace", "export", "--out", "trace.jsonl", "nosuch"],
    ["suite", "nosuch"],
    ["repair", "p02_wordcount", "--max-patches", "0"],
    ["repair", "p02_wordcount", "--max-patches", "-1"],
    ["userstudy", "--participants", "0"],
    ["serve", "--port", "99999"],
]


class TestMalformedInvocations:
    @pytest.mark.parametrize("argv", MALFORMED, ids="_".join)
    def test_exits_2_before_any_work(self, argv, tmp_path, monkeypatch,
                                     capsys):
        def work(*args, **kwargs):
            raise AssertionError("a malformed invocation started work")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("repro.cli.Pipeline", work)
        monkeypatch.setattr("repro.serve.run", work)  # binds the port
        monkeypatch.setattr("repro.userstudy.run_user_study", work)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("max_patches", [0, -1])
    def test_repair_rejects_max_patches_below_one(self, max_patches):
        with pytest.raises(ValueError, match="max_patches"):
            Pipeline().repair("p02_wordcount", max_patches=max_patches)


# ---------------------------------------------------------------------------
# ad-hoc reports: every surface runs the same report runner
# ---------------------------------------------------------------------------

#: Ad-hoc sources; the trailing comment keeps ``repro serve`` from
#: resolving a Figure-7 text to its benchmark.
ADHOC = {"safe": SAFE, "doomed": DOOMED, "foo": FOO,
         **{b.name: load_source(b) + "\n// ad hoc\n" for b in BENCHMARKS}}


def _surface_view(envelope: dict) -> tuple:
    return (envelope["kind"], envelope["verdict"],
            envelope.get("num_queries", 0),
            [i["text"] for i in envelope.get("interactions", ())])


class TestAdHocSurfaces:
    @pytest.mark.parametrize("name", ADHOC)
    def test_pipeline_cli_and_serve_agree(self, name, tmp_path, capsys):
        from repro.serve import TriageService

        source = ADHOC[name]
        api = _surface_view(report_envelope(Pipeline().diagnose(source)))

        path = tmp_path / f"{name}.err"
        path.write_text(source)
        main(["diagnose", str(path), "--oracle", "sampling", "--json"])
        cli = _surface_view(json.loads(capsys.readouterr().out))

        service = TriageService()
        _, handle = service.submit({"source": source})
        service._run_job(handle["job_id"])
        serve = _surface_view(service.registry.get(handle["job_id"]).result)

        assert api == cli == serve
        assert api[0] == ("analysis" if name in ("safe", "doomed")
                          else "diagnosis")


class TestInteractiveDiagnose:
    def test_banner_precedes_the_first_question(self, tmp_path, capsys,
                                                monkeypatch):
        path = tmp_path / "foo.err"
        path.write_text(FOO)
        monkeypatch.setattr("sys.stdin", io.StringIO("yes\n"))
        assert main(["diagnose", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "the analysis cannot decide; starting the query session\n\n")
        assert out.index("[yes/no/unknown] > ") \
            < out.index("verdict: FALSE ALARM after 1 queries")

    def test_decided_report_writes_no_session_report(self, tmp_path,
                                                     capsys):
        path = tmp_path / "safe.err"
        path.write_text(SAFE)
        report = tmp_path / "session.md"
        assert main(["diagnose", str(path), "--report", str(report)]) == 0
        assert capsys.readouterr().out == \
            "verified outright: the report is a FALSE ALARM\n"
        assert not report.exists()
