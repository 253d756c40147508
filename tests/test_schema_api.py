"""Tests for the stable JSON schema, the Pipeline facade, the removed
v2 aliases, and the machine-readable CLI modes."""

import json

import pytest

import repro
import repro.api
from repro import obs
from repro.api import (
    Pipeline,
    ground_truth_oracle,
    run_user_study,
)
from repro.batch import triage_many
from repro.cli import main
from repro.diagnosis import ScriptedOracle, diagnose_error, render_report
from repro import schema
from repro.schema import SCHEMA_VERSION, TriageVerdict, envelope
from repro.suite import BENCHMARKS

SAFE = "program safe(x) { var y = x + 1; assert(y > x); }"
DOOMED = "program doomed(x) { var y = x; assert(y > x); }"

FOO = """
program foo(flag, unsigned n) {
  var k = 1, i = 0, j = 0;
  if (flag != 0) { k = n * n; }
  while (i <= n) { i = i + 1; j = j + i; } @post(i >= 0 && i > n)
  var z = k + i + j;
  assert(z > 2 * n);
}
"""


@pytest.fixture(autouse=True)
def obs_off():
    """Schema tests run with instrumentation off unless they enable it."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestTriageVerdict:
    @pytest.mark.parametrize("text,expected", [
        ("false alarm", TriageVerdict.FALSE_ALARM),
        ("verified", TriageVerdict.FALSE_ALARM),
        ("discharged", TriageVerdict.FALSE_ALARM),
        ("real bug", TriageVerdict.REAL_BUG),
        ("refuted", TriageVerdict.REAL_BUG),
        ("VALIDATED", TriageVerdict.REAL_BUG),
        ("unknown", TriageVerdict.UNKNOWN),
        ("uncertain", TriageVerdict.UNKNOWN),
        ("unresolved", TriageVerdict.UNKNOWN),
        ("real_bug", TriageVerdict.REAL_BUG),
    ])
    def test_from_classification(self, text, expected):
        assert TriageVerdict.from_classification(text) is expected

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown classification"):
            TriageVerdict.from_classification("maybe")

    def test_values_equal_legacy_strings(self):
        assert TriageVerdict.FALSE_ALARM.value == "false alarm"
        assert TriageVerdict.REAL_BUG.value == "real bug"
        assert TriageVerdict.UNKNOWN.value == "unknown"


class TestEnvelope:
    def test_core_fields(self):
        payload = envelope("analysis", TriageVerdict.UNKNOWN, a=1)
        assert payload == {"schema": SCHEMA_VERSION, "kind": "analysis",
                           "verdict": "unknown", "a": 1}

    def test_none_fields_omitted(self):
        payload = envelope("batch", TriageVerdict.REAL_BUG,
                           telemetry=None, error=None, count=0)
        assert "telemetry" not in payload and "error" not in payload
        assert payload["count"] == 0


class TestAnalysisOutcomeJson:
    def test_round_trip(self):
        payload = json.loads(Pipeline().analyze(SAFE).to_json())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["kind"] == "analysis"
        assert payload["verdict"] == "false alarm"
        assert payload["initial_verdict"] == "verified"
        assert payload["program"] == "safe"
        assert isinstance(payload["invariants"], str)
        assert "telemetry" not in payload

    def test_refuted_maps_to_real_bug(self):
        payload = Pipeline().analyze(DOOMED).to_dict()
        assert payload["verdict"] == "real bug"
        assert payload["initial_verdict"] == "refuted"

    def test_telemetry_embedded_when_enabled(self):
        obs.enable()
        payload = Pipeline().analyze(SAFE).to_dict()
        assert payload["telemetry"]["spans"]["api.analyze"]["count"] == 1


class TestDiagnosisResultJson:
    def test_round_trip(self):
        result = Pipeline().diagnose(FOO, ScriptedOracle(["yes"]))
        payload = json.loads(result.to_json(indent=2))
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["kind"] == "diagnosis"
        assert payload["verdict"] == result.classification == "false alarm"
        assert payload["program"] == "foo"
        assert payload["rounds"] == result.rounds
        assert payload["num_queries"] == result.num_queries == 1
        assert payload["interactions"] == [
            {"kind": i.query.kind, "text": i.query.text,
             "answer": i.answer.value}
            for i in result.interactions
        ]

    def test_triage_verdict_property(self):
        result = Pipeline().diagnose(FOO, ScriptedOracle(["yes"]))
        assert result.triage_verdict is TriageVerdict.FALSE_ALARM
        assert result.triage_verdict.value == result.classification


class TestBatchJson:
    def test_round_trip(self):
        result = triage_many(["d01_plus_one", "d02_negate"], jobs=1)
        payload = json.loads(result.to_json())
        assert payload["kind"] == "batch"
        assert payload["verdict"] == "real bug"  # d02 is a real bug
        assert payload["accuracy"] == 1.0
        assert len(payload["outcomes"]) == 2
        first = payload["outcomes"][0]
        assert first["kind"] == "triage_outcome"
        assert first["name"] == "d01_plus_one"
        assert first["verdict"] == "false alarm"
        assert first["correct"] is True

    def test_verdict_counts(self):
        result = triage_many(["d01_plus_one", "d02_negate"], jobs=1)
        assert result.verdict_counts == {
            "false alarm": 1, "real bug": 1, "unknown": 0,
            "unknown resource": 0,
        }

    def test_empty_batch_is_unknown(self):
        result = triage_many([], jobs=1)
        assert result.verdict is TriageVerdict.UNKNOWN


class TestStatusContract:
    """The one verdict -> exit-code -> HTTP-status mapping
    (``repro.schema``), shared by the CLI and the daemon."""

    def test_clean(self):
        assert schema.exit_code(["false alarm", "unknown"]) == 0
        assert schema.exit_code([]) == 0

    def test_real_bug(self):
        assert schema.exit_code(["false alarm", "real bug"]) == 1
        assert schema.exit_code([TriageVerdict.REAL_BUG]) == 1

    def test_degraded_beats_real_bug(self):
        assert schema.exit_code(["real bug", "unknown resource"]) == 3
        assert schema.exit_code(["real bug"], degraded=True) == 3

    def test_http_mapping(self):
        assert [schema.http_status(c) for c in (0, 1, 2, 3)] == \
            [200, 200, 400, 503]
        with pytest.raises(ValueError):
            schema.http_status(42)

    def test_garbage_verdict_rejected(self):
        with pytest.raises(ValueError):
            schema.exit_code(["maybe"])


class TestRemovedAliases:
    """The PR-2-era module-level aliases are gone from the v3 surface."""

    @pytest.mark.parametrize("name", [
        "analyze_source", "diagnose_source", "triage_suite",
    ])
    def test_gone_from_api_module(self, name):
        assert not hasattr(repro.api, name)

    @pytest.mark.parametrize("name", [
        "analyze_source", "diagnose_source", "triage_suite",
    ])
    def test_gone_from_package_root(self, name):
        assert name not in repro.__all__
        with pytest.raises(AttributeError):
            getattr(repro, name)

    def test_pipeline_triage_many_alias_is_gone(self):
        """``Pipeline.triage`` is the one spelling."""
        assert not hasattr(Pipeline, "triage_many")

    def test_obs_export_jsonl_is_gone(self):
        """Every trace is ``repro.trace/1`` (``prov.export_trace``)."""
        assert not hasattr(obs, "export_jsonl")

    def test_triage_timeout_is_gone(self):
        """The PR-7-era ``timeout=`` shim is removed: the only spelling
        is ``limits=Limits(deadline=...)``, and a stale caller fails
        loudly instead of silently triaging unbounded."""
        with pytest.raises(TypeError, match="timeout"):
            Pipeline().triage(["d01_plus_one"], jobs=1, timeout=60.0)


class TestRunUserStudySignature:
    def test_typo_fails_loudly(self):
        with pytest.raises(TypeError):
            run_user_study(seeed=7)

    def test_positional_arguments_rejected(self):
        with pytest.raises(TypeError):
            run_user_study(7)


class TestCliJsonModes:
    def test_analyze_json(self, tmp_path, capsys):
        path = tmp_path / "safe.err"
        path.write_text(SAFE)
        assert main(["analyze", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "analysis"
        assert payload["verdict"] == "false alarm"

    def test_diagnose_json_sampling(self, tmp_path, capsys):
        path = tmp_path / "bug.err"
        path.write_text("""
        program bug(x) {
          var y = x + 1;
          assert(y != 0);
        }
        """)
        # exit 1: a real-bug verdict, per the documented status contract
        assert main(["diagnose", str(path), "--oracle", "sampling",
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "diagnosis"
        assert payload["verdict"] == "real bug"

    def test_triage_json(self, capsys):
        assert main(["triage", "d01_plus_one", "--jobs", "1",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "batch"
        assert payload["outcomes"][0]["verdict"] == "false alarm"

    def test_triage_trace_writes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "out.jsonl"
        # exit 1: d02 is a real bug (the documented status contract)
        assert main(["triage", "d01_plus_one", "d02_negate",
                     "--jobs", "2", "--trace", str(trace)]) == 1
        lines = [json.loads(l)
                 for l in trace.read_text().splitlines()]
        assert lines, "trace must not be empty"
        assert lines[-1]["type"] == "snapshot"
        merged = lines[-1]
        assert merged["spans"]["triage.report"]["count"] == 2
        assert obs.hit_rate(merged, "smt.is_sat") is not None
        reports = {l.get("report") for l in lines[:-1]}
        assert {"d01_plus_one", "d02_negate"} <= reports

    def test_analyze_trace_converts_with_trace_export(self, tmp_path,
                                                      capsys):
        """``analyze --trace`` writes the same ``repro.trace/1`` stream
        as ``triage --trace``, so ``trace export --in`` converts it."""
        source = tmp_path / "safe.err"
        source.write_text(SAFE)
        trace = tmp_path / "a.jsonl"
        assert main(["analyze", str(source), "--trace", str(trace)]) == 0
        chrome = tmp_path / "a.json"
        assert main(["trace", "export", "--in", str(trace),
                     "--format", "chrome", "--out", str(chrome)]) == 0
        doc = json.loads(chrome.read_text())
        assert "api.analyze" in {e.get("name") for e in doc["traceEvents"]}

    def test_trace_export_rejects_a_headerless_stream(self, tmp_path,
                                                      capsys):
        bare = tmp_path / "bare.jsonl"
        bare.write_text('{"type": "snapshot"}\n')
        capsys.readouterr()
        assert main(["trace", "export", "--in", str(bare),
                     "--out", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "missing header" in err

    def test_stats_command(self, capsys):
        assert main(["stats", "p10_toggle", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out and "counters:" in out
        assert "triage.report" in out
        assert "engine.queries" in out


# ---------------------------------------------------------------------------
# differential: the JSON payload and the human report must agree on the
# verdict for every Figure 7 benchmark
# ---------------------------------------------------------------------------

_SESSIONS: dict[str, object] = {}

_REPORT_HEADLINE = {
    "false alarm": "FALSE ALARM",
    "real bug": "REAL BUG",
    "unknown": "UNRESOLVED",
}


def _session(name):
    if name not in _SESSIONS:
        analysis, oracle = ground_truth_oracle(name)
        _SESSIONS[name] = diagnose_error(analysis, oracle)
    return _SESSIONS[name]


@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
def test_json_and_report_agree_on_verdict(bench):
    result = _session(bench.name)
    payload = json.loads(result.to_json())
    report = render_report(result)
    assert payload["verdict"] == result.classification
    assert _REPORT_HEADLINE[payload["verdict"]] in report
