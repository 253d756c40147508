"""Tests for the run-history store (repro.obs.history)."""

from __future__ import annotations

import json

import pytest

from repro.obs import history


def make_snapshot(p95=0.010, count=20, total=0.5):
    """A minimal snapshot with one meaningful stage and one noise stage."""
    return {
        "enabled": True,
        "counters": {"smt.is_sat.hit": 7, "smt.is_sat.miss": 3},
        "gauges": {},
        "spans": {
            "smt.check": {"count": count, "total_s": total, "max_s": p95},
            "tiny": {"count": 2, "total_s": 0.0001, "max_s": 0.0001},
        },
        "hists": {
            "smt.check": {"count": count, "total": total, "min": 0.001,
                          "max": p95, "p50": p95 / 2, "p95": p95,
                          "p99": p95},
            "tiny": {"count": 2, "total": 0.0001, "min": 0.00005,
                     "max": 0.00005, "p50": 0.00005, "p95": 0.00005,
                     "p99": 0.00005},
        },
    }


class TestLoadAndAppend:
    def test_missing_file_is_empty_history(self, tmp_path):
        loaded = history.load(tmp_path / "absent.json")
        assert loaded == {"schema": "repro.history/1", "runs": []}

    def test_empty_file_is_empty_history(self, tmp_path):
        path = tmp_path / "BENCH_obs.json"
        path.write_text("")
        assert history.load(path)["runs"] == []

    def test_foreign_schema_fails_loudly(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/1", "runs": []}))
        with pytest.raises(ValueError, match="unsupported history schema"):
            history.load(path)

    def test_append_round_trips(self, tmp_path):
        path = tmp_path / "BENCH_obs.json"
        entry = history.append_run(path, make_snapshot(), label="ci",
                                   meta={"accuracy": 1.0}, timestamp=123.0)
        assert entry["label"] == "ci"
        loaded = history.load(path)
        assert loaded["schema"] == "repro.history/1"
        (run,) = loaded["runs"]
        assert run["timestamp"] == 123.0
        assert run["meta"] == {"accuracy": 1.0}
        assert run["counters"]["smt.is_sat.hit"] == 7
        assert run["stages"]["smt.check"]["p95_s"] == 0.010

    def test_oldest_runs_are_evicted(self, tmp_path):
        path = tmp_path / "h.json"
        for i in range(5):
            history.append_run(path, make_snapshot(), label=f"run{i}",
                               timestamp=float(i), max_runs=3)
        runs = history.load(path)["runs"]
        assert [r["label"] for r in runs] == ["run2", "run3", "run4"]


class TestStageSummary:
    def test_distills_spans_and_hists(self):
        stages = history.stage_summary(make_snapshot(p95=0.02, count=10,
                                                     total=0.1))
        entry = stages["smt.check"]
        assert entry["count"] == 10
        assert entry["total_s"] == 0.1
        assert entry["mean_s"] == pytest.approx(0.01)
        assert entry["p95_s"] == 0.02

    def test_empty_snapshot_is_empty(self):
        assert history.stage_summary(None) == {}
        assert history.stage_summary({}) == {}


class TestRegressionGate:
    def test_empty_history_never_flags(self, tmp_path):
        assert history.check_regressions(
            {"schema": "repro.history/1", "runs": []},
            make_snapshot(p95=99.0)) == []

    def test_slowdown_beyond_threshold_flags(self, tmp_path):
        path = tmp_path / "h.json"
        history.append_run(path, make_snapshot(p95=0.010))
        flagged = history.check_regressions(path, make_snapshot(p95=0.015))
        (reg,) = flagged
        assert reg["stage"] == "smt.check"
        assert reg["baseline_p95_s"] == 0.010
        assert reg["current_p95_s"] == 0.015
        assert reg["ratio"] == pytest.approx(1.5)

    def test_slowdown_within_threshold_passes(self, tmp_path):
        path = tmp_path / "h.json"
        history.append_run(path, make_snapshot(p95=0.010))
        assert history.check_regressions(path,
                                         make_snapshot(p95=0.011)) == []

    def test_noise_stages_are_ignored(self, tmp_path):
        """The 'tiny' stage regresses hugely but stays under the total-
        seconds floor, so it must never flag."""
        path = tmp_path / "h.json"
        history.append_run(path, make_snapshot())
        current = make_snapshot()
        current["spans"]["tiny"]["total_s"] = 0.0002
        current["hists"]["tiny"]["p95"] = 0.005  # 100x slower
        assert history.check_regressions(path, current) == []

    def test_low_sample_counts_are_ignored(self, tmp_path):
        path = tmp_path / "h.json"
        base = make_snapshot(p95=0.010, count=3)  # below MIN_COUNT
        history.append_run(path, base)
        assert history.check_regressions(
            path, make_snapshot(p95=0.050, count=3)) == []

    def test_baseline_is_latest_run(self, tmp_path):
        path = tmp_path / "h.json"
        history.append_run(path, make_snapshot(p95=0.100), label="old")
        history.append_run(path, make_snapshot(p95=0.010), label="new")
        # 0.015 regresses against the new 0.010 baseline even though it
        # would pass against the old 0.100 one
        assert len(history.check_regressions(path,
                                             make_snapshot(p95=0.015))) == 1


class TestFormatHistory:
    def test_empty(self):
        assert "empty" in history.format_history(
            {"schema": "repro.history/1", "runs": []})

    def test_table_shows_recent_runs(self, tmp_path):
        path = tmp_path / "h.json"
        for i in range(3):
            history.append_run(path, make_snapshot(), label=f"run{i}",
                               meta={"accuracy": 0.9, "wall_seconds": 1.5},
                               timestamp=1700000000.0 + i)
        text = history.format_history(history.load(path), last=2)
        assert "run1" in text and "run2" in text
        assert "run0" not in text
        assert "90%" in text
        assert "1.50" in text
