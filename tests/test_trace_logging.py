"""Tests for trace contexts (repro.obs.context) and structured
logging (repro.obs.logging): identity propagation, the repro.log/1
schema, rate limiting, the slow-query hook, and the end-to-end batch
acceptance — one trace_id links a run's envelope, telemetry, worker
span events and log lines across the multiprocessing boundary.
"""

import json
import threading

import pytest

from repro import obs
from repro.batch import triage_many
from repro.obs import context as ocontext
from repro.obs import logging as olog


@pytest.fixture(autouse=True)
def clean_slate():
    """Logging off, obs off, no ambient trace, before and after."""
    olog.reset()
    obs.disable()
    obs.reset()
    with ocontext.bind(None):
        yield
    olog.reset()
    obs.disable()
    obs.reset()


# ---------------------------------------------------------------------------
# TraceContext
# ---------------------------------------------------------------------------

class TestTraceContext:
    def test_fresh_roots_are_unique_well_formed(self):
        a, b = ocontext.new_trace("cli"), ocontext.new_trace("cli")
        assert a.trace_id != b.trace_id
        assert len(a.trace_id) == 16 and len(a.span_id) == 8
        assert set(a.trace_id) <= set("0123456789abcdef")
        assert a.parent_id is None and a.origin == "cli"

    def test_child_keeps_trace_links_parent(self):
        root = ocontext.new_trace("batch")
        hop = root.child()
        assert hop.trace_id == root.trace_id
        assert hop.span_id != root.span_id
        assert hop.parent_id == root.span_id
        assert hop.origin == "batch"

    def test_dict_round_trip(self):
        root = ocontext.new_trace("serve").child()
        back = ocontext.TraceContext.from_dict(root.to_dict())
        assert back == root

    def test_from_dict_tolerates_garbage(self):
        assert ocontext.TraceContext.from_dict(None) is None
        assert ocontext.TraceContext.from_dict({}) is None
        assert ocontext.TraceContext.from_dict({"trace_id": 7}) is None
        partial = ocontext.TraceContext.from_dict({"trace_id": "abcd"})
        assert partial is not None and partial.trace_id == "abcd"
        assert partial.span_id  # minted, not empty

    def test_traceparent_round_trip(self):
        root = ocontext.new_trace("serve")
        parsed = ocontext.from_traceparent(root.to_traceparent())
        assert parsed is not None
        assert parsed.trace_id == root.trace_id
        assert parsed.parent_id == root.span_id

    def test_traceparent_rejects_malformed(self):
        for bad in (None, "", "junk", "00-zzzz-1111-01",
                    "00-" + "0" * 32 + "-00f067aa0ba902b7-01"):
            assert ocontext.from_traceparent(bad) is None

    def test_bind_nests_and_survives_exceptions(self):
        outer = ocontext.new_trace("cli")
        inner = outer.child()
        with ocontext.bind(outer):
            assert ocontext.current() is outer
            with pytest.raises(RuntimeError):
                with ocontext.bind(inner):
                    assert ocontext.current_trace_id() == inner.trace_id
                    raise RuntimeError("boom")
            assert ocontext.current() is outer
        assert ocontext.current() is None

    def test_binding_is_thread_local(self):
        seen = {}

        def worker():
            seen["other"] = ocontext.current()

        with ocontext.bind(ocontext.new_trace("cli")):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["other"] is None


# ---------------------------------------------------------------------------
# structured logging: repro.log/1
# ---------------------------------------------------------------------------

class TestStructuredLogging:
    def test_unconfigured_is_a_noop(self):
        olog.info("ignored", x=1)
        assert olog.records() == []
        assert not olog.is_enabled("error")

    def test_level_gate(self):
        olog.configure(level="warning")
        olog.debug("d")
        olog.info("i")
        olog.warning("w")
        olog.error("e")
        assert [r["event"] for r in olog.records()] == ["w", "e"]
        assert olog.is_enabled("error")
        assert not olog.is_enabled("info")

    def test_record_shape_and_trace_attachment(self):
        olog.configure(level="debug")
        ctx = ocontext.new_trace("cli")
        obs.enable()
        with ocontext.bind(ctx), obs.span("stage.outer"):
            olog.info("hello", detail="world")
        (rec,) = olog.records(event="hello")
        assert rec["type"] == "log" and rec["level"] == "info"
        assert rec["trace"] == ctx.trace_id
        assert rec["span"] >= 1
        assert rec["detail"] == "world"
        assert isinstance(rec["ts"], float)
        # the same record is findable by its trace id
        assert olog.records(trace=ctx.trace_id) == [rec]

    def test_rate_limit_drops_visibly(self, monkeypatch):
        monkeypatch.setattr(olog, "RATE_LIMIT", 5)
        olog.configure(level="debug")
        for _ in range(25):
            olog.info("hot")
        kept = olog.records(event="hot")
        assert len(kept) == 5
        # force a new window: the next record carries the tally
        olog._buckets["hot"][0] -= 1
        olog.info("hot")
        assert olog.records(event="hot")[-1]["dropped"] == 20

    def test_file_sink_round_trip(self, tmp_path):
        path = tmp_path / "run.log"
        olog.configure(file=path, level="info")
        with ocontext.bind(ocontext.new_trace("cli")) as ctx:
            olog.info("first", n=1)
            olog.warning("second")
        olog.reset()
        parsed = olog.read_log(path)
        assert parsed["schema"] == olog.LOG_SCHEMA
        events = [r["event"] for r in parsed["records"]]
        assert events == ["first", "second"]
        assert all(r["trace"] == ctx.trace_id
                   for r in parsed["records"])

    def test_read_log_skips_torn_lines_rejects_foreign(self, tmp_path):
        path = tmp_path / "torn.log"
        olog.configure(file=path, level="info")
        olog.info("ok")
        olog.reset()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "log", "event": "tr')  # torn write
        parsed = olog.read_log(path)
        assert [r["event"] for r in parsed["records"]] == ["ok"]
        foreign = tmp_path / "foreign.log"
        foreign.write_text('{"type": "header", "schema": "other/9"}\n')
        with pytest.raises(ValueError):
            olog.read_log(foreign)
        headerless = tmp_path / "headerless.log"
        headerless.write_text('{"type": "log", "event": "x"}\n')
        with pytest.raises(ValueError):
            olog.read_log(headerless)


# ---------------------------------------------------------------------------
# the slow-query log (span-close hook)
# ---------------------------------------------------------------------------

class TestSlowQueryLog:
    def test_solver_spans_over_threshold_are_logged(self):
        olog.configure(level="info", slow_query_ms=0.0)
        obs.enable()
        ctx = ocontext.new_trace("cli")
        with ocontext.bind(ctx):
            with obs.span("smt.check", clauses=3):
                pass
            with obs.span("render.table"):  # not a solver stage
                pass
        slow = olog.records(event="slow_query")
        assert [r["name"] for r in slow] == ["smt.check"]
        assert slow[0]["trace"] == ctx.trace_id
        assert slow[0]["dur_ms"] >= 0.0
        assert slow[0]["attrs"] == {"clauses": 3}

    def test_threshold_filters_fast_spans(self):
        olog.configure(level="info", slow_query_ms=60_000.0)
        obs.enable()
        with obs.span("qe.cooper"):
            pass
        assert olog.records(event="slow_query") == []
        assert olog.slow_query_ms() == 60_000.0


# ---------------------------------------------------------------------------
# acceptance: one trace id across the fork boundary
# ---------------------------------------------------------------------------

class TestBatchTraceEndToEnd:
    def test_one_trace_id_links_batch_run_across_workers(self, tmp_path):
        """A bound trace follows ``triage_many`` into forked workers:
        the batch envelope, every outcome envelope, every worker span
        event, every telemetry snapshot and the shared log file all
        carry the same trace_id."""
        log_path = tmp_path / "batch.log"
        olog.configure(file=log_path, level="info")
        root = ocontext.new_trace("test")
        obs.enable()
        with ocontext.bind(root):
            result = triage_many(
                ["p01_accumulate", "p02_wordcount"], jobs=2)
        envelope = result.to_dict()
        assert envelope["trace_id"] == root.trace_id
        assert len(result.outcomes) == 2
        for outcome in result.outcomes:
            assert outcome.trace_id == root.trace_id
            assert outcome.to_dict()["trace_id"] == root.trace_id
            snap = outcome.telemetry
            assert snap is not None
            assert snap.get("trace") == root.trace_id
            # span events produced inside the worker process carry it
            traced = [e for e in outcome.events
                      if e.get("trace") == root.trace_id]
            assert traced, "no worker span event carries the trace id"
        olog.reset()
        parsed = olog.read_log(log_path)
        by_event = {r["event"] for r in parsed["records"]
                    if r.get("trace") == root.trace_id}
        assert {"batch.start", "batch.done"} <= by_event

    def test_provenance_nodes_carry_the_trace(self):
        from repro.obs import provenance as prov

        prov.enable()
        try:
            ctx = ocontext.new_trace("test")
            with obs.capture() as cap, ocontext.bind(ctx):
                prov.record("abduction.round", round=1)
            nodes = [n for n in cap.nodes
                     if n.get("trace") == ctx.trace_id]
            assert len(nodes) == 1
            assert nodes[0]["kind"] == "abduction.round"
        finally:
            prov.disable()
            prov.reset()
