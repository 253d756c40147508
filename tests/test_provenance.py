"""Tests for the provenance layer (repro.obs.provenance).

The load-bearing property is the satellite requirement: on every
Figure 7 benchmark, the derivation DAG behind a non-discharged verdict
must contain at least one MSA search node and the Gamma-vs-Upsilon cost
comparison that picked which query to ask — i.e. the trace really is
the evidence the paper's abductive loop rests on, not just timing data.
The ``repro.trace/1`` stream must round-trip losslessly, and the chrome
and prometheus exporters must emit structurally valid output.
"""

from __future__ import annotations

import io
import json
import sys
import threading

import pytest

from repro import obs
from repro.obs import provenance as prov
from repro.batch import triage_many
from repro.qe.cooper import clear_qe_caches
from repro.suite import BENCHMARKS

FIGURE7 = [b.name for b in BENCHMARKS]


@pytest.fixture(autouse=True)
def clean_state():
    """Every test starts with both layers off and empty."""
    prov.disable()
    prov.reset()
    obs.disable()
    obs.reset()
    yield
    prov.disable()
    prov.reset()
    obs.disable()
    obs.reset()


class TestRecorder:
    def test_disabled_records_nothing(self):
        obs.enable()
        with obs.capture() as cap:
            assert prov.record("entailment", lemma="1") == 0
        assert list(cap.nodes) == []

    def test_enable_also_enables_core_obs(self):
        prov.enable()
        assert prov.is_enabled()
        assert obs.is_enabled()

    def test_nodes_are_stamped_with_span_and_sequence(self):
        prov.enable()
        with obs.capture() as cap, obs.span("outer"):
            node_id = prov.record("query", text="I and phi sat?",
                                  answer="yes")
        (node,) = cap.nodes
        assert node["id"] == node_id
        assert node["kind"] == "query"
        assert node["span"] > 0
        assert node["at"] > 0
        assert node["text"] == "I and phi sat?"

    def test_a_scope_holds_the_nodes_recorded_inside_it(self):
        prov.enable()
        prov.record("entailment", lemma="1")
        with obs.capture() as outer:
            prov.record("entailment", lemma="2")
            with obs.capture() as inner:
                prov.record("verdict", verdict="real bug")
            assert [n["kind"] for n in outer.nodes] == \
                ["entailment", "verdict"]
        assert [n.get("lemma") for n in outer.nodes] == ["2", None]
        assert [n["kind"] for n in inner.nodes] == ["verdict"]

    def test_recording_is_confined_to_its_context(self):
        """Two barrier-interleaved threads, each in its own scope, one
        inside ``recording()``: only that one keeps nodes, and the
        switch is off everywhere once the block exits."""
        obs.enable()
        barrier = threading.Barrier(2, timeout=10)
        kept = {}

        def worker(records):
            with obs.capture() as cap:
                with prov.recording() if records else obs.capture():
                    barrier.wait()
                    prov.record("query", text="q")
                    barrier.wait()
            kept[records] = [n["kind"] for n in cap.nodes]

        threads = [threading.Thread(target=worker, args=(flag,))
                   for flag in (True, False)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        assert not any(thread.is_alive() for thread in threads)
        assert kept == {True: ["query"], False: []}
        assert not prov.is_enabled()
        assert prov.record("query") == 0

    def test_reset_restarts_ids(self):
        prov.enable()
        prov.record("query")
        prov.reset()
        assert prov.record("query") == 1

    def test_concurrent_records_get_distinct_ids(self):
        # a lost update in the id allocator shows as a duplicate id
        prov.enable()
        per_thread, ids = 20_000, [[] for _ in range(4)]

        def work(out):
            for _ in range(per_thread):
                out.append(prov.record("query"))

        threads = [threading.Thread(target=work, args=(out,))
                   for out in ids]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        every = [i for out in ids for i in out]
        assert len(every) == len(set(every)) == 4 * per_thread

    def test_fmla_truncates_long_renderings(self):
        assert prov.fmla("x <= 0") == "x <= 0"
        long = prov.fmla("a" * 500)
        assert len(long) == 160
        assert long.endswith("...")


class TestDerivationDagShape:
    """The satellite requirement, checked on all 11 Figure 7 problems."""

    @pytest.fixture(scope="class")
    def figure7(self):
        prov.disable()
        prov.reset()
        obs.disable()
        obs.reset()
        # forked workers inherit this process's QE memos; start them cold
        clear_qe_caches()
        prov.enable()  # switches obs on too
        try:
            result = triage_many(FIGURE7, jobs=2)
        finally:
            prov.disable()
            obs.disable()
        return result

    def test_every_report_carries_a_dag(self, figure7):
        assert sorted(o.name for o in figure7.outcomes) == sorted(FIGURE7)
        for outcome in figure7.outcomes:
            assert outcome.provenance, f"{outcome.name}: empty DAG"

    def test_every_dag_ends_in_a_verdict_node(self, figure7):
        for outcome in figure7.outcomes:
            last = outcome.provenance[-1]
            assert last["kind"] == "verdict", outcome.name
            # the engine records its own vocabulary; it must map onto the
            # outcome's classification through the shared schema
            from repro.schema import TriageVerdict
            mapped = TriageVerdict.from_classification(last["verdict"])
            assert mapped.value == outcome.classification
            assert last["rounds"] == outcome.rounds
            assert last["queries"] == outcome.num_queries
            assert last["reason"]

    def test_non_discharged_reports_have_msa_and_choice(self, figure7):
        """A verdict that needed the oracle must be backed by an MSA
        search and the Gamma-vs-Upsilon comparison that ordered it."""
        for outcome in figure7.outcomes:
            if outcome.num_queries == 0:
                continue  # discharged by Lemma 1/2 before any query
            kinds = [n["kind"] for n in outcome.provenance]
            assert "msa.node" in kinds, outcome.name
            choices = [n for n in outcome.provenance
                       if n["kind"] == "choice"]
            assert choices, outcome.name
            for choice in choices:
                assert choice["chosen"] in ("invariant", "witness")
                assert "gamma_cost" in choice
                assert "upsilon_cost" in choice

    def test_entailment_nodes_carry_smt_verdicts(self, figure7):
        for outcome in figure7.outcomes:
            checks = [n for n in outcome.provenance
                      if n["kind"] == "entailment"]
            assert checks, outcome.name
            for node in checks:
                assert isinstance(node["verdict"], bool)
                assert node["lemma"] in ("consistency", "lemma-1",
                                         "lemma-2")
                assert node["check"]

    def test_qe_nodes_count_atoms_and_bounds(self, figure7):
        qe_nodes = [n for o in figure7.outcomes for n in o.provenance
                    if n["kind"] == "qe.eliminate"]
        assert qe_nodes  # every benchmark quantifies over MSA variables
        for node in qe_nodes:
            assert node["var"]
            assert node["delta"] >= 1
            assert node["lcm"] >= 1
            assert node["atoms_before"] >= 0
            assert node["atoms_after"] >= 0
            assert node["lowers"] >= 0 and node["uppers"] >= 0

    def test_msa_nodes_name_their_candidates(self, figure7):
        msa_nodes = [n for o in figure7.outcomes for n in o.provenance
                     if n["kind"] == "msa.node"]
        assert msa_nodes
        for node in msa_nodes:
            assert node["status"] in ("kept", "infeasible")
            assert isinstance(node["variables"], (list, tuple))
            if node["status"] == "kept" and node.get("assignment"):
                assert set(node["assignment"]) <= set(node["variables"])

    def test_abduce_nodes_link_msa_to_formula(self, figure7):
        abduces = [n for o in figure7.outcomes for n in o.provenance
                   if n["kind"] == "abduce" and n["cost"] is not None]
        assert abduces
        for node in abduces:
            assert node["abduction_kind"] in ("proof_obligation",
                                              "failure_witness")
            assert node["formula"]
            assert node["cost"] >= 0

    def test_render_tree_shows_concrete_leaves(self, figure7):
        events = [dict(e, report=o.name)
                  for o in figure7.outcomes for e in o.events]
        nodes = [dict(n, report=o.name)
                 for o in figure7.outcomes for n in o.provenance]
        text = prov.render_tree(events, nodes, report="p10_toggle")
        assert "triage.report" in text
        assert "[msa] candidate" in text
        assert "[choice] ask" in text
        assert "[verdict]" in text


class TestTraceRoundTrip:
    def test_stream_round_trips_losslessly(self):
        prov.enable()
        with obs.capture() as cap, obs.span("work"):
            prov.record("entailment", lemma="1",
                        check="I |= phi", verdict=True)
            prov.record("verdict", verdict="false alarm", rounds=1,
                        queries=0, reason="Lemma 1")
        events, nodes, snap = list(cap.events), list(cap.nodes), \
            cap.snapshot

        buf = io.StringIO()
        count = prov.export_trace(buf, events=events, prov_nodes=nodes,
                                  snapshot=snap)
        # header + each event + each node + snapshot
        assert count == 1 + len(events) + len(nodes) + 1

        buf.seek(0)
        parsed = prov.read_trace(buf)
        assert parsed["schema"] == prov.TRACE_SCHEMA
        assert parsed["events"] == events
        assert parsed["nodes"] == nodes
        assert parsed["snapshot"] == {"type": "snapshot", **snap}

    def test_round_trip_via_file(self, tmp_path):
        prov.enable()
        with obs.capture() as cap, obs.span("s"):
            prov.record("query", text="q", answer="yes")
        path = tmp_path / "run.trace.jsonl"
        prov.export_trace(path, events=list(cap.events),
                          prov_nodes=list(cap.nodes), snapshot=cap.snapshot)
        parsed = prov.read_trace(path)
        assert [n["kind"] for n in parsed["nodes"]] == ["query"]
        assert parsed["snapshot"]["spans"]["s"]["count"] == 1

    def test_header_line_is_first_and_versioned(self, tmp_path):
        path = tmp_path / "t.jsonl"
        prov.export_trace(path, events=[], prov_nodes=[], snapshot={})
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"type": "header", "schema": "repro.trace/1"}

    def test_missing_header_is_rejected(self):
        buf = io.StringIO('{"type": "span", "name": "x"}\n')
        with pytest.raises(ValueError, match="missing header"):
            prov.read_trace(buf)

    def test_foreign_schema_is_rejected(self):
        buf = io.StringIO('{"type": "header", "schema": "repro.trace/9"}\n')
        with pytest.raises(ValueError, match="unsupported trace schema"):
            prov.read_trace(buf)


class TestRenderTree:
    def _span(self, id, name, parent=0, dur=0.001, **attrs):
        return {"type": "span", "id": id, "parent": parent, "name": name,
                "dur_s": dur, "depth": 0, "attrs": attrs}

    def test_nodes_join_onto_their_spans(self):
        events = [self._span(1, "engine.run"),
                  self._span(2, "msa.find", parent=1)]
        nodes = [{"type": "prov", "id": 1, "span": 2, "at": 3,
                  "kind": "msa.node", "variables": ["n"], "cost": 2,
                  "status": "kept"}]
        text = prov.render_tree(events, nodes)
        lines = text.splitlines()
        assert lines[0].startswith("engine.run")
        assert lines[1].strip().startswith("msa.find")
        assert "[msa] candidate {n} cost=2: kept" in lines[2]

    def test_runs_of_bare_leaf_spans_fold(self):
        events = [self._span(1, "triage.report")]
        events += [self._span(i, "smt.check", parent=1, dur=0.002)
                   for i in range(2, 42)]
        text = prov.render_tree(events, [])
        assert "smt.check x40" in text
        assert text.count("smt.check") == 1

    def test_orphan_nodes_survive_span_eviction(self):
        nodes = [{"type": "prov", "id": 1, "span": 999, "at": 1,
                  "kind": "verdict", "verdict": "real bug", "rounds": 1,
                  "queries": 2, "reason": "oracle affirmed"}]
        text = prov.render_tree([], nodes)
        assert "[verdict] real bug" in text

    def test_report_filter_selects_one_lane(self):
        events = [dict(self._span(1, "triage.report"), report="a"),
                  dict(self._span(2, "triage.report"), report="b")]
        text = prov.render_tree(events, [], report="a")
        assert text.count("triage.report") == 1


class TestExporters:
    def test_chrome_trace_is_perfetto_shaped(self, tmp_path):
        obs.enable()
        with obs.capture() as cap, obs.span("outer"):
            with obs.span("inner"):
                pass
        path = tmp_path / "trace.json"
        doc = obs.export_chrome(path, list(cap.events))
        on_disk = json.loads(path.read_text())
        assert on_disk == doc
        assert isinstance(doc["traceEvents"], list)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases <= {"M", "X"}
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        for e in complete:
            assert {"pid", "tid", "ts", "dur", "name"} <= set(e)
            assert e["dur"] >= 0

    def test_prometheus_text_format(self):
        obs.enable()
        obs.inc("smt.is_sat.miss", 3)
        obs.observe("qe.blowup", 2.0)
        with obs.span("smt.check"):
            pass
        text = obs.export_prometheus()
        assert "# TYPE repro_smt_is_sat_miss_total counter" in text
        assert "repro_smt_is_sat_miss_total 3" in text
        assert 'repro_hist{name="qe.blowup",quantile="0.95"} 2.0' in text
        assert 'repro_span_seconds_count{span="smt.check"} 1' in text
        assert text.endswith("\n")

    def test_histograms_merge_across_snapshots(self):
        obs.enable()
        for v in (1.0, 2.0, 3.0):
            obs.observe("h", v)
        a = obs.snapshot()
        obs.reset()
        obs.enable()
        for v in (10.0, 20.0):
            obs.observe("h", v)
        b = obs.snapshot()
        merged = obs.merge_snapshots(a, b)
        h = merged["hists"]["h"]
        assert h["count"] == 5
        assert h["total"] == 36.0
        assert h["min"] == 1.0 and h["max"] == 20.0
        assert h["p50"] in (2.0, 3.0)
