"""Tests for the observability layer (repro.obs)."""

import pytest

from repro import obs
from repro.batch import triage_many


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts disabled with an empty state and leaves no trace."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestDisabledFastPath:
    def test_span_returns_shared_null_span(self):
        assert obs.span("a") is obs.NULL_SPAN
        assert obs.span("b", attr=1) is obs.NULL_SPAN

    def test_null_span_is_reentrant(self):
        with obs.span("outer") as s:
            assert s is obs.NULL_SPAN
            with obs.span("inner"):
                pass
        assert obs.snapshot()["spans"] == {}

    def test_probes_record_nothing(self):
        with obs.capture() as cap:
            obs.inc("c")
            obs.gauge("g", 3.5)
            with obs.span("s"):
                pass
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["spans"] == {}
        assert list(cap.events) == []

    def test_capture_yields_none_snapshot(self):
        with obs.capture() as cap:
            obs.inc("c")
        assert cap.snapshot is None


class TestEnabled:
    def test_counters_accumulate(self):
        obs.enable()
        obs.inc("hits")
        obs.inc("hits")
        obs.inc("bytes", 10)
        assert obs.snapshot()["counters"] == {"hits": 2, "bytes": 10}

    def test_gauge_last_write_wins(self):
        obs.enable()
        obs.gauge("cost", 1.0)
        obs.gauge("cost", 7.0)
        assert obs.snapshot()["gauges"]["cost"] == 7.0

    def test_spans_nest_and_record_depth(self):
        obs.enable()
        with obs.capture() as cap:
            with obs.span("outer"):
                with obs.span("inner", kind="x"):
                    pass
        ev = list(cap.events)
        # inner closes first, at depth 1 (inside outer)
        assert [e["name"] for e in ev] == ["inner", "outer"]
        assert ev[0]["depth"] == 1 and ev[1]["depth"] == 0
        assert ev[0]["attrs"] == {"kind": "x"}
        stats = obs.snapshot()["spans"]
        assert stats["outer"]["count"] == 1
        assert stats["inner"]["count"] == 1
        assert stats["outer"]["total_s"] >= stats["inner"]["total_s"]

    def test_span_records_error_type(self):
        obs.enable()
        with obs.capture() as cap, pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("nope")
        assert cap.events[-1]["error"] == "ValueError"

    def test_span_aggregates_survive_many_uses(self):
        obs.enable()
        for _ in range(5):
            with obs.span("loop"):
                pass
        stats = obs.snapshot()["spans"]["loop"]
        assert stats["count"] == 5
        assert stats["max_s"] <= stats["total_s"]

    def test_set_attaches_attributes_mid_span(self):
        obs.enable()
        with obs.capture() as cap, obs.span("s") as sp:
            sp.set(found=3)
        assert cap.events[-1]["attrs"] == {"found": 3}

    def test_buffer_is_bounded_but_stats_are_not(self, monkeypatch):
        """A scope keeps its newest events only; its span stats, and
        the process aggregate it folds into, count every span."""
        monkeypatch.setattr(obs.core, "_EVENT_BUFFER", 4)
        obs.enable()
        with obs.capture() as cap:
            for i in range(10):
                with obs.span("tick", i=i):
                    pass
        assert [e["attrs"]["i"] for e in cap.events] == [6, 7, 8, 9]
        assert cap.snapshot["spans"]["tick"]["count"] == 10
        assert obs.snapshot()["spans"]["tick"]["count"] == 10

    def test_disable_keeps_data_readable(self):
        obs.enable()
        obs.inc("kept")
        obs.disable()
        assert obs.snapshot()["counters"]["kept"] == 1
        obs.inc("kept")  # no-op while disabled
        assert obs.snapshot()["counters"]["kept"] == 1


class TestMergeAndRates:
    def test_merge_sums_counters_and_spans(self):
        a = {"enabled": True, "counters": {"x": 1},
             "gauges": {"g": 1.0},
             "spans": {"s": {"count": 2, "total_s": 1.0, "max_s": 0.7}}}
        b = {"enabled": True, "counters": {"x": 2, "y": 5},
             "gauges": {"g": 9.0},
             "spans": {"s": {"count": 1, "total_s": 0.5, "max_s": 0.5}}}
        merged = obs.merge_snapshots(a, None, b)
        assert merged["counters"] == {"x": 3, "y": 5}
        assert merged["gauges"]["g"] == 9.0
        assert merged["spans"]["s"] == {
            "count": 3, "total_s": 1.5, "max_s": 0.7,
        }

    def test_merge_of_nothing_is_empty(self):
        merged = obs.merge_snapshots()
        assert merged["counters"] == {} and merged["spans"] == {}

    def test_hit_rate(self):
        snap = {"counters": {"c.hit": 3, "c.miss": 1}}
        assert obs.hit_rate(snap, "c") == 0.75
        assert obs.hit_rate(snap, "absent") is None


class TestCapture:
    def test_capture_diffs_against_entry_state(self):
        obs.enable()
        obs.inc("pre", 100)
        with obs.span("pre"):
            pass
        with obs.capture() as cap:
            obs.inc("pre", 1)
            obs.inc("fresh", 2)
            with obs.span("pre"):
                pass
        snap = cap.snapshot
        assert snap["counters"] == {"pre": 1, "fresh": 2}
        assert snap["spans"]["pre"]["count"] == 1
        # the global state is untouched by the capture
        assert obs.snapshot()["counters"]["pre"] == 101

    def test_capture_is_exception_safe(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with obs.capture() as cap:
                obs.inc("partial")
                raise RuntimeError
        assert cap.snapshot["counters"] == {"partial": 1}

    def test_nested_scope_folds_into_the_enclosing_one(self):
        obs.enable()
        obs.gauge("before", 1.0)
        with obs.capture() as outer:
            obs.inc("outer")
            with obs.capture() as inner:
                obs.inc("inner")
                obs.gauge("set_inside", 2.0)
            assert obs.snapshot()["counters"] == {}
        assert inner.snapshot["counters"] == {"inner": 1}
        assert outer.snapshot["counters"] == {"outer": 1, "inner": 1}
        # a scope's gauges are the ones set inside it
        assert outer.snapshot["gauges"] == {"set_inside": 2.0}
        assert obs.snapshot()["counters"] == {"outer": 1, "inner": 1}
        assert obs.snapshot()["gauges"] == {"before": 1.0,
                                            "set_inside": 2.0}

    def test_concurrent_scopes_capture_only_their_own_activity(self):
        """Two barrier-interleaved threads, each in ``capture()``, each
        increment their own counter and open their own span: each
        snapshot holds only its own, the aggregate holds both."""
        import threading

        obs.enable()
        barrier = threading.Barrier(2, timeout=10)
        snaps = {}

        def worker(tag):
            with obs.capture() as cap:
                barrier.wait()
                obs.inc(f"count.{tag}")
                with obs.span(f"span.{tag}"):
                    barrier.wait()
                barrier.wait()
            snaps[tag] = cap.snapshot

        threads = [threading.Thread(target=worker, args=(tag,))
                   for tag in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert not any(t.is_alive() for t in threads)
        for tag in "ab":
            assert snaps[tag]["counters"] == {f"count.{tag}": 1}
            assert set(snaps[tag]["spans"]) == {f"span.{tag}"}
        aggregate = obs.snapshot()
        assert aggregate["counters"] == {"count.a": 1, "count.b": 1}
        assert set(aggregate["spans"]) == {"span.a", "span.b"}

    def test_scoped_increments_are_never_lost(self):
        """4 scoped threads x 200,000 increments under a 1 us switch
        interval: the aggregate reads exactly 800,000."""
        import sys
        import threading

        obs.enable()

        def worker():
            with obs.capture():
                for _ in range(200_000):
                    obs.inc("shared")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert obs.snapshot()["counters"]["shared"] == 800_000


    def test_unscoped_probes_are_never_lost(self):
        """2 threads x 20,000 unscoped increments, observations and
        spans race 2 threads x 2,000 one-probe scopes folding into the
        aggregate, under a 1 us switch interval: the aggregate counts
        exactly 44,000 of each."""
        import sys
        import threading

        obs.enable()

        def probe():
            obs.inc("shared")
            obs.observe("sample", 1.0)
            with obs.span("tick"):
                pass

        def unscoped():
            for _ in range(20_000):
                probe()

        def scoped():
            for _ in range(2_000):
                with obs.capture():
                    probe()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work)
                       for work in (unscoped, unscoped, scoped, scoped)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        snap = obs.snapshot()
        assert snap["counters"]["shared"] == 44_000
        assert snap["hists"]["sample"]["count"] == 44_000
        assert snap["spans"]["tick"]["count"] == 44_000
        assert snap["hists"]["tick"]["count"] == 44_000

    def test_a_scope_holds_the_events_recorded_inside_it(self):
        obs.enable()
        with obs.span("before"):
            pass
        with obs.capture() as outer:
            with obs.span("outer"):
                with obs.capture() as inner:
                    with obs.span("inner"):
                        pass
                assert [e["name"] for e in outer.events] == ["inner"]
        assert [e["name"] for e in inner.events] == ["inner"]
        assert [e["name"] for e in outer.events] == ["inner", "outer"]
        # a span closed outside every scope is kept by none, but the
        # process aggregate still counts it
        assert obs.snapshot()["spans"]["before"]["count"] == 1


class TestPercentiles:
    def test_one_sort_gives_what_percentile_gives(self):
        import random

        from repro.obs.core import percentiles

        rng = random.Random(2012)
        for size in (0, 1, 2, 3, 19, 20, 21, 99, 100, 101, 2047, 2048):
            for _ in range(5):
                samples = [rng.choice((rng.random(), rng.randint(0, 9)))
                           for _ in range(size)]
                assert percentiles(samples) == {
                    key: obs.percentile(samples, q) for key, q in
                    (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))}


class TestStubbed:
    def test_stubbed_turns_probes_into_noops(self):
        obs.enable()
        with obs.stubbed():
            obs.inc("gone")
            assert obs.span("gone") is obs.NULL_SPAN
        obs.inc("back")
        snap = obs.snapshot()
        assert "gone" not in snap["counters"]
        assert snap["counters"]["back"] == 1


class TestInstrumentedPipeline:
    def test_spans_and_cache_counters_from_a_real_run(self):
        from repro.api import Pipeline

        obs.enable()
        source = """
        program foo(flag, unsigned n) {
          var k = 1, i = 0, j = 0;
          if (flag != 0) { k = n * n; }
          while (i <= n) { i = i + 1; j = j + i; }
          var z = k + i + j;
          assert(z > 2 * n);
        }
        """
        outcome = Pipeline().analyze(source)
        snap = obs.snapshot()
        assert "api.analyze" in snap["spans"]
        assert snap["counters"].get("smt.is_sat.miss", 0) > 0
        # the outcome carries its own capture of the same activity
        assert outcome.telemetry is not None
        assert "api.analyze" in outcome.telemetry["spans"]

    def test_batch_telemetry_merged_across_outcomes(self):
        obs.enable()
        result = triage_many(["d01_plus_one", "d02_negate"], jobs=1)
        assert result.telemetry is not None
        for outcome in result.outcomes:
            assert outcome.telemetry is not None
            assert "triage.report" in outcome.telemetry["spans"]
            assert any(e.get("name") == "triage.report"
                       for e in outcome.events)
        merged = result.telemetry
        assert merged["spans"]["triage.report"]["count"] == 2
        total_queries = sum(
            o.telemetry["counters"].get("engine.queries", 0)
            for o in result.outcomes
        )
        assert merged["counters"].get("engine.queries", 0) == total_queries


class TestDegradedTelemetryMerge:
    """A quarantined report's partial telemetry must survive into the
    fleet-wide merge, labelled with the attempt that produced it."""

    def test_failed_attempts_keep_partial_telemetry(self):
        from repro.limits import Limits
        from repro.limits.faults import install

        obs.enable()
        install("exhaust@smt@p10_toggle")
        try:
            result = triage_many(
                ["d01_plus_one", "p10_toggle"], jobs=1,
                limits=Limits(deadline=5.0, retries=1),
            )
        finally:
            install(None)

        target = next(o for o in result.outcomes if o.name == "p10_toggle")
        assert target.degraded and target.attempts == 2
        # the final attempt's partial snapshot is attached and stamped
        assert target.telemetry is not None
        assert target.telemetry["report"] == "p10_toggle"
        assert target.telemetry["attempt"] == 1
        # the first attempt's snapshot rides along separately
        assert len(target.prior_telemetry) == 1
        assert target.prior_telemetry[0]["attempt"] == 0

        # the merge sums the quarantined report's counters too: its SMT
        # activity (cut short at the injected checkpoint) is visible
        merged = result.telemetry
        assert merged is not None
        assert {0, 1} <= set(merged["attempts"])
        bystander = next(o for o in result.outcomes
                         if o.name == "d01_plus_one")
        for name in ("smt.is_sat.miss",):
            contributed = (
                bystander.telemetry["counters"].get(name, 0)
                + target.telemetry["counters"].get(name, 0)
                + sum(s["counters"].get(name, 0)
                      for s in target.prior_telemetry)
            )
            assert merged["counters"].get(name, 0) == contributed


# ---------------------------------------------------------------------------
# span nesting state: exception paths and cross-thread isolation
# ---------------------------------------------------------------------------

class TestSpanCleanup:
    def test_exception_unwinds_nesting_completely(self):
        """A span raised through must close and leave no nesting state:
        the next root span sees parent 0 / depth 0 (regression — a
        leaked stack entry used to re-parent later spans)."""
        obs.enable()
        with obs.capture() as cap:
            with pytest.raises(ValueError):
                with obs.span("outer"):
                    with obs.span("inner"):
                        raise ValueError("boom")
            with obs.span("fresh"):
                pass
        fresh = [e for e in cap.events if e["name"] == "fresh"][0]
        assert fresh["parent"] == 0
        assert fresh["depth"] == 0
        by_name = {e["name"]: e for e in cap.events}
        assert by_name["outer"]["error"] == "ValueError"
        assert by_name["inner"]["error"] == "ValueError"

    def test_out_of_order_close_is_tolerated(self):
        """Closing an outer span before an inner one (generator-held
        spans, exception trampolines) removes it from mid-stack instead
        of popping the wrong id."""
        obs.enable()
        with obs.capture() as cap:
            outer = obs.span("outer").__enter__()
            inner = obs.span("inner").__enter__()
            outer.__exit__(None, None, None)
            inner.__exit__(None, None, None)
            with obs.span("fresh"):
                pass
        fresh = [e for e in cap.events if e["name"] == "fresh"][0]
        assert fresh["parent"] == 0
        assert fresh["depth"] == 0

    def test_span_stacks_are_thread_local(self):
        """Concurrent threads' spans never parent across threads."""
        import threading

        obs.enable()
        crossed = []

        def worker(tag):
            for _ in range(50):
                with obs.span(f"root.{tag}") as s:
                    if s.parent != 0:
                        crossed.append((tag, s.parent))
                    with obs.span(f"leaf.{tag}"):
                        pass

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert crossed == []
        snap = obs.snapshot()
        for i in range(4):
            assert snap["spans"][f"root.{i}"]["count"] == 50


# ---------------------------------------------------------------------------
# Prometheus exposition compliance
# ---------------------------------------------------------------------------

class TestPrometheusCompliance:
    def test_counters_have_help_type_and_total_suffix(self):
        obs.enable()
        obs.inc("cache.store.hit", 2)
        obs.inc("smt.is_sat.miss")
        obs.gauge("serve.inflight", 3.0)
        with obs.span("qe.cooper"):
            pass
        obs.observe("qe.blowup", 1.5)
        text = obs.export_prometheus()
        lines = text.splitlines()
        for name in ("cache_store_hit", "smt_is_sat_miss"):
            metric = f"repro_{name}_total"
            assert f"# HELP {metric} " in text
            assert f"# TYPE {metric} counter" in text
            assert any(line.startswith(f"{metric} ")
                       for line in lines)
        assert "# TYPE repro_serve_inflight gauge" in text
        assert "# HELP repro_serve_inflight " in text

    def test_every_sample_is_preceded_by_its_type(self):
        """Strict exposition-format check: no sample line appears
        without a # TYPE comment for its metric family."""
        obs.enable()
        obs.inc("a.b", 1)
        obs.gauge("g", 1.0)
        with obs.span("s.t"):
            pass
        obs.observe("h.x", 0.5)
        typed = set()
        for line in obs.export_prometheus().splitlines():
            if line.startswith("# TYPE "):
                typed.add(line.split()[2])
            elif line and not line.startswith("#"):
                family = line.split("{")[0].split(" ")[0]
                # a summary's samples may carry _count/_sum/_max
                # suffixes on the declared family name
                for suffix in ("_count", "_sum", "_max"):
                    if (family.endswith(suffix)
                            and family[: -len(suffix)] in typed):
                        family = family[: -len(suffix)]
                        break
                assert family in typed, (
                    f"sample {line!r} has no preceding # TYPE")
