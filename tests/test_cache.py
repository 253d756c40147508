"""The persistent content-addressed store and warm/incremental
re-triage.

The acceptance bar for the caching layer: a warm-cache re-triage of the
full Figure 7 suite must perform **zero** MSA and QE recomputation —
observable as obs counters — while producing byte-identical verdicts to
the cold run; ``incremental`` mode must recompute only reports whose
``(I, phi)`` judgment digest changed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

import repro
from repro import obs
from repro.obs import provenance as prov
from repro.api import Pipeline
from repro.batch import triage_many
from repro.cache import STORE_VERSION, CacheStore, counting, open_store
from repro.logic.digest import DIGEST_VERSION
from repro.logic.intern import clear_intern_tables
from repro.qe.cooper import clear_qe_caches
from repro.suite import BENCHMARKS

ALL_NAMES = [b.name for b in BENCHMARKS]
FALSE_ALARMS = [b.name for b in BENCHMARKS if b.is_false_alarm]


# ---------------------------------------------------------------------------
# store unit tests
# ---------------------------------------------------------------------------

class TestCacheStore:
    def test_roundtrip_and_counters(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        with counting() as ops:
            assert store.get("entail", "aa" * 16) is None       # miss
            store.put("entail", "aa" * 16, {"consistent": True})
            assert store.get("entail", "aa" * 16) == {"consistent": True}
        assert ops == {"entail": {"hits": 1, "misses": 1, "puts": 1}}
        assert store.stats() == {"path": str(tmp_path / "cache"),
                                 "entries": 1, "max_entries": 8_192}

    def test_counting_sees_only_its_own_context(self, tmp_path):
        """Nested blocks count into the innermost; outside every block,
        and on another thread, operations are counted nowhere."""
        store = CacheStore(tmp_path / "cache")
        store.get("entail", "aa" * 16)
        with counting() as outer:
            store.get("entail", "aa" * 16)
            with counting() as inner:
                store.put("abduce", "bb" * 16, {"x": 1})
            peer = threading.Thread(
                target=store.get, args=("entail", "cc" * 16))
            peer.start()
            peer.join(timeout=10)
            assert not peer.is_alive()
        assert outer == {"entail": {"misses": 1}}
        assert inner == {"abduce": {"puts": 1}}

    def test_layout_is_versioned(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        store.put("abduce", "bb" * 16, {"feasible": False})
        entry = tmp_path / "cache" / f"{STORE_VERSION}-{DIGEST_VERSION}" \
            / "abduce" / (("bb" * 16) + ".json")
        assert entry.is_file()

    def test_corrupt_entry_is_a_miss_and_gets_deleted(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        store.put("entail", "cc" * 16, {"ok": 1})
        path = tmp_path / "cache" / f"{STORE_VERSION}-{DIGEST_VERSION}" \
            / "entail" / (("cc" * 16) + ".json")
        path.write_bytes(b'{"truncated": ')          # crashed writer
        with counting() as ops:
            assert store.get("entail", "cc" * 16) is None
        assert not path.exists()                      # cannot poison later runs
        assert ops["entail"]["corrupt"] == 1
        # non-object JSON is corruption too
        store.put("entail", "dd" * 16, {"ok": 1})
        bad = path.parent / (("dd" * 16) + ".json")
        bad.write_text("[1, 2, 3]")
        with counting() as ops:
            assert store.get("entail", "dd" * 16) is None
        assert ops["entail"] == {"corrupt": 1, "misses": 1}
        assert store.stats()["entries"] == 0

    def test_put_recreates_a_stage_directory_removed_under_it(
            self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        with counting() as ops:
            store.put("entail", "aa" * 16, {"x": 1})
            shutil.rmtree(store._path("entail", "aa" * 16).parent)
            store.put("entail", "bb" * 16, {"x": 2})
        assert store.get("entail", "bb" * 16) == {"x": 2}
        assert ops["entail"]["puts"] == 2

    def test_reopening_sees_previous_entries(self, tmp_path):
        CacheStore(tmp_path / "cache").put("smt-sat", "ee" * 16,
                                           {"sat": True})
        reopened = CacheStore(tmp_path / "cache")
        assert reopened.stats()["entries"] == 1
        assert reopened.get("smt-sat", "ee" * 16) == {"sat": True}

    def test_lru_eviction_keeps_recently_read_entries(self, tmp_path):
        store = CacheStore(tmp_path / "cache", max_entries=10)
        keys = [f"{i:02d}" * 16 for i in range(10)]
        for i, key in enumerate(keys):
            store.put("entail", key, {"i": i})
            # explicit, strictly increasing mtimes: the filesystem clock
            # is too coarse to order a tight loop by itself
            os.utime(store._path("entail", key), (1000.0 + i, 1000.0 + i))
        # refresh the oldest entry well past every other mtime...
        store.get("entail", keys[0])
        os.utime(store._path("entail", keys[0]), (2000.0, 2000.0))
        # ...then overflow: eviction drops to 90% by recency
        with counting() as ops:
            store.put("entail", "ff" * 16, {"i": 99})
        assert store.stats()["entries"] <= 10
        assert ops["entail"]["evictions"] >= 1
        assert store.get("entail", keys[0]) is not None   # refreshed: kept
        assert store.get("entail", keys[1]) is None       # oldest: evicted

    @pytest.mark.parametrize("peers", [2, 4])
    def test_shared_root_eviction_spares_peer_fresh_writes(self, tmp_path,
                                                           peers):
        """Stores on one root (the fleet's shared-cache shape), all at
        the eviction watermark: a store evicting must never unlink an
        entry a peer just wrote — the root's lock keeps a peer's rename
        out of an eviction's scan-and-unlink, so a fresh write is only
        dropped once it is a legitimate LRU victim.  Eviction keeps the
        newest ``max_entries * 9 // 10`` entries, and at most ten of
        those are hot keys, so a put followed by a missing get is a bug
        unless at least that many minus ten flood puts completed in
        between (a writer thread that stalls can be outrun).
        Even-numbered stores flood, odd-numbered ones rewrite their
        share of ten hot keys; a tiny switch interval makes the threads
        interleave inside those windows."""
        root = tmp_path / "shared"
        max_entries = 30
        stores = [CacheStore(root, max_entries=max_entries)
                  for _ in range(peers)]
        flooders, writers = stores[0::2], stores[1::2]
        per_writer = 10 // len(writers)
        outrun_after = max_entries * 9 // 10 - 10
        flood_puts = [0]  # completed flood puts, across every flooder
        flood_lock = threading.Lock()
        errors: list[BaseException] = []
        counts: dict[int, dict] = {}  # each thread's tally, per store

        def flood(n, store):
            try:
                with counting() as counts[id(store)]:
                    # unique keys: every put is fresh, so the store
                    # crosses the watermark over and over and keeps
                    # evicting
                    for i in range(200):
                        store.put("entail", f"{n:02x}{i:06x}" + "ab" * 12,
                                  {"i": i})
                        with flood_lock:
                            flood_puts[0] += 1
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def rewrite(n, store):
            hot = [f"{n * per_writer + i:02d}" * 16
                   for i in range(per_writer)]
            try:
                with counting() as counts[id(store)]:
                    for i in range(200):
                        key = hot[i % len(hot)]
                        before = flood_puts[0]
                        store.put("entail", key, {"i": i})
                        if store.get("entail", key) is None:
                            flooded = flood_puts[0] - before
                            if flooded < outrun_after:
                                raise AssertionError(
                                    f"peer eviction dropped fresh write "
                                    f"{key[:8]} after {flooded} flood puts")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=flood, args=(n, store))
                   for n, store in enumerate(flooders)]
        threads += [threading.Thread(target=rewrite, args=(n, store))
                    for n, store in enumerate(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        for store in flooders:                     # the flood evicted
            assert counts[id(store)]["entail"]["evictions"] >= 1
        for store in stores:
            assert counts[id(store)]["entail"]["corrupt"] == 0

    def test_clear_removes_entries_not_layout(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        store.put("entail", "aa" * 16, {"x": 1})
        store.clear()
        assert store.stats()["entries"] == 0
        assert store.get("entail", "aa" * 16) is None

    def test_counters_stream_into_obs(self, tmp_path):
        obs.reset()
        obs.enable()
        try:
            store = CacheStore(tmp_path / "cache")
            store.put("entail", "aa" * 16, {"x": 1})
            store.get("entail", "aa" * 16)
            store.get("entail", "bb" * 16)
            counters = obs.snapshot()["counters"]
            assert counters["cache.store.put"] == 1
            assert counters["cache.store.hit"] == 1
            assert counters["cache.store.miss"] == 1
            assert counters["cache.entail.hit"] == 1
        finally:
            obs.disable()
            obs.reset()


class TestActiveStore:
    def test_open_store_memoizes_per_path(self, tmp_path, monkeypatch):
        first = open_store(tmp_path / "cache")
        assert open_store(tmp_path / "cache") is first
        assert open_store(tmp_path / "other") is not first
        # every spelling of one directory is one store, and a relative
        # path names the directory under the current one
        assert open_store(str(tmp_path / "cache")) is first
        assert open_store(f"{tmp_path}/x/../cache/") is first
        monkeypatch.chdir(tmp_path)
        assert open_store("cache") is first
        monkeypatch.chdir(tmp_path / "cache")
        assert open_store("cache") is not first


# ---------------------------------------------------------------------------
# warm re-triage of the full Figure 7 suite
# ---------------------------------------------------------------------------

def _verdict_bytes(result) -> bytes:
    """The verdict-bearing content of a batch, serialized canonically."""
    return json.dumps(
        [[o.name, o.classification, o.expected, o.num_queries, o.rounds]
         for o in result.outcomes],
        separators=(",", ":"),
    ).encode()


def _counter(result, name: str) -> int:
    return (result.telemetry or {}).get("counters", {}).get(name, 0)


def _warm_rerun(cache_dir: str, monkeypatch, run) -> tuple[set, set, set]:
    """Run ``run`` into a fresh store, then again with every memo
    cleared; the ``(stage, key)`` entries the first run wrote, and those
    the second read back and missed."""
    clear_qe_caches()
    clear_intern_tables()
    run()
    base = os.path.join(cache_dir, f"{STORE_VERSION}-{DIGEST_VERSION}")
    written = {(stage, os.path.splitext(entry)[0])
               for stage in os.listdir(base)
               if os.path.isdir(os.path.join(base, stage))
               for entry in os.listdir(os.path.join(base, stage))}
    assert written

    read: set[tuple[str, str]] = set()
    missed: set[tuple[str, str]] = set()
    get = CacheStore.get

    def recording_get(self, stage, key):
        artifact = get(self, stage, key)
        (missed if artifact is None else read).add((stage, key))
        return artifact

    monkeypatch.setattr(CacheStore, "get", recording_get)
    clear_qe_caches()
    clear_intern_tables()
    run()
    return written, read, missed


#: The derivation nodes the engine's stages record.
_STAGE_NODES = ("entailment", "abduce", "choice", "decompose", "query",
                "verdict")


def _stage_nodes(outcome) -> list[dict]:
    """An outcome's stage nodes, without the fields that stamp when and
    where a node was recorded (and the batch's trace id)."""
    stamps = ("id", "span", "at", "trace")
    return [{k: v for k, v in node.items() if k not in stamps}
            for node in outcome.provenance if node["kind"] in _STAGE_NODES]


def _unread_entries(cache_dir: str, monkeypatch, run) -> list:
    """The entries a fill wrote that a warm re-run never read."""
    written, read, _missed = _warm_rerun(cache_dir, monkeypatch, run)
    return sorted(written - read)


class TestWarmRetriage:
    def test_warm_run_skips_all_msa_and_qe_work(self, tmp_path,
                                                live_counters):
        cache_dir = str(tmp_path / "cache")
        # the cold run must not inherit QE memos from earlier tests
        clear_qe_caches()
        cold = triage_many(ALL_NAMES, jobs=1, cache_dir=cache_dir)
        assert cold.accuracy == 1.0
        assert _counter(cold, "msa.candidates") > 0       # real work happened
        assert _counter(cold, "qe.elim.miss") > 0

        # drop every in-process memo so only the disk store can answer
        clear_qe_caches()
        warm = triage_many(ALL_NAMES, jobs=1, cache_dir=cache_dir)
        assert _verdict_bytes(warm) == _verdict_bytes(cold)
        assert _counter(warm, "msa.candidates") == 0      # zero MSA recompute
        assert _counter(warm, "qe.elim.miss") == 0        # zero QE recompute
        assert _counter(warm, "cache.store.hit") > 0
        assert warm.cache is not None
        assert warm.cache["path"] == os.path.abspath(cache_dir)

    def test_warm_run_reads_back_every_entry_the_fill_wrote(
            self, tmp_path, monkeypatch):
        """An entry no later run reads is a wasted write: a warm re-run
        with memos cleared reads back every ``(stage, key)`` that a
        Figure-7 triage into a fresh store wrote."""
        cache_dir = str(tmp_path / "cache")
        assert _unread_entries(
            cache_dir, monkeypatch,
            lambda: triage_many(ALL_NAMES, jobs=1, cache_dir=cache_dir),
        ) == []

    def test_warm_repair_reads_back_every_entry_the_fill_wrote(
            self, tmp_path, monkeypatch):
        """The same for repair of the six false alarms: a warm run
        replays the whole ``repair`` artifact, so plan verification
        writes nothing to the store."""
        cache_dir = str(tmp_path / "cache")
        pipeline = Pipeline(cache_dir=cache_dir)

        def repair_all():
            for name in FALSE_ALARMS:
                assert pipeline.repair(name).verified_count, name

        assert _unread_entries(cache_dir, monkeypatch, repair_all) == []

    @pytest.mark.parametrize("fill", ["triage", "repair"])
    def test_warm_rerun_misses_no_smt_verdict(self, tmp_path, monkeypatch,
                                              fill):
        """The solver memos are shared by the whole process, and the
        engine checks formulas with no store active: a verdict it
        memoized must not answer a check made under the store, or the
        store would never get that entry.  After a Figure-7 triage fill
        and after a repair fill of the false alarms, a warm re-run with
        every memo cleared misses no ``smt-sat`` entry."""
        cache_dir = str(tmp_path / "cache")
        pipeline = Pipeline(cache_dir=cache_dir)

        def run():
            if fill == "triage":
                triage_many(ALL_NAMES, jobs=1, cache_dir=cache_dir)
            else:
                for name in FALSE_ALARMS:
                    pipeline.repair(name)

        _written, _read, missed = _warm_rerun(cache_dir, monkeypatch, run)
        assert sorted(k for k in missed if k[0] == "smt-sat") == []

    def test_fills_do_not_depend_on_what_the_process_checked_before(
            self, tmp_path):
        """The memos keep each check's result, so what a report writes
        must not depend on what the process checked before it: a
        Figure-7 fill in order, one in reverse order (memos kept from
        report to report), one right after a storeless triage of the
        suite (memos kept), three filled by three threads at once and
        one with the memos cleared before each report write the same
        bytes."""
        def entries(cache_dir):
            """The bytes of every file written under ``cache_dir``."""
            return {str(path.relative_to(cache_dir)): path.read_bytes()
                    for path in cache_dir.rglob("*") if path.is_file()}

        def fill(name, batches):
            """Triage each batch into a fresh store, clearing the memos
            before each batch."""
            for batch in batches:
                clear_qe_caches()
                triage_many(batch, jobs=1, cache_dir=str(tmp_path / name))
            return entries(tmp_path / name)

        cold = fill("cold", [[name] for name in ALL_NAMES])
        assert any("smt-sat" in path for path in cold)
        assert fill("forward", [ALL_NAMES]) == cold
        assert fill("reversed", [ALL_NAMES[::-1]]) == cold

        clear_qe_caches()
        assert triage_many(ALL_NAMES, jobs=1).accuracy == 1.0
        triage_many(ALL_NAMES, jobs=1, cache_dir=str(tmp_path / "after"))
        assert entries(tmp_path / "after") == cold

        # more filling threads than cores, switching often, share the
        # memos: each store must still get every verdict its fill checks
        names = ("thread-a", "thread-b", "thread-c")
        accuracy: dict[str, float] = {}

        def fill_on_thread(name):
            accuracy[name] = triage_many(
                ALL_NAMES, jobs=1, cache_dir=str(tmp_path / name)).accuracy

        clear_qe_caches()
        threads = [threading.Thread(target=fill_on_thread, args=(name,))
                   for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert accuracy == dict.fromkeys(names, 1.0)
        for name in names:
            assert entries(tmp_path / name) == cold, name

    def test_stage_provenance_is_cache_transparent(self, tmp_path):
        """A stage records the same derivation nodes whether it computed
        its artifact or replayed it: for every Figure-7 report, a warm
        run replayed from the store with memos cleared records the cold
        run's stage nodes."""
        cache_dir = str(tmp_path / "cache")
        runs = []
        was = obs.is_enabled()
        prov.enable()
        try:
            for _ in ("cold", "warm"):
                clear_qe_caches()
                runs.append(triage_many(ALL_NAMES, jobs=1,
                                        cache_dir=cache_dir))
        finally:
            prov.disable()
            if not was:
                obs.disable()
        cold, warm = runs
        assert _counter(cold, "msa.candidates") > 0
        assert _counter(warm, "msa.candidates") == 0   # replayed
        assert [o.name for o in warm.outcomes] == ALL_NAMES
        for before, after in zip(cold.outcomes, warm.outcomes):
            assert _stage_nodes(before), before.name
            assert _stage_nodes(after) == _stage_nodes(before), before.name

    def test_store_holds_only_flat_stage_entries(self, tmp_path):
        """QE memos stay in-process: a Figure-7 triage into a fresh
        store writes no QE stage, and every entry is a file directly in
        its stage's directory."""
        cache_dir = tmp_path / "cache"
        clear_qe_caches()
        result = triage_many(ALL_NAMES, jobs=1, cache_dir=str(cache_dir))
        assert result.accuracy == 1.0
        base = cache_dir / f"{STORE_VERSION}-{DIGEST_VERSION}"
        stages = {p.name for p in base.iterdir() if p.is_dir()}
        assert {"entail", "abduce", "smt-sat"} <= stages
        assert not stages & {"qe-elim", "qe-clause-sat"}
        for stage in stages:
            children = list((base / stage).iterdir())
            assert children
            assert all(p.is_file() and p.suffix == ".json"
                       for p in children), stage

    def test_outcomes_carry_cache_provenance(self, tmp_path):
        result = triage_many([ALL_NAMES[0]], jobs=1,
                             cache_dir=str(tmp_path / "cache"))
        block = result.outcomes[0].cache
        assert block is not None
        assert block["store"] == os.path.abspath(str(tmp_path / "cache"))
        assert set(block) >= {"invariants_digest", "success_digest",
                              "hits", "misses", "puts"}
        payload = result.outcomes[0].to_dict()
        assert payload["cache"]["invariants_digest"] == \
            block["invariants_digest"]


    def test_cache_block_counts_only_its_own_session(self, tmp_path,
                                                     monkeypatch):
        """Another thread reads and writes the same store while a
        report's engine session waits in its oracle: the report's
        ``cache`` block still equals its serial run's.  Both runs start
        from cleared memos, since the block counts the front end's
        ``smt-sat`` lookups too, which a memo hit skips."""
        from repro.batch.outcomes import _triage_one
        from repro.diagnosis import ExhaustiveOracle

        name = "p05_strlcpy"
        counts = ("invariants_digest", "success_digest",
                  "hits", "misses", "puts", "stages")
        clear_qe_caches()
        serial = _triage_one(name, cache_dir=str(tmp_path / "serial"))
        assert serial.cache["misses"] and serial.cache["puts"]

        shared = str(tmp_path / "shared")
        mid_session, peer_done = threading.Event(), threading.Event()
        answer = ExhaustiveOracle.answer

        def gated(oracle, query):
            if not mid_session.is_set():
                mid_session.set()
                assert peer_done.wait(60)
            return answer(oracle, query)

        def peer():
            assert mid_session.wait(60)
            store = open_store(shared)
            store.get("entail", "absent")
            store.put("entail", "peer", {"peer": True})
            store.get("entail", "peer")
            peer_done.set()

        monkeypatch.setattr(ExhaustiveOracle, "answer", gated)
        thread = threading.Thread(target=peer)
        thread.start()
        clear_qe_caches()
        outcome = _triage_one(name, cache_dir=shared)
        thread.join(timeout=60)
        assert not thread.is_alive() and peer_done.is_set()
        assert {k: outcome.cache[k] for k in counts} == \
            {k: serial.cache[k] for k in counts}


def _assert_block_sums_outcomes(result) -> None:
    """Each count of a batch's ``cache`` block, the totals and per
    stage, is the sum over its outcomes' blocks."""
    ops = ("hits", "misses", "puts")
    assert {op: result.cache[op] for op in ops} == \
        {op: sum(o.cache[op] for o in result.outcomes) for op in ops}
    stages: dict = {}
    for outcome in result.outcomes:
        for stage, counts in outcome.cache.get("stages", {}).items():
            into = stages.setdefault(stage, {})
            for op, n in counts.items():
                into[op] = into.get(op, 0) + n
    assert result.cache["stages"] == stages


class TestBatchCacheBlock:
    """The batch ``cache`` block counts its own batch: each count is the
    sum over the batch's outcomes, whichever process ran them."""

    NAMES = ["p10_toggle", "p06_chroot"]

    def test_serial_batches_on_one_store_count_only_themselves(
            self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = triage_many(self.NAMES, jobs=1, cache_dir=cache_dir)
        second = triage_many(self.NAMES, jobs=1, cache_dir=cache_dir)
        for result in (first, second):
            _assert_block_sums_outcomes(result)
        assert first.cache["puts"] > 0
        # the memos are warm and the store is full: only hits remain
        assert second.cache["hits"] > 0
        assert second.cache["misses"] == second.cache["puts"] == 0
        # and a memo hit never reads the store: no guard-check I/O
        assert "smt-sat" in first.cache["stages"]
        assert "smt-sat" not in second.cache["stages"]
        assert second.cache["entries"] == first.cache["entries"]

    def test_pool_batch_counts_its_workers_operations(self, tmp_path):
        result = triage_many(self.NAMES, jobs=2,
                             cache_dir=str(tmp_path / "cache"))
        assert result.mode == "parallel"
        _assert_block_sums_outcomes(result)
        assert result.cache["puts"] > 0

    def test_cold_fill_puts_match_the_entries_written(self, tmp_path):
        """Each report's block counts the whole report, front end
        included: a Figure-7 fill's puts are the entries it wrote, and a
        warm re-run from cleared memos misses none of them."""
        cache_dir = tmp_path / "cache"
        clear_qe_caches()
        cold = triage_many(ALL_NAMES, jobs=1, cache_dir=str(cache_dir))
        written = list((cache_dir / f"{STORE_VERSION}-{DIGEST_VERSION}")
                       .glob("*/*.json"))
        assert sum(o.cache["puts"] for o in cold.outcomes) \
            == len(written) == cold.cache["entries"]
        clear_qe_caches()
        warm = triage_many(ALL_NAMES, jobs=1, cache_dir=str(cache_dir))
        assert warm.cache["misses"] == warm.cache["puts"] == 0
        assert warm.cache["hits"] >= len(written)


# ---------------------------------------------------------------------------
# incremental re-triage
# ---------------------------------------------------------------------------

class TestIncremental:
    def test_incremental_requires_cache_dir(self):
        with pytest.raises(ValueError, match="cache_dir"):
            triage_many(ALL_NAMES[:1], jobs=1, incremental=True)

    def test_second_run_serves_every_report_from_records(self, tmp_path,
                                                         live_counters):
        cache_dir = str(tmp_path / "cache")
        names = ALL_NAMES[:4]
        first = triage_many(names, jobs=1, cache_dir=cache_dir,
                            incremental=True)
        second = triage_many(names, jobs=1, cache_dir=cache_dir,
                             incremental=True)
        assert _verdict_bytes(second) == _verdict_bytes(first)
        assert _counter(second, "batch.reports_cached") == len(names)
        assert _counter(second, "smt.fresh_checks") == 0
        for outcome in second.outcomes:
            assert outcome.cache["analyze"] == "hit"
            assert outcome.cache["triage"] == "hit"

    def test_edited_benchmark_recomputes_only_itself(self, tmp_path,
                                                     monkeypatch,
                                                     live_counters):
        import repro.suite as suite_mod

        cache_dir = str(tmp_path / "cache")
        edited = "p03_square"
        names = ALL_NAMES
        baseline = triage_many(names, jobs=1, cache_dir=cache_dir,
                               incremental=True)
        assert baseline.accuracy == 1.0

        original = suite_mod.load_source

        def edited_source(bench):
            text = original(bench)
            if bench.name == edited:
                # a *semantic* edit: weaken the asserted bound, so the
                # judgment digest (not just the source digest) changes
                assert "assert(slack + 1 > 0)" in text
                text = text.replace("assert(slack + 1 > 0)",
                                    "assert(slack + 2 > 0)")
            return text

        monkeypatch.setattr(suite_mod, "load_source", edited_source)
        result = triage_many(names, jobs=1, cache_dir=cache_dir,
                             incremental=True)
        assert _counter(result, "batch.reports_cached") == len(names) - 1
        by_name = {o.name: o for o in result.outcomes}
        assert by_name[edited].cache["triage"] == "miss"
        assert by_name[edited].cache["analyze"] == "miss"
        for name in names:
            if name != edited:
                assert by_name[name].cache["triage"] == "hit"

    def test_whitespace_edit_still_hits_via_judgment_digest(self, tmp_path,
                                                            monkeypatch,
                                                            live_counters):
        """An edit that does not change the judgment (I, phi) — e.g.
        reformatting — misses the ``analyze`` artifact but still resolves
        to the recorded verdict once the digests come back unchanged."""
        import repro.suite as suite_mod

        cache_dir = str(tmp_path / "cache")
        name = ALL_NAMES[0]
        triage_many([name], jobs=1, cache_dir=cache_dir, incremental=True)

        original = suite_mod.load_source
        monkeypatch.setattr(suite_mod, "load_source",
                            lambda bench: original(bench) + "\n\n")
        result = triage_many([name], jobs=1, cache_dir=cache_dir,
                             incremental=True)
        block = result.outcomes[0].cache
        assert block["analyze"] == "miss"      # source digest changed...
        assert block["triage"] == "hit"        # ...but (I, phi) did not
        assert _counter(result, "batch.reports_cached") == 1


# ---------------------------------------------------------------------------
# independence from the interpreter's hash seed
# ---------------------------------------------------------------------------

_SEED_PROBE = """
import json, os, sys
from repro.api import Pipeline
from repro.batch import triage_many
from repro.diagnosis import ExhaustiveOracle, diagnose_error
from repro.suite import benchmark_by_name, load_analysis

root = sys.argv[1]
triage_many(["p05_strlcpy"], jobs=1, cache_dir=root)
bench = benchmark_by_name("p05_strlcpy")
program, analysis = load_analysis(bench)
result = diagnose_error(
    analysis, ExhaustiveOracle(program, analysis, radius=bench.oracle_radius))
print(json.dumps({
    "entries": sorted(os.path.relpath(os.path.join(d, f), root)
                      for d, _, files in os.walk(root) for f in files
                      if f.endswith(".json")),
    "queries": [str(i.query.formula) for i in result.interactions],
    "patch": Pipeline().repair("p05_strlcpy").best.to_dict(),
}))
"""


def test_hash_seed_changes_no_query_patch_or_entry_name(tmp_path):
    """Two fleet workers are two processes with two hash seeds: each must
    ask the same queries, rank the same patch first and write the same
    store entries for one report."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    seen = []
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", _SEED_PROBE, str(tmp_path / seed)],
            env={"PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=300, check=True)
        seen.append(json.loads(done.stdout))
    assert len(seen[0]["queries"]) == 3
    assert seen[0]["entries"]
    assert seen[0] == seen[1]
