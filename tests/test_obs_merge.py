"""Snapshots merged across processes weigh each observed value once."""

from __future__ import annotations

import copy

from repro import obs


def test_merged_percentiles_match_the_process_aggregate():
    """One scope observes 1.0 3,000 times (its reservoir thins to stride
    2, 1,500 samples), another 0.0 2,000 times (stride 1).  Merging the
    two snapshots must give what folding the scopes in-process gives."""
    was = obs.is_enabled()
    obs.reset()
    obs.enable()
    try:
        snaps = []
        for value, times in ((1.0, 3_000), (0.0, 2_000)):
            with obs.capture() as scope:
                for _ in range(times):
                    obs.observe("h", value)
            snaps.append(scope.snapshot)
        aggregate = obs.snapshot()["hists"]["h"]
    finally:
        if not was:
            obs.disable()
        obs.reset()
    assert [s["hists"]["h"]["stride"] for s in snaps] == [2, 1]
    before = copy.deepcopy(snaps)
    merged = obs.merge_snapshots(*snaps)["hists"]["h"]
    assert snaps == before  # the merge mutates none of its inputs
    assert aggregate["p50"] == 1.0
    for key in ("count", "p50", "p95", "p99", "stride"):
        assert merged[key] == aggregate[key], key


def test_a_snapshot_without_reservoir_reads_as_stride_one():
    bare = {"count": 2, "total": 3.0, "min": 1.0, "max": 2.0}
    full = {"count": 1, "total": 5.0, "min": 5.0, "max": 5.0,
            "samples": [5.0], "stride": 1}
    merged = obs.merge_snapshots({"hists": {"h": bare}},
                                 {"hists": {"h": full}})["hists"]["h"]
    assert merged["count"] == 3 and merged["total"] == 8.0
    assert (merged["min"], merged["max"]) == (1.0, 5.0)
    assert merged["samples"] == [5.0] and merged["stride"] == 1
