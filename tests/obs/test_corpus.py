"""The cross-run warehouse: indexing, scanning, diffing, trending."""

import json

import pytest

from repro.obs.corpus import (
    CorpusError,
    check_gates,
    compare_runs,
    find_record,
    fit_trend,
    gate_policy,
    index_bench_file,
    index_engine_run,
    index_path,
    index_serve_run,
    render_compare,
    render_list,
    render_show,
    render_trend,
    scan_corpus,
)

ENGINE_EVENTS = [
    {"type": "run_started", "backend": "process", "workers": 2,
     "partitions": 4, "tuples_r": 100, "tuples_s": 50, "resuming": False,
     "dataset": "road_hydro", "seed": 7},
    {"type": "schedule", "order": [{"pair": 0, "cost": 30},
                                   {"pair": 1, "cost": 20}]},
    {"type": "task_finished", "pair": 0, "attempt": 0, "candidates": 9,
     "results": 4, "wall_s": 0.03},
    {"type": "task_finished", "pair": 1, "attempt": 0, "candidates": 5,
     "results": 2, "wall_s": 0.02},
    {"type": "run_finished", "results": 6, "degraded_pairs": []},
]

SERVE_EVENTS = [
    {"type": "query_received", "query": "query-0001", "dataset": "road_hydro",
     "seed": 7},
    {"type": "query_done", "query": "query-0001", "source": "miss",
     "latency_s": 0.4},
    {"type": "query_received", "query": "query-0002", "dataset": "road_hydro",
     "seed": 7},
    {"type": "cache_hit", "query": "query-0002"},
    {"type": "query_done", "query": "query-0002", "source": "hit",
     "latency_s": 0.1},
    {"type": "sample", "kind": "telemetry", "queued": 3, "inflight": 2,
     "completed": 2, "breaker_state": "closed"},
    {"type": "cache_scrub", "scanned": 4, "repaired": 1, "quarantined": 0,
     "evicted": 0},
]

BENCH_DOC = {
    "schema_version": 1,
    "benchmark": "serve_throughput",
    "records": [
        {"algorithm": "PBSM", "scale": 0.01, "buffer_mb": 4.0,
         "total_s": 1.5, "cpu_s": 1.0, "io_s": 0.5, "candidates": 10,
         "result_count": 4,
         "counters": {"page_reads": 30, "page_writes": 10, "seeks": 5},
         "phases": [{"name": "Partition", "cpu_s": 0.6, "io_s": 0.2,
                     "page_reads": 20, "page_writes": 10, "seeks": 3}],
         "faults": {"injected": 2, "retries": 1, "quarantined": 0,
                    "degraded": 0, "survived": True},
         "disk": {"spill_bytes": 2048, "denials": 1}},
    ],
}


def write_jsonl(path, records):
    with path.open("w") as fh:
        for i, record in enumerate(records):
            fh.write(json.dumps({"seq": i + 1, "t": 0.1 * i, **record}) + "\n")


@pytest.fixture
def corpus_root(tmp_path):
    """A tree with one engine run, one serve root, and one BENCH file."""
    engine = tmp_path / "runs" / "engine-a"
    engine.mkdir(parents=True)
    write_jsonl(engine / "journal.jsonl", ENGINE_EVENTS)
    (engine / "metrics.json").write_text(json.dumps({"metrics": {
        "merge.duplicates_dropped": {"type": "counter", "value": 3},
        "disk.budget.hwm_bytes": {"type": "gauge", "value": 8192},
    }}))
    serve = tmp_path / "serve-a" / "out"
    serve.mkdir(parents=True)
    write_jsonl(serve / "serve.jsonl", SERVE_EVENTS)
    (tmp_path / "BENCH_serve.json").write_text(json.dumps(BENCH_DOC))
    return tmp_path


class TestIndexers:
    def test_engine_identity_and_metrics(self, corpus_root):
        record = index_engine_run(corpus_root / "runs" / "engine-a")
        assert record.kind == "engine"
        assert record.identity["backend"] == "process"
        assert record.identity["workers"] == 2
        assert record.metrics["results"] == 6
        assert record.metrics["tasks"] == 2
        # metrics.json headline counters ride along.
        assert record.metrics["duplicates_dropped"] == 3
        assert record.metrics["disk_hwm_bytes"] == 8192

    def test_serve_tallies_and_latency_quantiles(self, corpus_root):
        record = index_serve_run(corpus_root / "serve-a" / "out")
        assert record.kind == "serve"
        assert record.identity == {"datasets": ["road_hydro"], "seeds": [7]}
        assert record.metrics["queries_done"] == 2
        assert record.metrics["cache_hits"] == 1
        assert record.metrics["source.hit"] == 1
        assert record.metrics["source.miss"] == 1
        assert record.metrics["latency_count"] == 2
        assert record.metrics["latency_p50_s"] == 0.25
        assert record.metrics["latency_max_s"] == 0.4
        assert record.metrics["telemetry_ticks"] == 1
        assert record.metrics["queue_depth_max"] == 3
        assert record.metrics["inflight_max"] == 2
        assert record.metrics["scrub.passes"] == 1
        assert record.metrics["scrub.repaired"] == 1

    def test_bench_cells_flattened(self, corpus_root):
        records = index_bench_file(corpus_root / "BENCH_serve.json")
        assert len(records) == 1
        record = records[0]
        assert record.identity["algorithm"] == "PBSM"
        assert record.metrics["total_s"] == 1.5
        assert record.metrics["counter.page_reads"] == 30
        assert record.metrics["phase.Partition.cpu_s"] == 0.6
        assert record.metrics["faults.injected"] == 2
        assert record.metrics["faults.survived"] == 1  # bool -> int
        assert record.metrics["disk.spill_bytes"] == 2048

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(CorpusError):
            index_engine_run(tmp_path)
        with pytest.raises(CorpusError):
            index_serve_run(tmp_path)

    def test_index_path_dispatches_by_artifact(self, corpus_root):
        serve = index_path(corpus_root / "serve-a" / "out")
        assert serve.kind == "serve"
        # run_id preserves the user-supplied path, not the dir basename.
        assert serve.run_id == str(corpus_root / "serve-a" / "out")
        engine = index_path(corpus_root / "runs" / "engine-a")
        assert engine.kind == "engine"
        bench = index_path(corpus_root / "BENCH_serve.json")
        assert bench.kind == "bench"
        assert bench.run_id == "BENCH_serve"
        # BENCH metrics are keyed by their (algorithm, buffer_mb) cell.
        assert bench.metrics["PBSM@4MB/counter.page_reads"] == 30
        assert bench.metrics["PBSM@4MB/scale"] == 0.01
        with pytest.raises(CorpusError):
            index_path(corpus_root / "nowhere")


class TestScanCorpus:
    def test_finds_all_artifacts_sorted(self, corpus_root):
        records = scan_corpus(corpus_root)
        assert [(r.kind, r.run_id) for r in records] == [
            ("bench", "BENCH_serve.json#0"),
            ("engine", "runs/engine-a"),
            ("serve", "serve-a/out"),
        ]

    def test_scan_is_deterministic(self, corpus_root):
        first = [r.to_dict() for r in scan_corpus(corpus_root)]
        second = [r.to_dict() for r in scan_corpus(corpus_root)]
        assert first == second

    def test_torn_journal_tolerated_unreadable_skipped(self, corpus_root):
        # A torn journal keeps its intact prefix (read_journal contract) —
        # the run still indexes, just with what survived.
        torn = corpus_root / "torn"
        torn.mkdir()
        (torn / "serve.jsonl").write_text("{not json\n")
        # An unreadable artifact is skipped without poisoning the scan.
        bad = corpus_root / "broken"
        (bad / "serve.jsonl").mkdir(parents=True)
        ids = [r.run_id for r in scan_corpus(corpus_root)]
        assert "torn" in ids
        assert "broken" not in ids
        assert "serve-a/out" in ids

    def test_missing_root_is_empty(self, tmp_path):
        assert scan_corpus(tmp_path / "nope") == []

    def test_find_record(self, corpus_root):
        records = scan_corpus(corpus_root)
        assert find_record(records, "runs/engine-a").kind == "engine"
        assert find_record(records, "missing") is None


class TestCompareAndGates:
    def test_rows_over_union_with_delta_and_ratio(self, corpus_root):
        a = index_serve_run(corpus_root / "serve-a" / "out", run_id="a")
        b = index_serve_run(corpus_root / "serve-a" / "out", run_id="b")
        b.metrics["latency_p50_s"] = 0.5
        b.metrics["only_b"] = 1.0
        rows = {r["metric"]: r for r in compare_runs(a, b)}
        assert rows["latency_p50_s"]["delta"] == 0.25
        assert rows["latency_p50_s"]["ratio"] == 2.0
        assert rows["only_b"]["a"] is None and "delta" not in rows["only_b"]

    def test_metric_restriction_keeps_order(self, corpus_root):
        a = index_serve_run(corpus_root / "serve-a" / "out")
        rows = compare_runs(a, a, metrics=["latency_max_s", "cache_hits"])
        assert [r["metric"] for r in rows] == ["latency_max_s", "cache_hits"]

    def test_gate_fires_past_threshold(self):
        rows = [{"metric": "latency_p50_s", "a": 1.0, "b": 1.25}]
        assert check_gates(rows, ["latency_p50_s"], threshold=0.1)
        assert not check_gates(rows, ["latency_p50_s"], threshold=0.5)

    def test_identical_runs_pass(self, corpus_root):
        a = index_serve_run(corpus_root / "serve-a" / "out")
        rows = compare_runs(a, a)
        assert check_gates(rows, ["latency_p50_s", "latency_max_s"]) == []

    def test_missing_gated_metric_fails_loudly(self):
        failures = check_gates([], ["latency_p50_s"])
        assert failures == ["gate latency_p50_s: metric missing from one side"]


class TestGatePolicies:
    def test_policy_comes_from_the_leaf_name(self):
        assert gate_policy("R-tree@2MB/counter.page_reads") == "exact"
        assert gate_policy("PBSM@0.5MB/phase.Refinement.seeks") == "exact"
        assert gate_policy("benchmark") == "exact"
        assert gate_policy("PBSM@0.5MB/phase.Refinement.io_s") == "tolerance"
        assert gate_policy("PBSM@2MB/phase.Refinement.cpu_s") == "ignore"
        assert gate_policy("PBSM@2MB/total_s") == "ignore"
        assert gate_policy("latency_p50_s") == "threshold"
        assert gate_policy("PBSM@2MB/faults.retries") == "threshold"

    def test_patterns_select_metrics(self):
        rows = [{"metric": "latency_p50_s", "a": 1.0, "b": 2.0},
                {"metric": "latency_p95_s", "a": 1.0, "b": 1.0}]
        assert check_gates(rows, ["latency_*", "latency_p50_s"]) == [
            "gate latency_p50_s: 2 exceeds 1 by more than 10%"
        ]
        assert check_gates(rows, ["queue_*"]) == [
            "gate queue_*: metric missing from one side"
        ]

    def test_exact_is_two_sided_threshold_is_not(self):
        rows = [{"metric": "candidates", "a": 10, "b": 9},
                {"metric": "latency_p50_s", "a": 1.0, "b": 0.5}]
        assert check_gates(rows, ["*"]) == [
            "gate candidates: 10 -> 9 (exact: must not change)"
        ]

    def test_duplicate_bench_cell_is_unusable(self, tmp_path):
        doc = json.loads(json.dumps(BENCH_DOC))
        doc["records"] = doc["records"] * 2
        path = tmp_path / "BENCH_dup.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorpusError, match="duplicate cell PBSM@4MB"):
            index_path(path)


class TestFitTrend:
    def test_flat_series(self):
        trend = fit_trend([2.0, 2.0, 2.0])
        assert trend["slope"] == 0.0 and trend["slope_frac"] == 0.0
        assert trend["mean"] == 2.0

    def test_linear_growth(self):
        trend = fit_trend([1.0, 2.0, 3.0, 4.0])
        assert trend["slope"] == 1.0
        assert trend["intercept"] == 1.0
        assert trend["slope_frac"] == pytest.approx(0.4)

    def test_degenerate_inputs(self):
        assert fit_trend([])["n"] == 0
        assert fit_trend([5.0]) == {
            "n": 1, "slope": 0.0, "intercept": 5.0, "mean": 5.0,
            "slope_frac": 0.0,
        }


class TestRendering:
    def test_renders_are_byte_identical(self, corpus_root):
        records = scan_corpus(corpus_root)
        assert render_list(records) == render_list(scan_corpus(corpus_root))
        serve = find_record(records, "serve-a/out")
        assert render_show(serve) == render_show(serve)
        rows = compare_runs(serve, serve)
        once = render_compare(serve, serve, rows)
        assert once == render_compare(serve, serve, compare_runs(serve, serve))
        assert once.startswith("# runs compare\n")

    def test_list_includes_headline_metric(self, corpus_root):
        text = render_list(scan_corpus(corpus_root))
        assert "latency_p50_s=0.25" in text
        assert "(no runs found)" in render_list([])

    def test_trend_render(self):
        trend = fit_trend([1.0, 2.0])
        text = render_trend("latency_p50_s", ["r1", "r2"], [1.0, 2.0], trend)
        assert "metric: latency_p50_s" in text
        assert "slope: 1 per run" in text
