"""Cross-run observability warehouse: index, diff, and trend run artifacts.

Every run leaves durable evidence behind — engine run dirs with a
``journal.jsonl`` (and optional ``metrics.json``), serve roots with a
``serve.jsonl`` service journal, benchmarks with ``BENCH_*.json``
trajectory records.  Each artifact is self-describing but single-run;
regressions only show up when runs are compared *across* history.

:func:`scan_corpus` walks a directory tree and turns every artifact it
recognizes into a :class:`RunRecord`: a flat, deterministic
``identity`` (what the run was — dataset, seed, backend, layout) plus a
flat numeric ``metrics`` mapping (what it measured — phase timings,
fault/degrade/dedup counters, disk peaks, latency quantiles).  The
index is a pure function of file contents: same tree, same bytes out.

:func:`compare_runs` diffs two records metric-by-metric and
:func:`fit_trend` fits a least-squares slope over a metric's trajectory
across N runs — the ``repro runs compare`` CLI turns either into a
non-zero exit past a regression threshold.  :func:`check_gates` is the
one regression gate: :data:`GATE_POLICIES` picks each metric's check
from its name, so a BENCH file's deterministic page counts stay exact
while measured wall clock is never gated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .analyze import analyze_events
from .bench import load_bench_file
from .journal import read_journal
from .timeseries import quantile

ENGINE_JOURNAL_FILENAME = "journal.jsonl"
SERVE_JOURNAL_FILENAME = "serve.jsonl"
METRICS_FILENAME = "metrics.json"
BENCH_GLOB_PREFIX = "BENCH_"

KIND_ENGINE = "engine"
KIND_SERVE = "serve"
KIND_BENCH = "bench"

DEFAULT_GATE_THRESHOLD = 0.10
"""A threshold-gated metric regresses when ``b > a * (1 + threshold)``."""

IO_S_TOLERANCE = 0.10
"""Relative drift allowed, either way, on modelled I/O seconds."""

CELL_SEPARATOR = "/"
"""Joins a BENCH cell's name to its metrics: ``R-tree@2MB/candidates``."""

EXACT = "exact"
TOLERANCE = "tolerance"
IGNORE = "ignore"
THRESHOLD = "threshold"

GATE_POLICIES: Dict[str, str] = {
    # The cost model is deterministic for a fixed seed, scale and buffer:
    # page counts, candidates and results move only when an algorithm
    # change means to move them, and runs at another scale (or of another
    # benchmark) are not comparable at all.
    "page_reads": EXACT,
    "page_writes": EXACT,
    "seeks": EXACT,
    "candidates": EXACT,
    "result_count": EXACT,
    "scale": EXACT,
    "benchmark": EXACT,
    # Modelled I/O seconds follow the page counts but are summed in
    # floating point: IO_S_TOLERANCE either way, and 0 -> non-zero fails.
    "io_s": TOLERANCE,
    # Measured wall clock is machine noise, not a regression signal.
    "cpu_s": IGNORE,
    "total_s": IGNORE,
}
"""Gate policy by a metric's leaf name (``R-tree@2MB/phase.Refinement.io_s``
-> ``io_s``); any other metric regresses one-sidedly past ``threshold``."""

_COUNTER_METRICS = {
    "merge.duplicates_dropped": "duplicates_dropped",
    "disk.budget.denials": "disk_denials",
    "disk.budget.charged_bytes": "disk_charged_bytes",
}
_GAUGE_METRICS = {
    "disk.budget.hwm_bytes": "disk_hwm_bytes",
    "disk.budget.used_bytes": "disk_used_bytes",
}


@dataclass
class RunRecord:
    """One indexed artifact: identity (what ran) + metrics (what it cost)."""

    run_id: str
    path: str
    kind: str
    identity: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "path": self.path,
            "kind": self.kind,
            "identity": {k: self.identity[k] for k in sorted(self.identity)},
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
        }


class CorpusError(Exception):
    """An artifact the indexer was pointed at directly is unusable."""


# --------------------------------------------------------------------- #
# per-artifact indexers
# --------------------------------------------------------------------- #


def index_engine_run(run_dir: "Path | str", run_id: Optional[str] = None) -> RunRecord:
    """Index one engine run directory (``journal.jsonl`` required)."""
    run_dir = Path(run_dir)
    journal_path = run_dir / ENGINE_JOURNAL_FILENAME
    if not journal_path.exists():
        raise CorpusError(f"no {ENGINE_JOURNAL_FILENAME} under {run_dir}")
    records = read_journal(journal_path)
    analysis = analyze_events(records, run_dir=str(run_dir))
    identity: Dict[str, object] = {
        "backend": analysis.backend,
        "workers": analysis.workers,
        "partitions": analysis.partitions,
        "tuples_r": analysis.tuples_r,
        "tuples_s": analysis.tuples_s,
        "resuming": analysis.resuming,
    }
    if analysis.disk_budget is not None:
        identity["disk_budget"] = analysis.disk_budget
    for key in ("dataset", "scale", "seed", "predicate", "query",
                "run_id", "source"):
        value = analysis.serve.get(key)
        if value is not None:
            identity[key] = value
    metrics: Dict[str, float] = {
        "results": analysis.results,
        "tasks": len(analysis.schedule),
        "makespan_cost": analysis.replay.makespan_cost,
        "total_cost": analysis.replay.total_cost,
        "faults_injected": len(analysis.fault_ledger),
        "retries": analysis.event_counts.get("retry", 0),
        "quarantined": len(analysis.quarantined_pairs),
        "degraded": len(analysis.degraded_pairs),
        "replayed": len(analysis.replayed_pairs),
        "checkpoint_commits": sum(analysis.checkpoint_commits.values()),
        "disk_pressure_events": len(analysis.disk_pressure),
        "disk_recoveries": len(analysis.disk_recoveries),
    }
    for record in records:
        if record.get("type") == "query_done" and record.get("latency_s") is not None:
            metrics["latency_s"] = float(record["latency_s"])
    metrics.update(_metrics_file_extract(run_dir))
    return RunRecord(
        run_id=run_id or run_dir.name,
        path=str(run_dir),
        kind=KIND_ENGINE,
        identity=identity,
        metrics=metrics,
    )


def index_serve_run(out_dir: "Path | str", run_id: Optional[str] = None) -> RunRecord:
    """Index one serve root (``serve.jsonl`` required): query tallies,
    per-source counts, latency quantiles over ``query_done`` events."""
    out_dir = Path(out_dir)
    journal_path = out_dir / SERVE_JOURNAL_FILENAME
    if not journal_path.exists():
        raise CorpusError(f"no {SERVE_JOURNAL_FILENAME} under {out_dir}")
    records = read_journal(journal_path)
    datasets: set = set()
    seeds: set = set()
    tallies: Dict[str, int] = {}
    sources: Dict[str, int] = {}
    latencies: List[float] = []
    scrub: Dict[str, int] = {}
    telemetry = {"ticks": 0, "queue_depth_max": 0, "inflight_max": 0}
    for record in records:
        kind = record.get("type")
        tallies[kind] = tallies.get(kind, 0) + 1
        if kind == "sample" and record.get("kind") == "telemetry":
            telemetry["ticks"] += 1
            telemetry["queue_depth_max"] = max(
                telemetry["queue_depth_max"], int(record.get("queued", 0) or 0)
            )
            telemetry["inflight_max"] = max(
                telemetry["inflight_max"], int(record.get("inflight", 0) or 0)
            )
        elif kind == "query_received":
            if record.get("dataset") is not None:
                datasets.add(str(record["dataset"]))
            if record.get("seed") is not None:
                seeds.add(int(record["seed"]))
        elif kind == "query_done":
            source = str(record.get("source", "?"))
            sources[source] = sources.get(source, 0) + 1
            if record.get("latency_s") is not None:
                latencies.append(float(record["latency_s"]))
        elif kind == "cache_scrub":
            scrub["passes"] = scrub.get("passes", 0) + 1
            for key in ("scanned", "repaired", "quarantined", "evicted"):
                scrub[key] = scrub.get(key, 0) + int(record.get(key, 0) or 0)
    identity: Dict[str, object] = {
        "datasets": sorted(datasets),
        "seeds": sorted(seeds),
    }
    metrics: Dict[str, float] = {
        "queries_received": tallies.get("query_received", 0),
        "queries_done": tallies.get("query_done", 0),
        "cache_hits": tallies.get("cache_hit", 0),
        "cache_evicts": tallies.get("cache_evict", 0),
        "deadline_exceeded": tallies.get("deadline_exceeded", 0),
        "breaker_transitions": tallies.get("breaker_transition", 0),
        "disk_pressure_events": tallies.get("disk_pressure", 0),
    }
    for source in sorted(sources):
        metrics[f"source.{source}"] = sources[source]
    for key in sorted(scrub):
        metrics[f"scrub.{key}"] = scrub[key]
    if telemetry["ticks"]:
        metrics["telemetry_ticks"] = telemetry["ticks"]
        metrics["queue_depth_max"] = telemetry["queue_depth_max"]
        metrics["inflight_max"] = telemetry["inflight_max"]
    if latencies:
        metrics["latency_count"] = len(latencies)
        metrics["latency_mean_s"] = round(sum(latencies) / len(latencies), 6)
        for q, label in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            value = quantile(latencies, q)
            assert value is not None
            metrics[f"latency_{label}_s"] = round(value, 6)
        metrics["latency_max_s"] = round(max(latencies), 6)
    return RunRecord(
        run_id=run_id or out_dir.name,
        path=str(out_dir),
        kind=KIND_SERVE,
        identity=identity,
        metrics=metrics,
    )


def index_bench_file(path: "Path | str", run_id: Optional[str] = None) -> List[RunRecord]:
    """Index one ``BENCH_*.json`` file: one record per benchmark cell,
    phase timings flattened to ``phase.<name>.cpu_s`` / ``.io_s`` so
    Table 4-style breakdowns become comparable trajectories."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CorpusError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(data, dict) or not isinstance(data.get("records"), list):
        raise CorpusError(f"{path}: not a BENCH file (no records list)")
    return _bench_cells(data, str(path), run_id or path.stem)


def _bench_cells(data: dict, path: str, base: str) -> List[RunRecord]:
    out: List[RunRecord] = []
    for i, record in enumerate(data["records"]):
        identity: Dict[str, object] = {
            "benchmark": data.get("benchmark"),
            "schema_version": data.get("schema_version"),
        }
        for key in ("algorithm", "scale", "buffer_mb", "buffer_mb_scaled"):
            if record.get(key) is not None:
                identity[key] = record[key]
        metrics: Dict[str, float] = {}
        for key in ("total_s", "cpu_s", "io_s", "candidates", "result_count",
                    "scale"):
            if record.get(key) is not None:
                metrics[key] = record[key]
        for key, value in sorted((record.get("counters") or {}).items()):
            if isinstance(value, (int, float)):
                metrics[f"counter.{key}"] = value
        for phase in record.get("phases") or []:
            name = phase.get("name", "?")
            for key in ("cpu_s", "io_s", "page_reads", "page_writes", "seeks"):
                if phase.get(key) is not None:
                    metrics[f"phase.{name}.{key}"] = phase[key]
        for block in ("faults", "disk"):
            for key, value in sorted((record.get(block) or {}).items()):
                if isinstance(value, bool):
                    metrics[f"{block}.{key}"] = int(value)
                elif isinstance(value, (int, float)):
                    metrics[f"{block}.{key}"] = value
        out.append(
            RunRecord(
                run_id=f"{base}#{i}",
                path=path,
                kind=KIND_BENCH,
                identity=identity,
                metrics=metrics,
            )
        )
    return out


def _metrics_file_extract(run_dir: Path) -> Dict[str, float]:
    """Headline counters/gauges from a run dir's ``metrics.json`` (the
    dedup pin and the disk peaks), if the run recorded one."""
    path = run_dir / METRICS_FILENAME
    if not path.exists():
        return {}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:
        return {}
    snapshot = data.get("metrics", data) if isinstance(data, dict) else {}
    if not isinstance(snapshot, dict):
        return {}
    out: Dict[str, float] = {}
    for source, target in sorted(_COUNTER_METRICS.items()):
        entry = snapshot.get(source)
        if isinstance(entry, dict) and isinstance(entry.get("value"), (int, float)):
            out[target] = entry["value"]
    for source, target in sorted(_GAUGE_METRICS.items()):
        entry = snapshot.get(source)
        if isinstance(entry, dict) and isinstance(entry.get("value"), (int, float)):
            out[target] = entry["value"]
    return out


# --------------------------------------------------------------------- #
# the corpus scan
# --------------------------------------------------------------------- #


def index_path(path: "Path | str") -> RunRecord:
    """Index a single artifact the user pointed at directly.

    A directory with a ``serve.jsonl`` is a serve root; with a
    ``journal.jsonl``, an engine run; a file, a schema-validated BENCH
    file whose cells merge into one record, each cell's metrics named
    after its ``(algorithm, buffer_mb)``: ``R-tree@2MB/counter.page_reads``.
    """
    given = str(path)
    path = Path(path)
    if path.is_dir():
        if (path / SERVE_JOURNAL_FILENAME).exists():
            return index_serve_run(path, run_id=given)
        if (path / ENGINE_JOURNAL_FILENAME).exists():
            return index_engine_run(path, run_id=given)
        raise CorpusError(
            f"{path}: neither {SERVE_JOURNAL_FILENAME} nor "
            f"{ENGINE_JOURNAL_FILENAME} found"
        )
    if not path.is_file():
        raise CorpusError(f"{path}: no such run artifact")
    try:
        data = load_bench_file(path)
    except ValueError as exc:  # bad JSON or a schema violation
        raise CorpusError(f"{path}: not a valid BENCH file ({exc})") from exc
    if not data["records"]:
        raise CorpusError(f"{path}: BENCH file with no records")
    merged = RunRecord(
        run_id=path.stem,
        path=str(path),
        kind=KIND_BENCH,
        identity={"benchmark": data["benchmark"], "cells": len(data["records"])},
    )
    for cell in _bench_cells(data, str(path), path.stem):
        name = (f"{cell.identity['algorithm']}@"
                f"{_fmt_num(cell.identity['buffer_mb'])}MB")
        prefix = name + CELL_SEPARATOR
        if any(key.startswith(prefix) for key in merged.metrics):
            raise CorpusError(f"{path}: duplicate cell {name}")
        for key, value in cell.metrics.items():
            merged.metrics[prefix + key] = value
    return merged


def scan_corpus(root: "Path | str") -> List[RunRecord]:
    """Index every recognizable artifact under ``root``, sorted by
    ``(kind, path, run_id)``.  Artifacts that fail to parse are skipped —
    a half-written journal must not poison the whole warehouse."""
    root = Path(root)
    records: List[RunRecord] = []
    if not root.exists():
        return records
    candidates = [root] + sorted(
        (p for p in root.rglob("*") if p.is_dir()), key=lambda p: str(p)
    )
    for directory in candidates:
        rel = directory.relative_to(root).as_posix() or "."
        if (directory / SERVE_JOURNAL_FILENAME).exists():
            try:
                record = index_serve_run(directory, run_id=rel)
            except (CorpusError, OSError, ValueError):
                continue
            record.path = rel
            records.append(record)
        if (directory / ENGINE_JOURNAL_FILENAME).exists():
            try:
                record = index_engine_run(directory, run_id=rel)
            except (CorpusError, OSError, ValueError):
                continue
            record.path = rel
            records.append(record)
    bench_files = sorted(
        (p for p in root.rglob(f"{BENCH_GLOB_PREFIX}*.json") if p.is_file()),
        key=lambda p: str(p),
    )
    for path in bench_files:
        rel = path.relative_to(root).as_posix()
        try:
            cells = index_bench_file(path, run_id=rel)
        except (CorpusError, OSError, ValueError):
            continue
        for record in cells:
            record.path = rel
            records.append(record)
    records.sort(key=lambda r: (r.kind, r.path, r.run_id))
    return records


def find_record(records: Sequence[RunRecord], run_id: str) -> Optional[RunRecord]:
    for record in records:
        if record.run_id == run_id:
            return record
    return None


# --------------------------------------------------------------------- #
# diffing and trending
# --------------------------------------------------------------------- #


def compare_runs(
    a: RunRecord,
    b: RunRecord,
    metrics: Optional[Sequence[str]] = None,
) -> List[dict]:
    """Metric-by-metric diff rows over the union of both records' keys.

    Each row carries both readings plus ``delta`` (b - a) and ``ratio``
    (b / a) when they are computable.  A BENCH record's benchmark name
    rides along as the ``benchmark`` row, so a gate can compare it.
    ``metrics`` restricts the rows to the named keys, in the given order.
    """
    values_a, values_b = _row_values(a), _row_values(b)
    keys: List[str] = (
        list(metrics)
        if metrics
        else sorted(set(values_a) | set(values_b))
    )
    rows: List[dict] = []
    for key in keys:
        va = values_a.get(key)
        vb = values_b.get(key)
        row: dict = {"metric": key, "a": va, "b": vb}
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            row["delta"] = round(vb - va, 9)
            if va:
                row["ratio"] = round(vb / va, 6)
        rows.append(row)
    return rows


def _row_values(record: RunRecord) -> Dict[str, object]:
    values: Dict[str, object] = dict(record.metrics)
    if record.identity.get("benchmark") is not None:
        values["benchmark"] = record.identity["benchmark"]
    return values


def gate_policy(metric: str) -> str:
    """The :data:`GATE_POLICIES` entry for ``metric``, by its leaf name."""
    leaf = metric.rpartition(CELL_SEPARATOR)[2].rpartition(".")[2]
    return GATE_POLICIES.get(leaf, THRESHOLD)


def check_gates(
    rows: Sequence[dict],
    gates: Sequence[str],
    threshold: float = DEFAULT_GATE_THRESHOLD,
) -> List[str]:
    """Regression messages for every metric a gate selects; empty means pass.

    ``gates`` are shell-style patterns over the metric names (``'*'``
    gates every metric, ``'R-tree@2MB/*'`` one BENCH cell); each selected
    metric is checked under its :func:`gate_policy`.  Threshold metrics
    fail when ``b > a * (1 + threshold)`` — higher is worse for latency,
    retries and disk peaks.  A gate that selects nothing fails, and so
    does a selected metric missing from either side: a gate that cannot
    read its metric must fail loudly, not pass silently.  A BENCH cell
    present on one side only fails once, by name.
    """
    failures: List[str] = []
    selected: set = set()
    for gate in gates:
        matched = {row["metric"] for row in rows if fnmatchcase(row["metric"], gate)}
        if not matched:
            failures.append(f"gate {gate}: metric missing from one side")
        selected |= matched
    cells_a, cells_b = (
        {row["metric"].partition(CELL_SEPARATOR)[0]
         for row in rows
         if CELL_SEPARATOR in row["metric"] and row.get(side) is not None}
        for side in ("a", "b")
    )
    one_sided_cells: set = set()
    for row in rows:
        metric, a, b = row["metric"], row.get("a"), row.get("b")
        policy = gate_policy(metric)
        if metric not in selected or policy == IGNORE:
            continue
        if a is None or b is None:
            cell, separator, _ = metric.partition(CELL_SEPARATOR)
            if separator and not (cell in cells_a and cell in cells_b):
                if cell not in one_sided_cells:
                    one_sided_cells.add(cell)
                    failures.append(
                        f"cell {cell}: present in {'b' if a is None else 'a'} only"
                    )
            else:
                failures.append(f"gate {metric}: metric missing from one side")
        elif policy == EXACT:
            if a != b:
                failures.append(
                    f"gate {metric}: {_fmt_num(a)} -> {_fmt_num(b)} "
                    "(exact: must not change)"
                )
        elif policy == TOLERANCE:
            if (b != a) if a == 0 else abs(b - a) / abs(a) > IO_S_TOLERANCE:
                failures.append(
                    f"gate {metric}: {_fmt_num(a)} -> {_fmt_num(b)} drifts "
                    f"more than {IO_S_TOLERANCE:.0%} either way"
                )
        elif b > a * (1.0 + threshold):
            failures.append(
                f"gate {metric}: {_fmt_num(b)} exceeds "
                f"{_fmt_num(a)} by more than {threshold:.0%}"
            )
    return failures


def fit_trend(values: Sequence[float]) -> dict:
    """Least-squares line over ``values`` at x = 0..n-1.

    ``slope_frac`` normalizes the slope by the mean magnitude, so "this
    metric grows 3% per run" reads directly against a threshold.
    """
    n = len(values)
    if n < 2:
        return {
            "n": n,
            "slope": 0.0,
            "intercept": values[0] if values else 0.0,
            "mean": values[0] if values else 0.0,
            "slope_frac": 0.0,
        }
    mean_x = (n - 1) / 2.0
    mean_y = sum(values) / n
    sxx = sum((i - mean_x) ** 2 for i in range(n))
    sxy = sum((i - mean_x) * (v - mean_y) for i, v in enumerate(values))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    magnitude = sum(abs(v) for v in values) / n
    return {
        "n": n,
        "slope": round(slope, 9),
        "intercept": round(intercept, 9),
        "mean": round(mean_y, 9),
        "slope_frac": round(slope / magnitude, 9) if magnitude else 0.0,
    }


# --------------------------------------------------------------------- #
# deterministic text rendering
# --------------------------------------------------------------------- #


def _fmt_num(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    text = f"{number:.6f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


def render_list(records: Sequence[RunRecord]) -> str:
    lines = ["# runs"]
    if not records:
        lines.append("(no runs found)")
        return "\n".join(lines) + "\n"
    for record in records:
        headline = ""
        for key in ("latency_p50_s", "total_s", "results", "queries_done"):
            if key in record.metrics:
                headline = f"  {key}={_fmt_num(record.metrics[key])}"
                break
        lines.append(
            f"{record.kind:<6} {record.run_id}  "
            f"[{len(record.metrics)} metrics]{headline}"
        )
    return "\n".join(lines) + "\n"


def render_show(record: RunRecord) -> str:
    lines = [
        f"# run {record.run_id}",
        f"kind: {record.kind}",
        f"path: {record.path}",
        "",
        "## identity",
    ]
    for key in sorted(record.identity):
        lines.append(f"- {key}: {json.dumps(record.identity[key], sort_keys=True)}")
    lines.append("")
    lines.append("## metrics")
    for key in sorted(record.metrics):
        lines.append(f"- {key}: {_fmt_num(record.metrics[key])}")
    return "\n".join(lines) + "\n"


def render_compare(a: RunRecord, b: RunRecord, rows: Sequence[dict]) -> str:
    width = max([32] + [len(row["metric"]) for row in rows])
    lines = [
        "# runs compare",
        f"a: {a.run_id} ({a.kind})",
        f"b: {b.run_id} ({b.kind})",
        "",
        f"{'metric':<{width}} {'a':>14} {'b':>14} {'delta':>14} {'ratio':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['metric']:<{width}} {_fmt_num(row.get('a')):>14} "
            f"{_fmt_num(row.get('b')):>14} {_fmt_num(row.get('delta')):>14} "
            f"{_fmt_num(row.get('ratio')):>8}"
        )
    return "\n".join(lines) + "\n"


def render_trend(metric: str, run_ids: Sequence[str], values: Sequence[float],
                 trend: dict) -> str:
    lines = [
        "# runs trend",
        f"metric: {metric}",
        f"n: {trend['n']}",
        f"mean: {_fmt_num(trend['mean'])}",
        f"slope: {_fmt_num(trend['slope'])} per run "
        f"({trend['slope_frac'] * 100:+.2f}% of mean)",
        "",
    ]
    for run_id, value in zip(run_ids, values):
        lines.append(f"{run_id:<40} {_fmt_num(value):>14}")
    return "\n".join(lines) + "\n"
