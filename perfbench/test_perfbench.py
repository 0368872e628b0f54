"""Tests of the benchmark itself: its reporting rules and its determinism.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
import measure  # noqa: E402
from measure import Span  # noqa: E402

# ---------------------------------------------------------------------- #
# percentile rules
# ---------------------------------------------------------------------- #


def test_nearest_rank_percentile():
    values = [float(v) for v in range(10, 0, -1)]  # unsorted on purpose
    assert measure.percentile(values, 50) == 5.0
    assert measure.percentile(values, 90) == 9.0
    assert measure.percentile(values, 91) == 10.0
    assert measure.percentile(values, 100) == 10.0
    assert measure.percentile(values, 1) == 1.0
    assert measure.percentile([7.5], 99.9) == 7.5
    assert measure.median([3.0, 1.0, 2.0, 4.0]) == 2.0


@pytest.mark.parametrize("bad", [0, -5, 100.1])
def test_percentile_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        measure.percentile([1.0], bad)


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_samples_beyond_nearest_rank():
    assert measure.samples_beyond(100, 90) == 10
    assert measure.samples_beyond(99, 90) == 9
    assert measure.samples_beyond(10, 50) == 5
    assert measure.samples_beyond(1, 50) == 0


@pytest.mark.parametrize(
    "count, expected",
    [
        (9, None),      # 4 beyond the median
        (20, 50.0),     # exactly 10 beyond the median
        (99, 50.0),     # p90 has only 9 beyond
        (100, 90.0),
        (199, 90.0),    # p95 has 9 beyond
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_highest_percentile_with_ten_beyond(count, expected):
    assert measure.highest_supported_percentile(count) == expected


# ---------------------------------------------------------------------- #
# span trees and self times
# ---------------------------------------------------------------------- #


def _tree():
    """op [0, 10] holds a [1, 4] (holding a1 [2, 3]) and b [5, 9] (holding
    b1 [5, 6]); another group's root overlaps it in time."""
    return [
        Span("b1", 5.0, 6.0, "q1"),
        Span("op", 0.0, 10.0, "q1"),
        Span("a", 1.0, 4.0, "q1"),
        Span("other", 2.0, 3.5, "q2"),
        Span("a1", 2.0, 3.0, "q1"),
        Span("b", 5.0, 9.0, "q1"),
    ]


def test_parents_follow_containment_within_a_group():
    spans = _tree()
    named = {s.name: i for i, s in enumerate(spans)}
    parent = measure.parents(spans)
    assert parent[named["op"]] is None
    assert parent[named["other"]] is None  # other group: never a child
    assert parent[named["a"]] == named["op"]
    assert parent[named["a1"]] == named["a"]
    assert parent[named["b"]] == named["op"]
    assert parent[named["b1"]] == named["b"]  # same start: longer span is parent


def test_self_time_is_duration_minus_children():
    spans = _tree()
    own = dict(zip((s.name for s in spans), measure.self_times(spans)))
    assert own == {
        "op": 10.0 - 3.0 - 4.0,
        "a": 3.0 - 1.0,
        "a1": 1.0,
        "b": 4.0 - 1.0,
        "b1": 1.0,
        "other": 1.5,
    }


def test_layer_self_times_sum_to_root_time():
    spans = _tree()
    layers = measure.layer_self_times(
        spans, {"a": "L1", "b": "L2"}, remainder="rest"
    )  # a1 and b1 map by prefix
    assert layers == pytest.approx({"rest": 3.0 + 1.5, "L1": 3.0, "L2": 4.0})
    roots = sum(s.duration for s, p in zip(spans, measure.parents(spans)) if p is None)
    assert sum(layers.values()) == pytest.approx(roots)


def test_overlap_without_nesting_is_rejected():
    with pytest.raises(ValueError):
        measure.parents([Span("x", 0.0, 2.0, "g"), Span("y", 1.0, 3.0, "g")])


def test_unmapped_span_is_an_error():
    with pytest.raises(KeyError):
        measure.layer_of_span("mystery", {"a": "L1"})


# ---------------------------------------------------------------------- #
# the benchmark's contract
# ---------------------------------------------------------------------- #


def test_catalog_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == catalog.PER_LAYER
    import run

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_render_is_strict_unless_zero_filling():
    with pytest.raises(KeyError):
        catalog.render({"join_rel": 1.0}, catalog.END_TO_END)
    with pytest.raises(KeyError):
        catalog.render({"no_such_metric": 1.0}, catalog.PER_LAYER, missing_as_zero=True)
    out = catalog.render({"storage.seeks": 3}, catalog.PER_LAYER, missing_as_zero=True)
    assert out["storage.seeks"] == {"value": 3, "unit": "count"}
    assert out["serve.hit_ratio"] == {"value": 0, "unit": "ratio"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sequoia_fit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# ---------------------------------------------------------------------- #
# determinism of the counters at a small scale
# ---------------------------------------------------------------------- #

DETERMINISTIC = (
    "storage.model_io_s",
    "storage.page_reads",
    "storage.page_writes",
    "storage.seeks",
    "core.merge.candidates",
    "core.refine.exact_tests",
)


def test_serial_counters_repeat_exactly(monkeypatch):
    import serial

    small = serial.SerialWorkload("road_hydro", "intersects", 0.02, 2.0)
    monkeypatch.setitem(serial.WORKLOADS, "tiger_spill", small)
    monkeypatch.setattr(serial, "MIN_JOINS", 1)
    first = serial.run_traced("tiger_spill", 11, 0.01)
    second = serial.run_traced("tiger_spill", 11, 0.01)
    assert first.failed == second.failed == 0
    assert first.metrics["core.merge.candidates"] > 0
    assert first.metrics["storage.page_writes"] > 0  # partitions spilled
    for name in DETERMINISTIC:
        assert first.metrics[name] == second.metrics[name], name


def test_serve_hit_ratio_repeats_exactly(monkeypatch):
    import served

    monkeypatch.setattr(served, "SCALE", 0.002)
    monkeypatch.setattr(served, "MIN_HITS", 15)
    first = served.run_traced("serve_mix", 5, 0.01)
    second = served.run_traced("serve_mix", 5, 0.01)
    assert first.failed == second.failed == 0
    assert 0 < first.metrics["serve.hit_ratio"] < 1
    for name in ("serve.hit_ratio", "core.merge.candidates"):
        assert first.metrics[name] == second.metrics[name], name
    assert first.metrics["core.merge.candidates"] > 0
