"""The benchmark-regression gate over BENCH files: ``runs compare --gate``.

Cells are matched by ``(algorithm, buffer_mb)``; page counters,
``candidates``, ``result_count``, ``scale`` and the benchmark name are
exact, ``io_s`` is tolerant either way, wall clock is never gated.
"""

import copy
import json

import pytest

from repro.__main__ import main
from repro.bench.harness import RESULTS_DIR
from repro.obs.corpus import (
    IO_S_TOLERANCE,
    CorpusError,
    check_gates,
    compare_runs,
    index_path,
)
from repro.obs.schema import SCHEMA_VERSION

BASELINE = RESULTS_DIR.parent / "baselines" / "BENCH_fig7_road_hydro.json"


def _record(algorithm="PBSM", buffer_mb=2.0, **overrides):
    record = {
        "algorithm": algorithm,
        "scale": 0.01,
        "buffer_mb": buffer_mb,
        "total_s": 1.5,
        "cpu_s": 0.5,
        "io_s": 1.0,
        "candidates": 1767,
        "result_count": 562,
        "phases": [],
        "counters": {"page_reads": 325, "page_writes": 0, "seeks": 6},
    }
    record.update(overrides)
    return record


def _document(records=None):
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "fig7_road_hydro",
        "records": records if records is not None else [
            _record("PBSM", 2.0),
            _record("R-tree", 2.0, io_s=2.0,
                    counters={"page_reads": 395, "page_writes": 83, "seeks": 24}),
            _record("PBSM", 8.0),
        ],
    }


def _write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


def _gate(tmp_path, baseline, fresh):
    """Every failure of ``--gate '*'`` for two BENCH documents."""
    a = index_path(_write(tmp_path, "base.json", baseline))
    b = index_path(_write(tmp_path, "fresh.json", fresh))
    return check_gates(compare_runs(a, b), ["*"])


class TestGatePasses:
    def test_identical_documents(self, tmp_path):
        assert _gate(tmp_path, _document(), _document()) == []

    def test_wall_time_noise_is_ignored(self, tmp_path):
        fresh = _document()
        for record in fresh["records"]:
            record["cpu_s"] *= 3.0
            record["total_s"] *= 3.0
        assert _gate(tmp_path, _document(), fresh) == []

    def test_io_s_within_tolerance(self, tmp_path):
        fresh = _document()
        fresh["records"][0]["io_s"] *= 1.0 + IO_S_TOLERANCE * 0.9
        fresh["records"][1]["io_s"] *= 1.0 - IO_S_TOLERANCE * 0.9
        assert _gate(tmp_path, _document(), fresh) == []


class TestGateFails:
    def test_page_reads_drift_of_one(self, tmp_path):
        # The seeded perturbation: a single extra page read must trip the
        # gate — deterministic counters get zero tolerance.
        fresh = _document()
        fresh["records"][0]["counters"]["page_reads"] += 1
        violations = _gate(tmp_path, _document(), fresh)
        assert len(violations) == 1
        assert "PBSM@2MB/counter.page_reads" in violations[0]
        assert "325" in violations[0] and "326" in violations[0]

    @pytest.mark.parametrize("field", ["candidates", "result_count"])
    def test_exact_field_drift(self, tmp_path, field):
        fresh = _document()
        fresh["records"][1][field] -= 1
        violations = _gate(tmp_path, _document(), fresh)
        assert len(violations) == 1
        assert f"R-tree@2MB/{field}" in violations[0]

    def test_io_s_beyond_tolerance(self, tmp_path):
        for factor in (1.0 + IO_S_TOLERANCE * 1.5, 1.0 - IO_S_TOLERANCE * 1.5):
            fresh = _document()
            fresh["records"][0]["io_s"] *= factor
            violations = _gate(tmp_path, _document(), fresh)
            assert len(violations) == 1
            assert "PBSM@2MB/io_s" in violations[0]

    def test_io_s_appearing_from_zero(self, tmp_path):
        base = _document()
        base["records"][0]["io_s"] = 0.0
        fresh = copy.deepcopy(base)
        fresh["records"][0]["io_s"] = 0.25
        assert any("PBSM@2MB/io_s" in v for v in _gate(tmp_path, base, fresh))

    def test_scale_mismatch(self, tmp_path):
        fresh = _document()
        for record in fresh["records"]:
            record["scale"] = 0.05
        violations = _gate(tmp_path, _document(), fresh)
        assert len(violations) == 3
        assert all("/scale" in v and "0.05" in v for v in violations)

    def test_missing_and_extra_records(self, tmp_path):
        base = _document()
        fresh = _document()
        fresh["records"] = fresh["records"][:-1] + [_record("INL", 2.0)]
        violations = _gate(tmp_path, base, fresh)
        assert violations == [
            "cell INL@2MB: present in b only",
            "cell PBSM@8MB: present in a only",
        ]

    def test_benchmark_name_mismatch(self, tmp_path):
        fresh = _document()
        fresh["benchmark"] = "fig8_road_rail"
        assert _gate(tmp_path, _document(), fresh) == [
            "gate benchmark: fig7_road_hydro -> fig8_road_rail "
            "(exact: must not change)"
        ]

    def test_multiple_violations_all_reported(self, tmp_path):
        fresh = _document()
        fresh["records"][0]["counters"]["seeks"] += 10
        fresh["records"][1]["result_count"] += 5
        fresh["records"][2]["counters"]["page_writes"] += 1
        assert len(_gate(tmp_path, _document(), fresh)) == 3


class TestFilesAndCLI:
    def test_compare_files_validates_schema(self, tmp_path, capsys):
        good = _write(tmp_path, "good.json", _document())
        bad = _write(tmp_path, "bad.json", {"records": []})
        with pytest.raises(CorpusError, match="missing required property"):
            index_path(bad)
        assert main(["runs", "compare", str(good), str(bad),
                     "--gate", "*"]) == 2
        assert "bad.json" in capsys.readouterr().err

    def test_cli_pass(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _document())
        fresh = _write(tmp_path, "fresh.json", _document())
        assert main(["runs", "compare", str(base), str(fresh),
                     "--gate", "*"]) == 0
        assert "REGRESSION" not in capsys.readouterr().out

    def test_cli_fail_on_perturbation(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _document())
        perturbed = _document()
        perturbed["records"][0]["counters"]["page_reads"] += 7
        fresh = _write(tmp_path, "fresh.json", perturbed)
        assert main(["runs", "compare", str(base), str(fresh),
                     "--gate", "*"]) == 4
        out = capsys.readouterr().out
        assert "REGRESSION: gate PBSM@2MB/counter.page_reads" in out
        assert "re-baseline" in out.lower()

    def test_gate_passes_on_committed_baseline(self):
        # The baseline in the repo must agree with itself — guards against
        # committing a baseline the CI gate immediately rejects.
        assert BASELINE.exists()
        record = index_path(BASELINE)
        assert check_gates(compare_runs(record, record), ["*"]) == []


def _exact_paths(record):
    """(label, container, key) for every exactly-gated number of a cell."""
    yield "scale", record, "scale"
    for key in ("candidates", "result_count"):
        yield key, record, key
    for key in ("page_reads", "page_writes", "seeks"):
        yield f"counter.{key}", record["counters"], key
        for phase in record["phases"]:
            yield f"phase.{phase['name']}.{key}", phase, key


class TestCommittedBaselineCells:
    """Every cell of the real fig-7 baseline is gated on its own."""

    def test_one_step_in_any_exact_metric_names_its_cell(self, tmp_path):
        baseline = json.loads(BASELINE.read_text())
        a = index_path(BASELINE)
        cells = {(r["algorithm"], r["buffer_mb"]) for r in baseline["records"]}
        assert len(cells) == len(baseline["records"]) == 9
        checked = 0
        for i, record in enumerate(baseline["records"]):
            cell = f"{record['algorithm']}@{record['buffer_mb']:g}MB"
            for n, (label, _, _) in enumerate(_exact_paths(record)):
                for step in (1, -1):
                    fresh = copy.deepcopy(baseline)
                    _, container, key = list(_exact_paths(fresh["records"][i]))[n]
                    before = container[key]
                    if before + step < 0:
                        continue  # the schema forbids negative counts
                    container[key] = before + step
                    b = index_path(_write(tmp_path, "fresh.json", fresh))
                    assert check_gates(compare_runs(a, b), ["*"]) == [
                        f"gate {cell}/{label}: {_num(before)} -> "
                        f"{_num(before + step)} (exact: must not change)"
                    ], (cell, label, step)
                    checked += 1
        assert checked > 9 * 6

    def test_scaling_wall_clock_never_fails(self, tmp_path):
        fresh = json.loads(BASELINE.read_text())
        for record in fresh["records"]:
            record["cpu_s"] *= 50.0
            record["total_s"] *= 50.0
            for phase in record["phases"]:
                phase["cpu_s"] *= 50.0
        a = index_path(BASELINE)
        b = index_path(_write(tmp_path, "fresh.json", fresh))
        assert check_gates(compare_runs(a, b), ["*"]) == []

    def test_cli_names_the_drifted_cell(self, tmp_path, capsys):
        fresh = json.loads(BASELINE.read_text())
        (record,) = [r for r in fresh["records"]
                     if (r["algorithm"], r["buffer_mb"]) == ("R-tree", 2.0)]
        record["counters"]["page_reads"] += 50
        record["candidates"] += 9
        path = _write(tmp_path, "fresh.json", fresh)
        assert main(["runs", "compare", str(BASELINE), str(path),
                     "--gate", "*"]) == 4
        regressions = [line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("REGRESSION")]
        assert regressions == [
            "REGRESSION: gate R-tree@2MB/candidates: 1767 -> 1776 "
            "(exact: must not change)",
            "REGRESSION: gate R-tree@2MB/counter.page_reads: 395 -> 445 "
            "(exact: must not change)",
        ]


def _num(value):
    return f"{value:g}" if isinstance(value, float) else str(value)
