"""Benchmark harness utilities (scaling, cold runs, table rendering)."""

from .harness import (
    BENCH_SCALE,
    PAPER_BUFFER_MB,
    ResultTable,
    fresh_sequoia,
    fresh_tiger,
    run_cold,
    scaled_buffer_mb,
    write_bench_json,
)

__all__ = [
    "BENCH_SCALE",
    "PAPER_BUFFER_MB",
    "ResultTable",
    "fresh_sequoia",
    "fresh_tiger",
    "run_cold",
    "scaled_buffer_mb",
    "write_bench_json",
]
