"""Every metric the benchmark reports, with its unit.

``END_TO_END`` is what a run without tracing prints and ``PER_LAYER`` what
a traced run prints; both must match ``BENCHMARK.json`` (a test checks).
A traced run reports a metric its workload does not measure as 0 and
names it in the record and the printed summary as not measured.
"""

END_TO_END = {
    # Median per operation of its wall time divided by the host speed
    # measured around it (measure.against_host): serial workloads per join,
    # serve_mix per miss (join_rel) and per hit (request_rel).
    "join_rel": "ratio",
    "request_rel": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SELF_LAYERS = (
    "storage.decode",
    "storage.fetch",
    "core.partition",
    "core.merge",
    "geometry.sweep",
    "core.refine",
    "geometry.exact",
    "parallel.engine",
    "serve.fingerprint",
    "serve.lookup",
    "serve.replay",
    "serve.digest",
    "remainder",
)
"""Layers whose self times (plus the uncovered remainder) add up to the
mean traced operation time, ``obs.traced_s``."""

PER_LAYER = {
    # repro.storage: simulated disk and buffer pool
    "storage.page_reads": "count",
    "storage.page_writes": "count",
    "storage.seeks": "count",
    "storage.model_io_s": "s",
    "storage.pool_hit_ratio": "ratio",
    "storage.pool_evictions": "count",
    # repro.storage: tuple decode and fetch by OID
    "storage.tuples_decoded": "count",
    "storage.decode_s": "s",
    "storage.fetch_calls": "count",
    "storage.fetch_s": "s",
    # repro.core: partition phase
    "core.partition.wall_s": "s",
    "core.partition.io_s": "s",
    "core.partition.replication": "ratio",
    # repro.core merge phase and the repro.geometry plane sweep
    "core.merge.wall_s": "s",
    "core.merge.io_s": "s",
    "core.merge.sweep_calls": "count",
    "core.merge.sweep_inputs": "count",
    "core.merge.sweep_s": "s",
    "core.merge.candidates": "count",
    # repro.core refinement and the exact predicates
    "core.refine.wall_s": "s",
    "core.refine.io_s": "s",
    "core.refine.exact_tests": "count",
    "core.refine.exact_s": "s",
    "core.refine.true_hit_ratio": "ratio",
    "core.refine.batches": "count",
    "core.refine.s_fetches": "count",
    # repro.parallel: the process backend behind a served miss
    "parallel.engine_s": "s",
    "parallel.tasks": "count",
    "parallel.task_retries": "count",
    "parallel.coordinator_merge_s": "s",
    "parallel.task_s": "s",
    "parallel.spill_bytes": "bytes",
    # repro.checkpoint: the cache entry a miss leaves behind
    "checkpoint.bytes": "bytes",
    "checkpoint.commits": "count",
    # repro.serve: the hit path
    "serve.hit_ratio": "ratio",
    "serve.hit_p90_s": "s",
    "serve.fingerprint_s": "s",
    "serve.lookup_s": "s",
    "serve.replay_s": "s",
    "serve.digest_s": "s",
    "serve.degraded": "count",
    # repro.obs: what tracing costs, and where the traced time went
    "obs.trace_overhead_frac": "ratio",
    "obs.traced_s": "s",
    **{f"self.{layer}_s": "s" for layer in SELF_LAYERS},
}


def render(values: dict, catalog: dict, *, missing_as_zero: bool = False) -> dict:
    """The result line's ``metrics`` object: every catalogued metric with
    its unit.  With ``missing_as_zero`` a metric the workload never
    measured reads 0; otherwise a missing metric is an error."""
    unknown = set(values) - set(catalog)
    if unknown:
        raise KeyError(f"uncatalogued metrics: {sorted(unknown)}")
    missing = set(catalog) - set(values)
    if missing and not missing_as_zero:
        raise KeyError(f"unmeasured metrics: {sorted(missing)}")
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in catalog.items()
    }
