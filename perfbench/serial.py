"""The single-node workloads: one serial ``PBSMJoin`` over a simulated disk.

``tiger_spill`` joins TIGER roads with hydrography under a pool too small
for the key-pointers (P > 1, partitions spill through the buffer pool);
``sequoia_fit`` joins Sequoia land use with islands under a pool that
holds them (P = 1), so exact polygon geometry dominates.  Every join runs
from a cold pool and its sorted pair digest is checked against an
``RTreeJoin`` over the same relations.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable, Dict, List

import measure
from measure import Span
from outcome import Outcome
from tracing import Recorder, summarise_trace

import repro.core.pbsm as pbsm_module
import repro.storage.relation as relation_module
from repro import JoinResult, PBSMJoin, RTreeJoin
from repro.bench import scaled_buffer_mb
from repro.obs import MetricsRegistry, Tracer
from repro.serve.query import QuerySpec
from repro.storage import Database, DiskStats, Relation
from repro.storage.buffer import PoolCounters

SETUPS = 3
"""Set-ups per run; ``setup_s`` is their median."""

MIN_JOINS = 3
"""Timed joins per pass even when one join outlasts the time budget."""


@dataclass(frozen=True)
class SerialWorkload:
    dataset: str
    predicate: str
    scale: float
    paper_buffer_mb: float
    """The paper's pool size; the run scales it with the data
    (``repro.bench.scaled_buffer_mb``)."""


WORKLOADS = {
    "tiger_spill": SerialWorkload("road_hydro", "intersects", 0.05, 2.0),
    "sequoia_fit": SerialWorkload("landuse_island", "contains", 0.05, 24.0),
}

LAYER_OF_SPAN = {
    "PBSMJoin.run": "remainder",
    "Partition ": "core.partition",
    "Merge Partitions": "core.merge",
    "merge_pair": "core.merge",
    "Refinement": "core.refine",
    "refine.": "core.refine",
    "sweep_join": "geometry.sweep",
    "predicate": "geometry.exact",
    "Relation.fetch": "storage.fetch",
    "deserialize_tuple": "storage.decode",
}
"""Span name (or name prefix) to layer.  Engine phase spans come from the
``Tracer`` handed to ``PBSMJoin``; the rest from the benchmark's wrappers."""


@dataclass
class Loaded:
    db: Database
    rel_r: Relation
    rel_s: Relation
    predicate: Callable


def set_up(workload: SerialWorkload, seed: int) -> Loaded:
    """Generate both inputs from the seed and load them into a fresh
    database whose pool is then emptied."""
    spec = QuerySpec(
        dataset=workload.dataset, scale=workload.scale, seed=seed,
        predicate=workload.predicate,
    )
    tuples_r, tuples_s = spec.generate()
    db = Database(buffer_mb=scaled_buffer_mb(workload.paper_buffer_mb, workload.scale))
    rel_r = db.create_relation("R")
    rel_r.bulk_load(tuples_r)
    rel_s = db.create_relation("S")
    rel_s.bulk_load(tuples_s)
    db.pool.clear()
    return Loaded(db, rel_r, rel_s, spec.predicate_fn)


def reference_digest(loaded: Loaded) -> str:
    """The answer by another code path: an R-tree join on the same relations."""
    loaded.db.pool.clear()
    result = RTreeJoin(loaded.db.pool).run(loaded.rel_r, loaded.rel_s, loaded.predicate)
    return measure.pair_digest(result.pairs)


@dataclass
class Join:
    seconds: float
    digest: str
    result: JoinResult
    disk: DiskStats
    pool: PoolCounters


def cold_join(loaded: Loaded, predicate=None, tracer=None, metrics=None) -> Join:
    """One timed ``PBSMJoin.run`` from an empty buffer pool."""
    db = loaded.db
    db.pool.clear()
    db.pool.reset_counters()
    # Start every join from the same collector state, so a collection
    # triggered by the previous join's garbage is not billed to this one.
    gc.collect()
    disk_mark = db.disk.snapshot()
    join = PBSMJoin(db.pool, tracer=tracer, metrics=metrics)
    start = time.perf_counter()
    result = join.run(loaded.rel_r, loaded.rel_s, predicate or loaded.predicate)
    seconds = time.perf_counter() - start
    return Join(
        seconds,
        measure.pair_digest(result.pairs),
        result,
        db.disk.stats.minus(disk_mark),
        db.pool.counters(),
    )


def _set_up_timed(workload: SerialWorkload, seed: int, times: int):
    durations: List[float] = []
    loaded = None
    for _ in range(times):
        loaded = None  # let the previous database go before building the next
        start = time.perf_counter()
        loaded = set_up(workload, seed)
        durations.append(time.perf_counter() - start)
    return loaded, durations


def _timed_joins(loaded: Loaded, reference: str, seconds: float):
    joins: List[Join] = []
    host: List[float] = []
    start = time.perf_counter()
    while True:
        join, speed = measure.against_host(lambda: cold_join(loaded))
        joins.append(join)
        host.append(speed)
        if len(joins) >= MIN_JOINS and time.perf_counter() - start >= seconds:
            break
    failed = sum(1 for j in joins if j.digest != reference)
    return joins, failed, host, time.perf_counter() - start


def run(name: str, seed: int, seconds: float) -> Outcome:
    """End-to-end pass: no tracing, every join timed and checked."""
    workload = WORKLOADS[name]
    loaded, setups = _set_up_timed(workload, seed, SETUPS)
    reference = reference_digest(loaded)
    joins, failed, host, loop_s = _timed_joins(loaded, reference, seconds)
    wall = [j.seconds for j in joins]
    relative = [w / h for w, h in zip(wall, host)]
    io = [j.disk.io_time(loaded.db.disk.cost_model) for j in joins]
    first = joins[0].result.report
    metrics = {
        "join_rel": measure.median(relative),
        "request_rel": measure.median(relative),
        "peak_rss_mb": measure.own_peak_rss_mb(),
        "setup_s": measure.median(setups),
    }
    summary = [
        f"{name}: {len(loaded.rel_r)} x {len(loaded.rel_s)} tuples, "
        f"P={first.notes['num_partitions']}, {first.candidates} candidates, "
        f"{first.result_count} results",
        f"join_s        {measure.median(wall):.4f} s   median wall time of {len(joins)} cold joins",
        f"join_rel      {metrics['join_rel']:.2f}        median of wall time / host_ref_s "
        "per join",
        f"model_io_s    {measure.median(io):.4f} s   modelled disk time per join "
        "(not in join_s)",
        f"qps           {len(joins) / loop_s:.4f} 1/s",
        f"failed_frac   {failed / len(joins):.4f}     {failed} of {len(joins)} joins",
        f"peak_rss_mb   {metrics['peak_rss_mb']:.1f} MB",
        f"setup_s       {metrics['setup_s']:.4f} s   median of {len(setups)} set-ups",
        f"host_ref_s    {measure.median(host):.4f} s   fixed loop around each join "
        "(host speed)",
    ]
    return Outcome(
        attempted=len(joins), failed=failed, metrics=metrics, summary=summary,
        record={
            "workload": name, "seed": seed, "join_s": wall, "join_rel": relative,
            "model_io_s": io, "setup_s": setups, "host_ref_s": host,
            "reference_digest": reference,
        },
    )


def run_traced(name: str, seed: int, seconds: float) -> Outcome:
    """Traced pass: untraced and traced joins alternate for ``seconds``,
    giving the per-layer counts and self times and the tracing overhead."""
    workload = WORKLOADS[name]
    loaded, _setups = _set_up_timed(workload, seed, 1)
    reference = reference_digest(loaded)

    recorder = Recorder()
    sweep_inputs = [0]

    def counting_sweep(group_r, group_s, emit):
        sweep_inputs[0] += len(group_r) + len(group_s)
        return original_sweep(group_r, group_s, emit)

    original_sweep = pbsm_module.sweep_join
    recorder.replace(PBSMJoin, "run", "PBSMJoin.run")
    recorder.replace(pbsm_module, "sweep_join", "sweep_join", counting_sweep)
    recorder.replace(Relation, "fetch", "Relation.fetch")
    recorder.replace(relation_module, "deserialize_tuple", "deserialize_tuple")
    predicate = recorder.wrap("predicate", loaded.predicate)

    plain: List[Join] = []
    traced: List[Join] = []
    registries: List[MetricsRegistry] = []
    start = time.perf_counter()
    while len(traced) < MIN_JOINS or time.perf_counter() - start < seconds:
        plain.append(cold_join(loaded))
        recorder.group = f"join-{len(traced):03d}"
        tracer = Tracer(disk=loaded.db.disk, pool=loaded.db.pool)
        metrics = MetricsRegistry()
        with recorder.active():
            join = cold_join(loaded, predicate=predicate, tracer=tracer, metrics=metrics)
        recorder.spans.extend(
            Span(span.name, span.start, span.end, recorder.group)
            for span in tracer.all_spans()
        )
        traced.append(join)
        registries.append(metrics)
    failed = sum(1 for j in plain + traced if j.digest != reference)
    reps = len(traced)

    first, report, registry = traced[0], traced[0].result.report, registries[0]
    disk, pool = first.disk, first.pool
    phases = {p.name: p for p in report.phases}
    partition = [p for n, p in phases.items() if n.startswith("Partition ")]
    merge, refine = phases["Merge Partitions"], phases["Refinement"]
    copies = registry.histogram("pbsm.partition.keypointers").total
    exact_tests = recorder.count("predicate") // reps
    values: Dict[str, float] = {
        "storage.page_reads": disk.page_reads,
        "storage.page_writes": disk.page_writes,
        "storage.seeks": disk.seeks,
        "storage.model_io_s": disk.io_time(loaded.db.disk.cost_model),
        "storage.pool_hit_ratio": pool.hits / max(1, pool.hits + pool.misses),
        "storage.pool_evictions": pool.evictions,
        "storage.tuples_decoded": recorder.count("deserialize_tuple") // reps,
        "storage.decode_s": recorder.total("deserialize_tuple") / reps,
        "storage.fetch_calls": recorder.count("Relation.fetch") // reps,
        "storage.fetch_s": recorder.total("Relation.fetch") / reps,
        "core.partition.wall_s": _median_phase(plain, "Partition "),
        "core.partition.io_s": sum(p.io_s for p in partition),
        "core.partition.replication": copies / (len(loaded.rel_r) + len(loaded.rel_s)),
        "core.merge.wall_s": _median_phase(plain, "Merge Partitions"),
        "core.merge.io_s": merge.io_s,
        "core.merge.sweep_calls": recorder.count("sweep_join") // reps,
        "core.merge.sweep_inputs": sweep_inputs[0] // reps,
        "core.merge.sweep_s": recorder.total("sweep_join") / reps,
        "core.merge.candidates": report.candidates,
        "core.refine.wall_s": _median_phase(plain, "Refinement"),
        "core.refine.io_s": refine.io_s,
        "core.refine.exact_tests": exact_tests,
        "core.refine.exact_s": recorder.total("predicate") / reps,
        "core.refine.true_hit_ratio": report.result_count / max(1, exact_tests),
        "core.refine.batches": registry.counter("refine.batches").value,
        "core.refine.s_fetches": registry.counter("refine.s_tuples_fetched").value,
    }
    trace = summarise_trace(
        recorder.spans, LAYER_OF_SPAN,
        traced_s=[j.seconds for j in traced], plain_s=[j.seconds for j in plain],
    )
    values.update(trace.metrics)
    return Outcome(
        attempted=len(plain) + reps, failed=failed, metrics=values,
        summary=[f"{name}: {reps} traced joins, {len(plain)} untraced"] + trace.summary,
        record={"workload": name, "seed": seed, "layers": trace.layers,
                "largest_layer": trace.largest},
        spans=recorder.spans,
    )


def _median_phase(joins: List[Join], prefix: str) -> float:
    return measure.median([
        sum(p.cpu_s for p in j.result.report.phases if p.name.startswith(prefix))
        for j in joins
    ])

