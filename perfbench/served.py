"""The join-service workload: a seeded closed loop of cache misses and hits.

One client on one connection sends a query, waits for the answer, then
sends the next.  The mix is 12 distinct specs — three dataset pairs times
four partition counts, all at one scale — asked in seeded rounds of all
12, so each spec's first occurrence is a miss (the process backend runs
and fills the cache) and every later one is a hit (its result log is
replayed).
Every answer's digest is checked against a serial ``parallel_join`` per
dataset, which does not depend on the partition count.

The end-to-end pass drives ``python -m repro serve`` subprocesses, one
per set-up, each with an empty cache that answers a round of misses; the
traced pass runs ``JoinServer`` in-process and wraps the hit and miss paths
in alternate rounds of the same loop.
"""

from __future__ import annotations

import collections
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import measure
from outcome import Outcome
from tracing import Recorder, summarise_trace

import repro.serve.server as server_module
from repro.parallel import parallel_join
from repro.parallel.process import ProcessPBSM
from repro.serve import JoinServer, ServeClient, read_port_file
from repro.serve.cache import ArtifactCache
from repro.serve.query import QuerySpec, result_digest

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "out"

SCALE = 0.04
WORKERS = 2
DATASETS = (
    ("road_hydro", "intersects"),
    ("landuse_island", "contains"),
    ("road_rail", "intersects"),
)
PARTITIONS = (3, 4, 6, 8)
WARMUP_PARTITIONS = 2
"""Outside the mix, so warming up spawns the pool and materialises every
input without caching any spec the loop will ask for."""

MIN_HITS = 108
"""Nine rounds of hits: the fewest whole rounds that give a p90 with ten
samples beyond it."""

SETUPS = 3
"""Server set-ups per end-to-end run; ``setup_s`` is their median."""

MAX_LOOP_S = 130.0
"""Give up (and fail the run) rather than overrun the 180 s run limit."""

QUERY_TIMEOUT_S = 60.0

REJECTS = ("queue_full", "deadline_exceeded", "storage_overload", "internal")

LAYER_OF_SPAN = {
    "query": "remainder",
    "QuerySpec.fingerprint": "serve.fingerprint",
    "ArtifactCache.lookup": "serve.lookup",
    "ArtifactCache.replay": "serve.replay",
    "result_digest": "serve.digest",
    "ProcessPBSM.run": "parallel.engine",
}


def mix(seed: int) -> List[dict]:
    """The 12 distinct query specs, as wire fields."""
    return [
        QuerySpec(
            dataset=dataset, scale=SCALE, seed=seed, predicate=predicate,
            workers=WORKERS, num_partitions=partitions,
        ).to_wire()
        for dataset, predicate in DATASETS
        for partitions in PARTITIONS
    ]


def warmups(seed: int) -> List[dict]:
    return [
        QuerySpec(
            dataset=dataset, scale=SCALE, seed=seed, predicate=predicate,
            workers=WORKERS, num_partitions=WARMUP_PARTITIONS,
        ).to_wire()
        for dataset, predicate in DATASETS
    ]


def reference_digests(seed: int) -> Dict[str, str]:
    """Per dataset, the digest of the serial backend's answer."""
    digests = {}
    for dataset, predicate in DATASETS:
        spec = QuerySpec(dataset=dataset, scale=SCALE, seed=seed, predicate=predicate)
        tuples_r, tuples_s = spec.generate()
        result = parallel_join(tuples_r, tuples_s, spec.predicate_fn, backend="serial")
        digests[dataset] = result_digest(result.pairs)
    return digests


class ServeError(RuntimeError):
    """The server could not be started, warmed up, or stopped cleanly."""


def _warm_up(client: ServeClient, seed: int) -> None:
    if not client.ping().get("ok"):
        raise ServeError("server did not answer ping")
    for spec in warmups(seed):
        response = client.join(**spec)
        if not response.get("ok"):
            raise ServeError(f"warm-up query failed: {response}")


class SubprocessServer:
    """``python -m repro serve`` with its own cache and out dirs."""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        self.log = workdir / "server.log"
        port_file = workdir / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--cache-dir", str(workdir / "cache"),
                    "--out", str(workdir / "journals"),
                    "--port-file", str(port_file),
                    "--workers", str(WORKERS),
                ],
                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        self.client: Optional[ServeClient] = None
        try:
            port = read_port_file(port_file, timeout_s=60.0)
            self.client = ServeClient("127.0.0.1", port, timeout=QUERY_TIMEOUT_S, retries=0)
            _warm_up(self.client, seed)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> Optional[str]:
        """Clean ``shutdown`` op, wait for exit, remove the work dir.
        Returns ``None`` on a clean exit, else what went wrong with the
        tail of the server's log; a server that will not stop is killed."""
        problem = None
        try:
            if self.client is not None:
                if not self.client.shutdown().get("ok"):
                    problem = "shutdown op refused"
                self.client.close()
            else:
                self.proc.terminate()
            status = self.proc.wait(timeout=60)
            if status != 0 and problem is None:
                problem = f"server exited with status {status}"
        except (OSError, subprocess.TimeoutExpired) as exc:
            problem = f"server did not stop cleanly: {exc}"
            self.proc.kill()
            self.proc.wait()
        log = self.log.read_text(errors="replace") if self.log.exists() else ""
        shutil.rmtree(self.workdir, ignore_errors=True)
        return f"{problem}; server log:\n{log[-4000:]}" if problem else None


class InProcessServer:
    """``JoinServer`` on a thread of this process (the traced pass)."""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        self.server = JoinServer(workdir / "cache", workdir / "journals", workers=WORKERS)
        host, port = self.server.start()
        self.client = ServeClient(host, port, timeout=QUERY_TIMEOUT_S, retries=0)
        try:
            _warm_up(self.client, seed)
        except BaseException:
            self.stop()
            raise

    def journals(self) -> Dict[str, List[dict]]:
        """Per-query journal events, keyed by query id."""
        out = {}
        for path in sorted((self.workdir / "journals").glob("query-*/journal.jsonl")):
            with open(path) as lines:
                out[path.parent.name] = [json.loads(line) for line in lines if line.strip()]
        return out

    def stop(self) -> None:
        self.client.shutdown()
        self.client.close()
        if not self.server.stopped.wait(60):
            raise ServeError("in-process server did not drain")
        shutil.rmtree(self.workdir, ignore_errors=True)


class Loop:
    """Outcome of one closed loop over the seeded mix."""

    def __init__(self) -> None:
        self.latency: Dict[str, List[float]] = {"hit": [], "miss": []}
        """Untraced latencies by response source."""
        self.relative: Dict[str, List[float]] = {"hit": [], "miss": []}
        """Untraced latencies divided by the host speed around each query
        (``measure.against_host``)."""
        self.traced: Dict[str, List[float]] = {"hit": [], "miss": []}
        self.by_dataset: Dict[str, List[float]] = collections.defaultdict(list)
        """Untraced latencies keyed ``<source>/<dataset>``."""
        self.misses: List[dict] = []
        """Responses of the misses (for their run ids and journals)."""
        self.attempted = 0
        self.failed = 0
        self.rejects: collections.Counter = collections.Counter()
        self.sources: collections.Counter = collections.Counter()
        self.wrong = 0
        self.elapsed = 0.0
        self.host: List[float] = []
        """``measure.against_host`` host speed around each query."""

    @property
    def completed(self) -> int:
        return sum(len(v) for v in (*self.latency.values(), *self.traced.values()))


def query_order(seed: int, count: int) -> Iterator[int]:
    """Spec indices in seeded rounds: each round asks for every spec once,
    in a fresh random order, so each dataset gets the same share of hits
    whatever the seed (their hit latencies differ several-fold)."""
    rng = random.Random(seed)
    while True:
        order = list(range(count))
        rng.shuffle(order)
        yield from order


def closed_loop(
    client: ServeClient,
    seed: int,
    references: Dict[str, str],
    seconds: float,
    recorder: Optional[Recorder] = None,
    *,
    min_hits: int,
    loop: Optional[Loop] = None,
) -> Loop:
    """Query whole rounds until every spec has missed once, ``min_hits``
    untraced hits are in, and ``seconds`` have passed.  With ``seconds=0``
    the sequence is a pure function of the seed; with ``min_hits=0`` as
    well it is one round of misses.  Passing a ``loop`` adds to its tallies
    (a fresh server misses every spec again).

    With a ``recorder``, even rounds (the first, all misses, included) run
    with tracing active and odd rounds without, so the tracing overhead is
    measured on hits interleaved in time."""
    specs = mix(seed)
    seen = set()
    if loop is None:
        loop = Loop()
    start = time.perf_counter() - loop.elapsed
    for index in query_order(seed, len(specs)):
        spec = specs[index]
        expected = "hit" if index in seen else "miss"
        traced = recorder is not None and (loop.attempted // len(specs)) % 2 == 0
        if traced:
            recorder.group = f"q{loop.attempted:04d}-{expected}"
            with recorder.active(), recorder.span("query"):
                response, took = _timed(client, spec)
        else:
            (response, took), speed = measure.against_host(lambda: _timed(client, spec))
            loop.host.append(speed)
        loop.attempted += 1
        loop.sources[response.get("source")] += 1
        if not response.get("ok"):
            loop.failed += 1
            loop.rejects[response.get("error", "unknown")] += 1
        elif (
            response.get("result_sha256") != references[spec["dataset"]]
            or response.get("source") != expected
        ):
            loop.failed += 1
            loop.wrong += 1
        else:
            if traced:
                loop.traced[expected].append(took)
            else:
                loop.latency[expected].append(took)
                loop.relative[expected].append(took / speed)
                loop.by_dataset[f"{expected}/{spec['dataset']}"].append(took)
            seen.add(index)
            if expected == "miss":
                loop.misses.append(response)
        loop.elapsed = time.perf_counter() - start
        if (
            loop.attempted % len(specs) == 0
            and len(seen) == len(specs)
            and len(loop.latency["hit"]) >= min_hits
            and loop.elapsed >= seconds
        ):
            return loop
        if loop.elapsed > MAX_LOOP_S:
            loop.failed += 1
            loop.rejects["loop_overrun"] += 1
            return loop


def _timed(client: ServeClient, spec: dict):
    begun = time.perf_counter()
    response = client.join(**spec)
    return response, time.perf_counter() - begun


def _loop_lines(loop: Loop) -> List[str]:
    hits, misses = loop.latency["hit"], loop.latency["miss"]
    lines = [
        f"miss_p50_s    {_p(misses, 50):.4f} s   median of {len(misses)} misses",
        f"miss_rel      {_p(loop.relative['miss'], 50):.2f}        median of latency / "
        "host_ref_s per miss",
        f"hit_p50_s     {_p(hits, 50):.4f} s   median of {len(hits)} hits",
        f"hit_rel       {_p(loop.relative['hit'], 50):.2f}        median of latency / "
        "host_ref_s per hit",
    ]
    top = measure.highest_supported_percentile(len(hits))
    lines.append(
        f"hit_p90_s     {_p(hits, 90):.4f} s   "
        f"({measure.samples_beyond(len(hits), 90)} hits beyond; highest percentile "
        f"with {measure.MIN_BEYOND} beyond is p{top}: {_p(hits, top or 50):.4f} s)"
    )
    lines.append(
        f"qps           {loop.completed / loop.elapsed:.4f} 1/s over {loop.elapsed:.1f} s"
    )
    lines.append(
        f"host_ref_s    {measure.median(loop.host):.4f} s   fixed loop around each query "
        "(host speed)"
    )
    tally = ", ".join(f"{code}={loop.rejects.get(code, 0)}" for code in REJECTS)
    lines.append(
        f"failed_frac   {loop.failed / loop.attempted:.4f}     {loop.failed} of "
        f"{loop.attempted} queries (wrong={loop.wrong}; {tally})"
    )
    return lines


def _p(values: List[float], pct: float) -> float:
    return measure.percentile(values, pct) if values else float("nan")


def run(name: str, seed: int, seconds: float) -> Outcome:
    """End-to-end pass against server subprocesses.  Each set-up starts a
    server with an empty cache, which answers one round of misses before
    the next is started; the last one runs the whole loop.  So a run
    gets ``SETUPS`` times 12 misses."""
    references = reference_digests(seed)
    loop = Loop()
    setups: List[float] = []
    server_errors: List[str] = []
    for attempt in range(SETUPS):
        begun = time.perf_counter()
        server = SubprocessServer(WORK / f"serve-{seed}-{attempt}", seed)
        setups.append(time.perf_counter() - begun)
        try:
            if attempt < SETUPS - 1:
                closed_loop(server.client, seed, references, 0.0, min_hits=0, loop=loop)
            else:
                closed_loop(
                    server.client, seed, references, seconds, min_hits=MIN_HITS, loop=loop
                )
                peak = measure.process_tree_peak_rss_mb(server.proc.pid)
        finally:
            server_errors.append(server.stop())
    server_errors = [error for error in server_errors if error]
    metrics = {
        "join_rel": measure.median(loop.relative["miss"]),
        "request_rel": measure.median(loop.relative["hit"]),
        "peak_rss_mb": peak,
        "setup_s": measure.median(setups),
    }
    summary = [f"{name}: {len(mix(seed))} specs at scale {SCALE}, {WORKERS} workers"]
    summary += _loop_lines(loop)
    summary += [
        f"peak_rss_mb   {peak:.1f} MB   server and its workers",
        f"setup_s       {metrics['setup_s']:.4f} s   median of {len(setups)} set-ups",
        f"server stops  {SETUPS - len(server_errors)} of {SETUPS} clean",
    ]
    return Outcome(
        attempted=loop.attempted + SETUPS,
        failed=loop.failed + len(server_errors),
        metrics=metrics,
        summary=summary,
        record={
            "workload": name, "seed": seed, "setup_s": setups,
            "latency_s": loop.by_dataset, "host_ref_s": loop.host,
            "rejects": dict(loop.rejects),
            "references": references, "server_errors": server_errors,
        },
    )


def run_traced(name: str, seed: int, seconds: float) -> Outcome:
    """One in-process server; rounds alternate traced and untraced.  The
    sequence is fixed by the seed (``seconds`` is not used), so the counts
    repeat exactly."""
    references = reference_digests(seed)
    recorder = Recorder()
    engines: List = []
    """The ``ParallelJoinResult`` of every miss, for its per-task figures."""

    def engine_run(engine, *args, **kwargs):
        result = original_run(engine, *args, **kwargs)
        engines.append(result)
        return result

    original_run = ProcessPBSM.run
    recorder.replace(QuerySpec, "fingerprint", "QuerySpec.fingerprint")
    recorder.replace(ArtifactCache, "lookup", "ArtifactCache.lookup")
    recorder.replace(ArtifactCache, "replay", "ArtifactCache.replay")
    recorder.replace(server_module, "result_digest", "result_digest")
    recorder.replace(ProcessPBSM, "run", "ProcessPBSM.run", engine_run)
    server = InProcessServer(WORK / f"serve-{seed}-traced", seed)
    try:
        loop = closed_loop(server.client, seed, references, 0.0, recorder, min_hits=MIN_HITS)
        journals = server.journals()
        entries = _entry_sizes(server.workdir / "cache", loop.misses)
    finally:
        server.stop()

    miss_events = [journals[m["query"]] for m in loop.misses]
    n_miss = max(1, len(loop.misses))
    by_group = {name: recorder.per_group(name) for name in LAYER_OF_SPAN}
    hit_groups = [g for g in by_group["query"] if g.endswith("-hit")]
    values = {
        "parallel.engine_s": _median_of(by_group["ProcessPBSM.run"].values()),
        "parallel.tasks": _count_events(miss_events, "task_finished") / n_miss,
        "parallel.task_retries": _count_events(miss_events, "retry"),
        "parallel.coordinator_merge_s": _median_of(r.coordinator_merge_s for r in engines),
        "parallel.task_s": _median_of(sum(t.wall_s for t in r.tasks) for r in engines),
        "parallel.spill_bytes": sum(spill for _, spill in entries) / n_miss,
        "checkpoint.bytes": sum(total for total, _ in entries) / n_miss,
        "checkpoint.commits": _count_events(miss_events, "checkpoint_commit") / n_miss,
        # Merge and refine run in the worker processes, out of reach of the
        # wrappers; the task reports carry their candidates, not their split.
        "core.merge.candidates": _median_of(
            sum(t.candidates for t in r.tasks) for r in engines
        ),
        "serve.hit_ratio": (len(loop.latency["hit"]) + len(loop.traced["hit"]))
        / max(1, loop.completed),
        "serve.hit_p90_s": _p(loop.latency["hit"], 90),
        "serve.fingerprint_s": _median_of(by_group["QuerySpec.fingerprint"].values()),
        "serve.lookup_s": _median_of(by_group["ArtifactCache.lookup"][g] for g in hit_groups),
        "serve.replay_s": _median_of(by_group["ArtifactCache.replay"][g] for g in hit_groups),
        "serve.digest_s": _median_of(by_group["result_digest"][g] for g in hit_groups),
        "serve.degraded": loop.sources["degraded"],
    }
    hits = {"traced_s": loop.traced["hit"], "plain_s": loop.latency["hit"]}
    trace = summarise_trace(recorder.spans, LAYER_OF_SPAN, **hits)
    values.update(trace.metrics)
    hit_layers = summarise_trace(
        [s for s in recorder.spans if s.group.endswith("-hit")], LAYER_OF_SPAN, **hits
    )
    summary = [
        f"{name}: {loop.attempted} queries, {len(loop.misses)} misses and "
        f"{len(loop.traced['hit'])} hits traced, {len(loop.latency['hit'])} hits untraced",
        f"hit_p50_s     untraced {_p(loop.latency['hit'], 50):.4f} s, "
        f"traced {_p(loop.traced['hit'], 50):.4f} s",
    ]
    summary += trace.summary + ["hit queries only:"] + hit_layers.summary
    return Outcome(
        attempted=loop.attempted,
        failed=loop.failed,
        metrics=values,
        summary=summary,
        record={
            "workload": name, "seed": seed, "layers": trace.layers,
            "largest_layer": trace.largest, "hit_layers": hit_layers.layers,
            "largest_hit_layer": hit_layers.largest, "rejects": dict(loop.rejects),
        },
        spans=recorder.spans,
    )


def _entry_sizes(cache_root: Path, misses: List[dict]):
    """(entry bytes, spill bytes) of each miss's cache directory."""
    sizes = []
    for response in misses:
        entry = cache_root / response["run_id"]
        files = [p for p in entry.rglob("*") if p.is_file()]
        sizes.append((
            sum(p.stat().st_size for p in files),
            sum(p.stat().st_size for p in files if "spills" in p.relative_to(entry).parts),
        ))
    return sizes


def _count_events(journals, event_type: str) -> int:
    return sum(1 for events in journals for e in events if e.get("type") == event_type)


def _median_of(values) -> float:
    values = list(values)
    return measure.median(values) if values else 0.0
