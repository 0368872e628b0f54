"""Command-line entry point: ``python -m repro``.

Subcommands:

* ``demo``  — run a small PBSM join end to end and print the cost report
  (``--json`` for the machine-readable report, ``--seed`` for alternative
  reproducible datasets);
* ``trace`` — run a PBSM road × hydro join under the ``repro.obs``
  observability layer and write the JSONL trace, metrics snapshot, and
  chrome-trace timeline;
* ``parallel`` — run a spatial join on a parallel backend
  (``--backend process|simulated|serial --workers N``, ``--dataset``
  picks the input pair, including the polygon workload
  ``landuse_island``) and report the wall/critical-path numbers plus
  the ``merge.duplicates_dropped`` invariant (two-layer partitioning
  keeps it at 0); ``--verify`` cross-checks the pair set
  against the serial reference; ``--checkpoint-dir D`` makes the
  coordinator's state durable and ``--resume`` continues an interrupted
  checkpointed run; ``--out DIR`` records the run journal and ``--live``
  streams in-flight progress from worker heartbeats;
* ``chaos`` — run the road × hydro join on the process backend under a
  named (or JSON-file) fault plan, verify the pair set against the serial
  reference, and report the fault/recovery tallies; non-zero exit when the
  join did not survive; writes the flight-recorder artifacts
  (``journal.jsonl``, ``trace.jsonl``, ``chrome_trace.json``,
  ``metrics.json``) to ``--out`` (default ``run_out``) for ``repro
  report``; ``--kill-coordinator-after N`` kills the coordinator after
  checkpoint ordinal N (soft kill auto-resumes in the same invocation;
  ``--kill-hard`` sends real SIGKILL for a CI resume);
* ``report`` — analyze a recorded run directory (journal + optional
  trace) and render the markdown run report: partition skew (the Figure 4
  CoV statistic), LPT critical path, straggler ranking, and the
  fault/retry timeline; ``--timings`` appends the measured
  (non-deterministic) sections;
* ``checkpoints`` — list, inspect, or garbage-collect the join manifests
  under a checkpoint directory (``gc --max-bytes N`` prunes
  least-recently-used runs to a size budget — the serve cache's policy);
* ``serve`` — run the resident join service: a long-lived coordinator on
  a local TCP socket multiplexing queries onto one shared process pool,
  with admission control (bounded in-flight + queue, explicit rejects)
  and a fingerprint-keyed artifact cache that answers repeated queries
  from their committed result logs and resumes half-finished ones;
* ``query`` — one-shot client for a running server (``--op
  join|ping|stats|shutdown``);
* ``plan``  — show which algorithm the paper's decision table picks for a
  described scenario;
* ``top`` — live dashboard against a running server;
* ``runs`` — cross-run warehouse over run dirs, serve roots and
  ``BENCH_*.json`` files: ``list``, ``show``, and ``compare A B`` with
  ``--gate PATTERN`` (shell-style, ``'*'`` gates every metric), the one
  regression gate: each metric's policy comes from its name (exact page
  counts, candidates and results; 10 % ``io_s``; wall clock never), and
  BENCH cells are compared per ``(algorithm, buffer_mb)`` as
  ``R-tree@2MB/candidates``; exit 4 on a regression;
* ``info``  — package, subsystem, and experiment inventory.
"""

from __future__ import annotations

import argparse
import json
import sys


def _cmd_demo(args: argparse.Namespace) -> int:
    from . import Database, PBSMJoin, intersects
    from .data import make_tiger_datasets
    from .obs import report_to_dict

    db = Database(buffer_mb=args.buffer_mb)
    rels = make_tiger_datasets(
        db, scale=args.scale, include=("road", "hydro"), seed=args.seed
    )
    if not args.json:
        print(
            f"loaded {len(rels['road'])} roads and {len(rels['hydro'])} "
            f"hydrography features (scale={args.scale})"
        )
    db.pool.clear()
    result = PBSMJoin(db.pool).run(rels["road"], rels["hydro"], intersects)
    if args.json:
        document = report_to_dict(result.report)
        document["scale"] = args.scale
        document["buffer_mb"] = args.buffer_mb
        document["seed"] = args.seed
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(f"{len(result)} intersecting pairs\n")
    print(result.report.format_table())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from . import Database, PBSMJoin, intersects
    from .data import make_tiger_datasets
    from .obs import (
        MetricsRegistry,
        Tracer,
        write_chrome_trace,
        write_metrics_json,
        write_trace_jsonl,
    )

    db = Database(buffer_mb=args.buffer_mb)
    rels = make_tiger_datasets(
        db, scale=args.scale, include=("road", "hydro"), seed=args.seed
    )
    db.pool.clear()
    db.pool.reset_counters()

    tracer = Tracer(disk=db.disk, pool=db.pool)
    metrics = MetricsRegistry()
    result = PBSMJoin(db.pool, tracer=tracer, metrics=metrics).run(
        rels["road"], rels["hydro"], intersects
    )

    out = Path(args.out)
    trace_path = write_trace_jsonl(tracer, out / "trace.jsonl")
    metrics_path = write_metrics_json(
        metrics,
        out / "metrics.json",
        extra={
            "algorithm": "PBSM",
            "scale": args.scale,
            "buffer_mb": args.buffer_mb,
            "result_count": len(result),
        },
    )
    chrome_path = write_chrome_trace(tracer, out / "chrome_trace.json")

    print(result.report.format_table())
    print(f"\n{tracer.span_count} spans from {len(result)} result pairs")
    print(f"trace:   {trace_path}")
    print(f"metrics: {metrics_path}")
    print(f"timeline: {chrome_path}  (open in chrome://tracing or Perfetto)")
    return 0


def _live_renderer(stream):
    """Journal ``on_event`` hook: one progress line per interesting event.

    This is the whole ``parallel --live`` implementation — the journal
    already sees every dispatch, heartbeat, completion, and fault as it
    happens, so live progress is just a callback that prints them.
    """
    state = {"done": 0, "total": None}

    def on_event(record: dict) -> None:
        kind = record.get("type")
        line = None
        if kind == "run_started":
            line = (f"run started: backend={record.get('backend')} "
                    f"workers={record.get('workers')} "
                    f"partitions={record.get('partitions')}")
        elif kind == "schedule":
            state["total"] = len(record.get("order", []))
            line = f"{state['total']} partition-pair tasks scheduled (LPT order)"
        elif kind == "task_dispatched":
            line = f"-> pair {record.get('pair')} attempt {record.get('attempt')}"
        elif kind == "worker_heartbeat":
            line = (f"   worker {record.get('pid')} pair {record.get('pair')} "
                    f"{record.get('phase')}")
        elif kind in ("task_finished", "task_replayed"):
            state["done"] += 1
            total = state["total"] if state["total"] is not None else "?"
            verb = "replayed" if kind == "task_replayed" else "done"
            line = (f"<- pair {record.get('pair')} {verb} "
                    f"({state['done']}/{total}, "
                    f"{record.get('results', 0)} results)")
        elif kind == "node_finished":
            line = (f"<- node {record.get('node')} finished "
                    f"({record.get('local_pairs', 0)} local pairs)")
        elif kind == "fault_injected":
            line = f"!! fault {record.get('kind')} pair {record.get('pair')}"
        elif kind == "retry":
            line = (f"!! retry pair {record.get('pair')} "
                    f"attempt {record.get('attempt')} "
                    f"(cause {record.get('cause')})")
        elif kind == "pool_respawn":
            line = "!! worker pool respawned"
        elif kind == "run_finished":
            line = f"run finished: {record.get('results')} result pairs"
        if line is not None and not state.get("dead"):
            # A dead stream (e.g. the output piped to a pager that quit)
            # must not kill the join: stop rendering, keep flying.
            try:
                stream.write(f"[live] {line}\n")
                stream.flush()
            except (OSError, ValueError):
                state["dead"] = True

    return on_event


def _cmd_parallel(args: argparse.Namespace) -> int:
    from . import intersects
    from .checkpoint import CheckpointMismatchError
    from .obs import RunJournal, journal_path
    from .parallel import parallel_join
    from .serve.query import DATASETS, result_digest
    from .storage import DiskFullError

    if args.resume and not args.checkpoint_dir:
        print("parallel: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.checkpoint_dir and args.backend != "process":
        print("parallel: --checkpoint-dir requires --backend process",
              file=sys.stderr)
        return 2
    if (args.live or args.out) and args.backend == "serial":
        print("parallel: --live/--out need a scheduled backend "
              "(process or simulated); the serial reference has no "
              "journal to record", file=sys.stderr)
        return 2
    budget = None
    if args.disk_budget is not None:
        if args.backend != "process":
            print("parallel: --disk-budget requires --backend process "
                  "(the other backends write no real bytes to govern)",
                  file=sys.stderr)
            return 2
        from .storage import DiskBudget

        budget = DiskBudget(args.disk_budget)

    journal = None
    if args.live or args.out:
        journal = RunJournal(
            journal_path(args.out) if args.out else None,
            on_event=_live_renderer(sys.stdout) if args.live else None,
        )

    gen_r, gen_s = DATASETS[args.dataset]
    if args.seed is None:
        side_r = list(gen_r(args.scale))
        side_s = list(gen_s(args.scale))
    else:
        side_r = list(gen_r(args.scale, seed=args.seed))
        side_s = list(gen_s(args.scale, seed=args.seed + 1))

    try:
        result = parallel_join(
            side_r, side_s, intersects,
            backend=args.backend, workers=args.workers, scheme=args.scheme,
            start_method=args.start_method, journal=journal,
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            disk_budget=budget,
        )
    except CheckpointMismatchError as exc:
        print(f"parallel: {exc}", file=sys.stderr)
        return 2
    except DiskFullError as exc:
        print(f"parallel: disk budget exhausted past every recovery: {exc}",
              file=sys.stderr)
        return 3
    finally:
        if journal is not None:
            journal.close()

    verified = None
    if args.verify and args.backend != "serial":
        reference = parallel_join(side_r, side_s, intersects, backend="serial")
        verified = reference.pairs == result.pairs

    if args.json:
        document = {
            "backend": result.backend,
            "workers": args.workers,
            "dataset": args.dataset,
            "scale": args.scale,
            "seed": args.seed,
            "result_count": len(result),
            "result_digest": result_digest(result.pairs),
            "merge": {
                "duplicates_dropped": result.duplicates_dropped,
                "coordinator_merge_s": round(result.coordinator_merge_s, 6),
            },
            "wall_s": round(result.wall_s, 6),
            "critical_path_s": round(result.critical_path_s, 6),
            "total_work_s": round(result.total_work_s, 6),
            "speedup": round(result.speedup, 4),
            "storage_factor_r": round(result.storage_factor_r, 4),
            "storage_factor_s": round(result.storage_factor_s, 4),
            "nodes": [
                {
                    "node_id": n.node_id,
                    "tuples_r": n.tuples_r,
                    "tuples_s": n.tuples_s,
                    "local_pairs": n.local_pairs,
                    "remote_fetches": n.remote_fetches,
                    "seconds": round(n.sim_seconds, 6),
                }
                for n in result.nodes
            ],
            "tasks": len(result.tasks),
        }
        if args.checkpoint_dir:
            document["checkpoint_run_id"] = result.checkpoint_run_id
            document["resumed_pairs"] = result.resumed_pairs
        if budget is not None:
            document["disk"] = budget.snapshot()
        if args.out:
            document["journal"] = str(journal.path)
        if verified is not None:
            document["verified_against_serial"] = verified
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0 if verified in (None, True) else 1

    print(
        f"{len(side_r)} x {len(side_s)} features ({args.dataset}, "
        f"scale={args.scale}) on backend={result.backend!r}"
    )
    print(f"{len(result)} intersecting pairs "
          f"(merge duplicates dropped: {result.duplicates_dropped})")
    print(
        f"wall {result.wall_s:.3f}s; per-{'worker' if args.backend == 'process' else 'node'} "
        f"work {result.total_work_s:.3f}s over {len(result.nodes)} "
        f"{'workers' if args.backend == 'process' else 'nodes'} "
        f"(critical path {result.critical_path_s:.3f}s, "
        f"work-distribution speedup {result.speedup:.2f}x)"
    )
    if result.tasks:
        costs = sorted(t.cost_estimate for t in result.tasks)
        print(
            f"{len(result.tasks)} partition-pair tasks, LPT cost seeds "
            f"min/median/max = {costs[0]}/{costs[len(costs) // 2]}/{costs[-1]}"
        )
    if args.checkpoint_dir:
        line = f"checkpoint run {result.checkpoint_run_id} under {args.checkpoint_dir}"
        if args.resume:
            line += f"; resumed {len(result.resumed_pairs)} committed pair(s)"
        print(line)
    if budget is not None:
        snap = budget.snapshot()
        print(f"disk budget {snap['max_bytes']} bytes: "
              f"peak {snap['high_watermark_bytes']}, "
              f"{snap['used_bytes']} still on disk, "
              f"{snap['denials']} denial(s)")
    if args.out:
        print(f"run journal: {journal.path}  "
              f"(analyze with `python -m repro report {args.out}`)")
    if verified is not None:
        print(f"verified against serial reference: {'OK' if verified else 'MISMATCH'}")
        return 0 if verified else 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from pathlib import Path

    from . import intersects
    from .checkpoint import CheckpointMismatchError
    from .data import tiger
    from .faults import CoordinatorKilledError, load_plan
    from .parallel import ProcessPBSM, parallel_join

    try:
        plan = load_plan(
            args.plan, seed=args.seed, num_pairs=args.partitions,
            hang_s=args.hang_s,
        )
    except (ValueError, OSError) as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    if plan.max_hang_s > 0 and plan.max_hang_s <= args.timeout:
        print(
            f"chaos: plan hangs for {plan.max_hang_s}s but the task timeout "
            f"is {args.timeout}s; hangs would never trip it "
            "(raise --hang-s or lower --timeout)",
            file=sys.stderr,
        )
        return 2
    wants_checkpoint_faults = bool(
        plan.coordinator_kill_ordinals or plan.torn_manifest_ordinals
    )
    if args.kill_coordinator_after is not None and args.kill_coordinator_after < 1:
        print("chaos: --kill-coordinator-after must be >= 1", file=sys.stderr)
        return 2
    if (args.kill_coordinator_after is not None or wants_checkpoint_faults) \
            and not args.checkpoint_dir:
        print(
            "chaos: coordinator kills / torn manifests need --checkpoint-dir "
            "(there is no durable state to recover without one)",
            file=sys.stderr,
        )
        return 2
    if args.resume and not args.checkpoint_dir:
        print("chaos: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2

    roads = list(tiger.generate_roads(args.scale))
    hydro = list(tiger.generate_hydrography(args.scale))
    reference = parallel_join(roads, hydro, intersects, backend="serial")

    # Flight recorder: every chaos run leaves a run directory that
    # `python -m repro report` can diagnose without re-running anything.
    out_dir = Path(args.out) if args.out else None
    journal = tracer = metrics = None
    recorder = {}
    if out_dir is not None:
        from .obs import (
            MetricsRegistry,
            RunJournal,
            Tracer,
            journal_path,
        )

        journal = RunJournal(journal_path(out_dir))
        tracer = Tracer()
        metrics = MetricsRegistry()
        recorder = {"journal": journal, "tracer": tracer, "metrics": metrics}

    engine = ProcessPBSM(
        args.workers, num_partitions=args.partitions,
        start_method=args.start_method, fault_plan=plan,
        task_timeout_s=args.timeout, max_task_retries=args.retries,
        checkpoint_dir=args.checkpoint_dir,
        kill_coordinator_after=args.kill_coordinator_after,
        kill_hard=args.kill_hard,
        **recorder,
    )
    killed_at = None
    try:
        try:
            if args.resume:
                result = engine.resume(roads, hydro, intersects)
            else:
                result = engine.run(roads, hydro, intersects)
        except CheckpointMismatchError as exc:
            print(f"chaos: {exc}", file=sys.stderr)
            return 2
        except CoordinatorKilledError as exc:
            # Soft kill: the coordinator "died" after a durable checkpoint
            # op.  Resume from the same checkpoint directory in this
            # process, which is the whole point — everything committed
            # before the kill must carry the rest of the join.
            killed_at = exc.ordinal
            if not args.json:
                print(
                    f"coordinator killed after checkpoint ordinal "
                    f"{exc.ordinal}; resuming from {args.checkpoint_dir} ..."
                )
            # Disarm the explicit kill or the recovery run would die at
            # the same ordinal forever.
            engine.kill_coordinator_after = None
            result = engine.resume(roads, hydro, intersects)
    finally:
        if journal is not None:
            journal.close()
    if out_dir is not None:
        from .obs import write_chrome_trace, write_metrics_json, write_trace_jsonl

        write_trace_jsonl(tracer, out_dir / "trace.jsonl")
        write_metrics_json(
            metrics, out_dir / "metrics.json",
            extra={"plan": plan.to_dict(), "scale": args.scale,
                   "workers": args.workers, "partitions": args.partitions},
        )
        write_chrome_trace(tracer, out_dir / "chrome_trace.json",
                           journal_events=journal.records)
    survived = result.pairs == reference.pairs

    summary = dict(result.fault_summary)
    faults_block = {
        "injected": sum(
            v for k, v in summary.items() if k.startswith("injected_")
        ),
        "retries": summary.get("retries", 0),
        "timeouts": summary.get("timeouts", 0),
        "quarantined": summary.get("quarantined", 0),
        "degraded": summary.get("degraded", 0),
        "pool_respawns": summary.get("pool_respawns", 0),
        "survived": survived,
        "plan": plan.to_dict(),
    }
    if killed_at is not None or args.resume or args.checkpoint_dir:
        faults_block["coordinator_killed_at"] = killed_at
        faults_block["resumed_pairs"] = len(result.resumed_pairs)

    plan_label = Path(args.plan).stem if args.plan.endswith(".json") else args.plan
    if args.bench_out:
        from .obs.schema import SCHEMA_VERSION, validate_bench_file

        record = {
            "algorithm": "PBSM-process",
            "scale": args.scale,
            "buffer_mb": 0.0,
            "total_s": round(result.wall_s, 6),
            "cpu_s": 0.0,
            "io_s": 0.0,
            "candidates": sum(t.candidates for t in result.tasks),
            "result_count": len(result),
            "phases": [],
            "counters": {"page_reads": 0, "page_writes": 0, "seeks": 0},
            "notes": {"workers": args.workers, "partitions": args.partitions},
            "faults": faults_block,
        }
        document = {
            "schema_version": SCHEMA_VERSION,
            "benchmark": f"chaos_{plan_label}",
            "records": [record],
        }
        validate_bench_file(document)
        out = Path(args.bench_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    if args.json:
        document = {
            "plan": plan_label,
            "scale": args.scale,
            "workers": args.workers,
            "partitions": args.partitions,
            "result_count": len(result),
            "reference_count": len(reference),
            "wall_s": round(result.wall_s, 6),
            "degraded_pairs": result.degraded_pairs,
            "fault_summary": summary,
            "faults": faults_block,
            "survived": survived,
        }
        if args.checkpoint_dir:
            document["checkpoint_run_id"] = result.checkpoint_run_id
            document["coordinator_killed_at"] = killed_at
            document["resumed_pairs"] = result.resumed_pairs
        if out_dir is not None:
            document["run_dir"] = str(out_dir)
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0 if survived else 1

    print(
        f"chaos plan {plan_label!r} (seed={plan.seed}, "
        f"{plan.spec.total_faults} fault(s)) over {args.workers} workers x "
        f"{args.partitions} partition pairs at scale {args.scale}"
    )
    if summary:
        tallies = ", ".join(f"{k}={v}" for k, v in sorted(summary.items()))
        print(f"fault/recovery events: {tallies}")
    else:
        print("fault/recovery events: none")
    if result.degraded_pairs:
        print(f"degraded pairs (coordinator rebuilt serially): "
              f"{result.degraded_pairs}")
    if args.checkpoint_dir:
        line = f"checkpoint run {result.checkpoint_run_id}"
        if killed_at is not None:
            line += f"; coordinator killed after ordinal {killed_at}"
        if result.resumed_pairs:
            line += (f"; resumed {len(result.resumed_pairs)} committed "
                     f"pair(s): {result.resumed_pairs}")
        print(line)
    if out_dir is not None:
        print(f"flight recorder: {out_dir}/  "
              f"(analyze with `python -m repro report {out_dir}`)")
    print(
        f"{len(result)} pairs vs {len(reference)} serial reference pairs "
        f"in {result.wall_s:.3f}s"
    )
    print(f"survived: {'OK — pair set identical to fault-free serial run' if survived else 'MISMATCH'}")
    return 0 if survived else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs import analyze_run, render_report

    try:
        analysis = analyze_run(args.run_dir)
    except FileNotFoundError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(analysis.to_dict(), indent=2, sort_keys=True))
        return 0
    print(render_report(analysis, timings=args.timings), end="")
    return 0


def _cmd_checkpoints(args: argparse.Namespace) -> int:
    import time as _time
    from pathlib import Path

    from .checkpoint import gc_checkpoint_dir, inspect_checkpoint_dir

    root = Path(args.dir)
    if not root.is_dir():
        print(f"checkpoints: no such directory: {root}", file=sys.stderr)
        return 2

    infos = inspect_checkpoint_dir(root)
    by_id = {info.run_id: info for info in infos}

    if args.action == "gc":
        if args.run_id is not None and args.run_id not in by_id:
            print(f"checkpoints: unknown run id {args.run_id!r} in {root}",
                  file=sys.stderr)
            return 2
        if args.max_bytes is not None and (
            args.run_id is not None or args.all_runs
        ):
            print("checkpoints: --max-bytes is its own policy; drop the "
                  "run id / --all", file=sys.stderr)
            return 2
        report = gc_checkpoint_dir(root, run_id=args.run_id,
                                   all_runs=args.all_runs,
                                   max_bytes=args.max_bytes,
                                   dry_run=args.dry_run)
        if args.json:
            print(json.dumps(
                {"removed": report.removed, "kept": report.kept,
                 "bytes_freed": report.bytes_freed,
                 "dry_run": args.dry_run},
                indent=2, sort_keys=True,
            ))
            return 0
        if args.dry_run:
            print(f"would remove {len(report.removed)} run(s), "
                  f"freeing {report.bytes_freed} bytes")
            for run_id in report.removed:
                info = by_id.get(run_id)
                detail = ""
                if info is not None:
                    age = _time.time() - info.mtime
                    detail = f"  ({info.bytes_total} bytes, {age:.0f}s old)"
                print(f"  would remove {run_id}{detail}")
        else:
            print(f"removed {len(report.removed)} run(s), "
                  f"freed {report.bytes_freed} bytes")
            for run_id in report.removed:
                print(f"  removed {run_id}")
        for run_id in report.kept:
            print(f"  kept    {run_id}  (resumable; gc it by name or --all)")
        return 0

    if args.action == "inspect":
        if args.run_id is None:
            print("checkpoints: inspect needs a run id", file=sys.stderr)
            return 2
        info = by_id.get(args.run_id)
        if info is None:
            print(f"checkpoints: unknown run id {args.run_id!r} in {root}",
                  file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(info.to_dict(), indent=2, sort_keys=True))
            return 0
        total = "?" if info.pairs_total is None else info.pairs_total
        print(f"run:         {info.run_id}")
        print(f"path:        {info.path}")
        print(f"state:       {info.state}")
        print(f"pairs:       {info.pairs_done}/{total} committed")
        print(f"artifacts:   {info.bytes_total} bytes on disk")
        print(f"age:         {_time.time() - info.mtime:.0f}s since last "
              "durable write")
        if info.error:
            print(f"error:       {info.error}")
        return 0

    # list
    if args.json:
        print(json.dumps([info.to_dict() for info in infos],
                         indent=2, sort_keys=True))
        return 0
    if not infos:
        print(f"no checkpointed runs under {root}")
        return 0
    for info in infos:
        total = "?" if info.pairs_total is None else info.pairs_total
        age = _time.time() - info.mtime
        note = f"  [{info.error}]" if info.error else ""
        print(f"{info.run_id}  {info.state:<12} "
              f"{info.pairs_done}/{total} pairs  "
              f"{info.bytes_total} bytes  {age:.0f}s old{note}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading
    from pathlib import Path

    from .serve import JoinServer

    plan = None
    if args.faults:
        from .faults import load_plan

        plan = load_plan(
            args.faults, seed=args.fault_seed, num_pairs=args.fault_pairs,
            hang_s=args.fault_hang_s,
        )
    server = JoinServer(
        args.cache_dir,
        args.out,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        max_cache_bytes=args.max_cache_bytes,
        disk_budget_bytes=args.disk_budget,
        start_method=args.start_method,
        fault_plan=plan,
        kill_coordinator_after=args.kill_coordinator_after,
        breaker_threshold=args.breaker_threshold,
        breaker_window_s=args.breaker_window,
        breaker_cooldown_s=args.breaker_cooldown,
        scrub_interval_s=args.scrub_interval,
        telemetry_interval_s=args.telemetry_interval,
    )
    host, port = server.start()
    if args.port_file:
        port_path = Path(args.port_file)
        port_path.parent.mkdir(parents=True, exist_ok=True)
        port_path.write_text(f"{port}\n")
    print(f"serving on {host}:{port}  "
          f"(cache {server.cache.root}, journals {server.out_dir})",
          flush=True)

    stop = threading.Event()

    def _on_signal(_signum, _frame):
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    # Wake periodically: either a signal landed or a client sent the
    # shutdown op (which stops the server from its own thread).
    while not stop.is_set() and not server.stopped.is_set():
        stop.wait(0.2)
    server.shutdown(drain=True)
    stats = server.stats()
    print(f"drained: {stats['completed']} completed, "
          f"{stats['rejected']} rejected, "
          f"{stats['outcomes']['deadline_exceeded']} deadline-exceeded, "
          f"{stats['outcomes']['storage_overload']} storage-overload, "
          f"{stats['outcomes']['degraded']} degraded, "
          f"{stats['hits']} cache hits / {stats['misses']} misses")
    return 0


_QUERY_TIMEOUT_GRACE_S = 30.0
"""Socket-timeout slack past the query deadline: enough for the server
to notice the deadline, abandon the pool, and write its typed reject."""


def _cmd_query(args: argparse.Namespace) -> int:
    from .serve import ServeClient, read_port_file

    port = args.port
    if port is None and args.port_file:
        port = read_port_file(args.port_file)
    if port is None:
        print("query: need --port or --port-file", file=sys.stderr)
        return 2
    # --timeout is the *query deadline*: the server enforces it through
    # deadline_s and answers a typed reject.  The socket timeout trails it
    # by a grace period so the server's answer (not a client-side timeout)
    # is what the user sees; past the grace, something is truly wedged.
    socket_timeout = (
        args.timeout + _QUERY_TIMEOUT_GRACE_S
        if args.timeout is not None
        else None
    )
    try:
        with ServeClient(args.host, port, timeout=socket_timeout) as client:
            if args.op == "ping":
                response = client.ping()
            elif args.op == "stats":
                response = client.stats()
            elif args.op == "telemetry":
                response = client.telemetry()
            elif args.op == "metrics":
                response = client.metrics()
            elif args.op == "shutdown":
                response = client.shutdown()
            else:
                response = client.join(
                    dataset=args.dataset,
                    scale=args.scale,
                    seed=args.seed,
                    predicate=args.predicate,
                    workers=args.workers,
                    include_pairs=args.pairs,
                    deadline_s=args.timeout,
                )
    except (OSError, TimeoutError) as exc:
        print(f"query: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok") else 1


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .obs.top import render_top
    from .serve import ServeClient, read_port_file

    port = args.port
    if port is None and args.port_file:
        port = read_port_file(args.port_file)
    if port is None:
        print("top: need a port file argument or --port", file=sys.stderr)
        return 2
    # Clear-and-redraw only on a real terminal; piped output appends
    # plain frames and dies quietly when the pipe closes (head, less).
    interactive = sys.stdout.isatty() and not args.once
    try:
        with ServeClient(args.host, port, timeout=10.0) as client:
            while True:
                response = client.telemetry(args.window)
                if not response.get("ok"):
                    print(
                        f"top: {response.get('message', 'telemetry failed')}",
                        file=sys.stderr,
                    )
                    return 1
                frame = render_top(response["telemetry"])
                try:
                    if interactive:
                        sys.stdout.write("\x1b[2J\x1b[H")
                    sys.stdout.write(frame)
                    sys.stdout.flush()
                except (OSError, ValueError):
                    return 0  # downstream pipe closed; nothing left to show
                if args.once:
                    return 0
                time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except (OSError, TimeoutError) as exc:
        print(f"top: {exc}", file=sys.stderr)
        return 1


_RUNS_GATE_EXIT = 4
"""`repro runs compare` exit status when a regression gate fires —
distinct from usage errors (2) so CI can tell "regressed" from "broken"."""


def _cmd_runs(args: argparse.Namespace) -> int:
    from .obs import corpus

    if args.runs_op == "list":
        records = corpus.scan_corpus(args.root)
        if args.json:
            print(json.dumps(
                [r.to_dict() for r in records], indent=2, sort_keys=True
            ))
        else:
            sys.stdout.write(corpus.render_list(records))
        return 0

    if args.runs_op == "show":
        records = corpus.scan_corpus(args.root)
        record = corpus.find_record(records, args.run_id)
        if record is None:
            print(
                f"runs: no run {args.run_id!r} under {args.root} "
                f"({len(records)} runs indexed; try `repro runs list`)",
                file=sys.stderr,
            )
            return 2
        if args.json:
            print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        else:
            sys.stdout.write(corpus.render_show(record))
        return 0

    # compare: two artifacts, or --trend over a corpus
    if args.trend:
        if len(args.paths) != 1 or not args.metric:
            print(
                "runs compare --trend needs exactly one corpus root and "
                "--metric", file=sys.stderr,
            )
            return 2
        metric = args.metric[0]
        records = [
            r for r in corpus.scan_corpus(args.paths[0])
            if not args.kind or r.kind == args.kind
        ]
        points = [
            (r.run_id, r.metrics[metric])
            for r in records
            if metric in r.metrics
        ]
        if len(points) < 2:
            print(
                f"runs: metric {metric!r} present in {len(points)} run(s); "
                "a trend needs at least 2", file=sys.stderr,
            )
            return 2
        run_ids = [p[0] for p in points]
        values = [p[1] for p in points]
        trend = corpus.fit_trend(values)
        if args.json:
            print(json.dumps(
                {"metric": metric, "runs": run_ids, "values": values,
                 "trend": trend},
                indent=2, sort_keys=True,
            ))
        else:
            sys.stdout.write(
                corpus.render_trend(metric, run_ids, values, trend)
            )
        if trend["slope_frac"] > args.threshold:
            print(
                f"REGRESSION: {metric} trends "
                f"{trend['slope_frac'] * 100:+.2f}% per run "
                f"(threshold {args.threshold:.0%})"
            )
            return _RUNS_GATE_EXIT
        return 0

    if len(args.paths) != 2:
        print("runs compare needs exactly two run artifacts", file=sys.stderr)
        return 2
    try:
        record_a = corpus.index_path(args.paths[0])
        record_b = corpus.index_path(args.paths[1])
    except corpus.CorpusError as exc:
        print(f"runs: {exc}", file=sys.stderr)
        return 2
    rows = corpus.compare_runs(record_a, record_b)
    shown = (
        corpus.compare_runs(record_a, record_b, metrics=args.metric)
        if args.metric else rows
    )
    if args.json:
        print(json.dumps(
            {"a": record_a.to_dict(), "b": record_b.to_dict(), "rows": shown},
            indent=2, sort_keys=True,
        ))
    else:
        sys.stdout.write(corpus.render_compare(record_a, record_b, shown))
    failures = corpus.check_gates(rows, args.gate or [], args.threshold)
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if failures and record_a.kind == corpus.KIND_BENCH:
        print(
            "If the drift is intentional, re-baseline: re-run the benchmark "
            "at the baseline's REPRO_BENCH_SCALE and commit the fresh JSON "
            "(see 'Benchmark-regression gate' in docs/ARCHITECTURE.md)."
        )
    return _RUNS_GATE_EXIT if failures else 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .core.planner import choose_algorithm
    from .storage import Database
    from .data import make_tiger_datasets
    from .index import bulk_load_rstar

    db = Database(buffer_mb=args.buffer_mb)
    rels = make_tiger_datasets(db, scale=args.scale, include=("road", "hydro"))
    idx_r = bulk_load_rstar(db.pool, rels["road"]) if args.index_r else None
    idx_s = bulk_load_rstar(db.pool, rels["hydro"]) if args.index_s else None
    plan = choose_algorithm(
        rels["road"], rels["hydro"], db.pool.capacity, idx_r, idx_s
    )
    print(f"scenario: index on road={args.index_r}, index on hydro={args.index_s}, "
          f"buffer={args.buffer_mb} MB")
    print(f"chosen algorithm: {plan.algorithm.upper()}")
    print(f"reason: {plan.reason}")
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    from . import __version__

    print(f"repro {__version__} — Partition Based Spatial-Merge Join "
          "(Patel & DeWitt, SIGMOD 1996)")
    print(__doc__)
    print("subsystems: repro.geometry, repro.storage, repro.index, "
          "repro.core, repro.joins, repro.exec, repro.data, repro.bench, "
          "repro.parallel, repro.checkpoint, repro.serve")
    print("reproduce the paper: pytest benchmarks/ --benchmark-only")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PBSM spatial join reproduction",
    )
    sub = parser.add_subparsers(dest="command")

    demo = sub.add_parser("demo", help="run a small PBSM join")
    demo.add_argument("--scale", type=float, default=0.01)
    demo.add_argument("--buffer-mb", type=float, default=8.0)
    demo.add_argument("--seed", type=int, default=None,
                      help="base seed for the data generators")
    demo.add_argument("--json", action="store_true",
                      help="emit the cost report as JSON instead of a table")
    demo.set_defaults(func=_cmd_demo)

    trace = sub.add_parser(
        "trace", help="run a traced PBSM join and dump trace/metrics files"
    )
    trace.add_argument("--scale", type=float, default=0.01)
    trace.add_argument("--buffer-mb", type=float, default=8.0)
    trace.add_argument("--seed", type=int, default=None,
                       help="base seed for the data generators")
    trace.add_argument("--out", default="trace_out",
                       help="directory for trace.jsonl / metrics.json / "
                            "chrome_trace.json")
    trace.set_defaults(func=_cmd_trace)

    parallel = sub.add_parser(
        "parallel", help="run the join on a parallel backend"
    )
    parallel.add_argument("--backend", default="process",
                          choices=["process", "simulated", "serial"])
    parallel.add_argument("--workers", type=int, default=4,
                          help="worker processes (process) or virtual nodes "
                               "(simulated)")
    parallel.add_argument("--scale", type=float, default=0.01)
    parallel.add_argument("--seed", type=int, default=None,
                          help="base seed for the data generators")
    parallel.add_argument("--dataset", default="road_hydro",
                          choices=["road_hydro", "road_rail", "landuse_island"],
                          help="input pair: TIGER roads x hydrography "
                               "(default), roads x rail, or the SEQUOIA-style "
                               "polygon workload landuse x islands")
    parallel.add_argument("--scheme", default="replicate_objects",
                          choices=["replicate_objects", "replicate_mbrs"],
                          help="boundary-object declustering (simulated only)")
    parallel.add_argument("--start-method", default=None,
                          choices=["fork", "spawn", "forkserver"],
                          help="multiprocessing start method (process only)")
    parallel.add_argument("--verify", action="store_true",
                          help="cross-check the pair set against the serial "
                               "reference; non-zero exit on mismatch")
    parallel.add_argument("--checkpoint-dir", default=None,
                          help="make coordinator state durable under this "
                               "directory (process backend only)")
    parallel.add_argument("--disk-budget", type=int, default=None,
                          metavar="N",
                          help="hard ceiling on spill+checkpoint bytes "
                               "(process backend only); past it the engine "
                               "reclaims, then degrades pairs to the serial "
                               "no-spill path — the pair set stays "
                               "byte-identical")
    parallel.add_argument("--resume", action="store_true",
                          help="continue a checkpointed run instead of "
                               "starting over")
    parallel.add_argument("--out", default=None, metavar="DIR",
                          help="record the run journal to DIR/journal.jsonl "
                               "for `repro report`")
    parallel.add_argument("--live", action="store_true",
                          help="stream in-flight progress (dispatches, "
                               "worker heartbeats, completions) as the "
                               "journal sees it")
    parallel.add_argument("--json", action="store_true",
                          help="emit the run summary as JSON")
    parallel.set_defaults(func=_cmd_parallel)

    chaos = sub.add_parser(
        "chaos",
        help="run the join under a fault plan and verify it survives",
    )
    chaos.add_argument("--plan", default="combined",
                       help="named fault plan (none, disk_error, torn_frame, "
                            "worker_crash, hang, slow, combined) or a path to "
                            "a plan JSON file")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-plan compilation seed (named plans only)")
    chaos.add_argument("--scale", type=float, default=0.002)
    chaos.add_argument("--workers", type=int, default=2)
    chaos.add_argument("--partitions", type=int, default=8,
                       help="partition-pair count = the fault domain size")
    chaos.add_argument("--timeout", type=float, default=2.0,
                       help="per-task timeout in seconds")
    chaos.add_argument("--retries", type=int, default=3,
                       help="retry budget per partition pair")
    chaos.add_argument("--hang-s", type=float, default=6.0,
                       help="injected hang duration; must exceed --timeout")
    chaos.add_argument("--start-method", default=None,
                       choices=["fork", "spawn", "forkserver"])
    chaos.add_argument("--checkpoint-dir", default=None,
                       help="durable coordinator state; required for "
                            "coordinator-kill / torn-manifest faults")
    chaos.add_argument("--resume", action="store_true",
                       help="continue a checkpointed chaos run (checkpoint "
                            "faults are not re-armed on resume)")
    chaos.add_argument("--kill-coordinator-after", type=int, default=None,
                       metavar="N",
                       help="kill the coordinator after checkpoint ordinal N "
                            "(soft kill auto-resumes in this invocation)")
    chaos.add_argument("--kill-hard", action="store_true",
                       help="kill with real SIGKILL instead of the soft "
                            "in-process kill; the invocation dies and a "
                            "second one must --resume")
    chaos.add_argument("--bench-out", default=None,
                       help="also write a schema-valid BENCH_*.json with the "
                            "faults block to this path")
    chaos.add_argument("--out", default="run_out", metavar="DIR",
                       help="flight-recorder run directory (journal.jsonl, "
                            "trace.jsonl, chrome_trace.json, metrics.json); "
                            "'' disables recording")
    chaos.add_argument("--json", action="store_true",
                       help="emit the chaos report as JSON")
    chaos.set_defaults(func=_cmd_chaos)

    report = sub.add_parser(
        "report",
        help="analyze a recorded run directory and render the run report",
    )
    report.add_argument("run_dir", nargs="?", default="run_out",
                        help="directory holding journal.jsonl (and optionally "
                             "trace.jsonl); chaos writes one by default")
    report.add_argument("--timings", action="store_true",
                        help="append the measured (non-deterministic) "
                             "sections: wall-clock stragglers, backoff, "
                             "phase cpu/io, event tallies")
    report.add_argument("--json", action="store_true",
                        help="emit the full analysis as JSON")
    report.set_defaults(func=_cmd_report)

    checkpoints = sub.add_parser(
        "checkpoints",
        help="list/inspect/gc durable join manifests in a checkpoint dir",
    )
    checkpoints.add_argument("action", choices=["list", "inspect", "gc"],
                             help="list all runs, inspect one run, or "
                                  "garbage-collect finished runs")
    checkpoints.add_argument("run_id", nargs="?", default=None,
                             help="run directory name (run-<fingerprint>); "
                                  "required for inspect, optional for gc")
    checkpoints.add_argument("--dir", required=True,
                             help="the checkpoint directory to operate on")
    checkpoints.add_argument("--all", action="store_true", dest="all_runs",
                             help="gc every run, including resumable ones")
    checkpoints.add_argument("--max-bytes", type=int, default=None,
                             metavar="N",
                             help="gc: prune least-recently-used runs until "
                                  "the directory fits N bytes (the serve "
                                  "cache's eviction policy)")
    checkpoints.add_argument("--dry-run", action="store_true",
                             help="gc: report what would be removed (same "
                                  "selection policy, nothing deleted)")
    checkpoints.add_argument("--json", action="store_true",
                             help="emit machine-readable output")
    checkpoints.set_defaults(func=_cmd_checkpoints)

    serve = sub.add_parser(
        "serve",
        help="run the resident join service (local TCP, JSON lines)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port to bind (0 picks a free one)")
    serve.add_argument("--port-file", default=None,
                       help="write the bound port here once listening")
    serve.add_argument("--cache-dir", required=True,
                       help="artifact cache root (a checkpoint directory; "
                            "one-shot --checkpoint-dir runs interoperate)")
    serve.add_argument("--out", default="serve_out",
                       help="journal root: serve.jsonl plus one query-NNNN/ "
                            "run dir per served query (for `repro report`)")
    serve.add_argument("--workers", type=int, default=2,
                       help="size of the single shared worker pool")
    serve.add_argument("--max-inflight", type=int, default=2,
                       help="queries executing at once")
    serve.add_argument("--max-queue", type=int, default=8,
                       help="queries allowed to wait; beyond this, "
                            "reject with error=queue_full")
    serve.add_argument("--max-cache-bytes", type=int, default=None,
                       metavar="N",
                       help="LRU-evict unpinned cache entries to fit N bytes")
    serve.add_argument("--disk-budget", type=int, default=None,
                       metavar="N",
                       help="hard ceiling on bytes this server writes "
                            "(spills + checkpoints = cache fills); "
                            "over-footprint queries get a typed "
                            "error=storage_overload reject with "
                            "estimated_bytes/available_bytes")
    serve.add_argument("--start-method", default=None,
                       choices=["fork", "forkserver", "spawn"])
    serve.add_argument("--faults", default=None, metavar="PLAN",
                       help="named fault plan or plan JSON applied to every "
                            "executed (non-cached) query")
    serve.add_argument("--fault-seed", type=int, default=0)
    serve.add_argument("--fault-pairs", type=int, default=8,
                       help="pair count the named fault plan compiles against")
    serve.add_argument("--kill-coordinator-after", type=int, default=None,
                       metavar="N",
                       help="drill: soft-kill the next executed query after "
                            "checkpoint ordinal N, then recover it by "
                            "resuming the cache entry")
    serve.set_defaults(func=_cmd_serve)

    serve.add_argument("--fault-hang-s", type=float, default=None,
                       metavar="S",
                       help="override the fault plan's hang duration "
                            "(the deadline-stall drill keeps it just past "
                            "the query deadline instead of 30s)")
    serve.add_argument("--breaker-threshold", type=int, default=5,
                       help="pool deaths within the window that open the "
                            "circuit breaker")
    serve.add_argument("--breaker-window", type=float, default=30.0,
                       metavar="S", help="breaker failure-counting window")
    serve.add_argument("--breaker-cooldown", type=float, default=5.0,
                       metavar="S",
                       help="open time before a half-open probe query")
    serve.add_argument("--scrub-interval", type=float, default=None,
                       metavar="S",
                       help="run the cache scrubber every S seconds "
                            "(default: scrubber off)")
    serve.add_argument("--telemetry-interval", type=float, default=None,
                       metavar="S",
                       help="sample live telemetry every S seconds (the "
                            "`telemetry` wire op and `repro top` read it; "
                            "default: sampler off)")

    query = sub.add_parser(
        "query", help="one-shot client for a running join server"
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=None)
    query.add_argument("--port-file", default=None,
                       help="read the port a `repro serve --port-file` wrote")
    query.add_argument("--op", default="join",
                       choices=["join", "ping", "stats", "telemetry",
                                "metrics", "shutdown"])
    query.add_argument("--dataset", default="road_hydro")
    query.add_argument("--scale", type=float, default=0.01)
    query.add_argument("--seed", type=int, default=0,
                       help="generator seed (0 = generator defaults, like "
                            "`parallel` without --seed)")
    query.add_argument("--predicate", default="intersects")
    query.add_argument("--workers", type=int, default=2)
    query.add_argument("--pairs", action="store_true",
                       help="include the full result pair list")
    query.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="query deadline in seconds: sent as deadline_s "
                            "(the server cancels the join past it and "
                            "answers error=deadline_exceeded); also bounds "
                            "the socket wait at S plus grace "
                            "(default: block forever)")
    query.set_defaults(func=_cmd_query)

    top = sub.add_parser(
        "top",
        help="live terminal dashboard for a running join server",
    )
    top.add_argument("port_file", nargs="?", default=None,
                     help="port file a `repro serve --port-file` wrote")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=None,
                     help="connect directly instead of reading a port file")
    top.add_argument("--interval", type=float, default=1.0, metavar="S",
                     help="poll the telemetry op every S seconds")
    top.add_argument("--window", type=float, default=None, metavar="S",
                     help="restrict series stats to the last S seconds")
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit (for scripts and CI)")
    top.set_defaults(func=_cmd_top)

    runs = sub.add_parser(
        "runs",
        help="cross-run warehouse: index, diff, and trend run artifacts",
    )
    runs_sub = runs.add_subparsers(dest="runs_op", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="index every run dir / serve root / BENCH file under a tree"
    )
    runs_list.add_argument("root", help="directory tree to scan")
    runs_list.add_argument("--json", action="store_true")
    runs_list.set_defaults(func=_cmd_runs)
    runs_show = runs_sub.add_parser(
        "show", help="one indexed run's identity and metrics"
    )
    runs_show.add_argument("root", help="directory tree to scan")
    runs_show.add_argument("run_id", help="run id from `repro runs list`")
    runs_show.add_argument("--json", action="store_true")
    runs_show.set_defaults(func=_cmd_runs)
    runs_compare = runs_sub.add_parser(
        "compare",
        help="diff two runs metric-by-metric, or --trend a corpus; "
             f"exits {_RUNS_GATE_EXIT} past a regression threshold",
    )
    runs_compare.add_argument(
        "paths", nargs="*",
        help="two run artifacts (run dir, serve root, or BENCH_*.json) — "
             "or one corpus root with --trend",
    )
    runs_compare.add_argument("--metric", action="append", default=None,
                              help="print only this metric (repeatable; "
                                   "gates still read every metric); with "
                                   "--trend, the metric to fit")
    runs_compare.add_argument("--gate", action="append", default=None,
                              help="fail (exit 4) if a metric matching this "
                                   "shell-style pattern regressed under its "
                                   "policy (repeatable; '*' gates all)")
    runs_compare.add_argument("--threshold", type=float, default=0.10,
                              help="regression threshold as a fraction for "
                                   "metrics without an exact or io_s policy "
                                   "(default 0.10 = 10%%)")
    runs_compare.add_argument("--trend", action="store_true",
                              help="fit a least-squares trend per metric "
                                   "over every matching run under the root")
    runs_compare.add_argument("--kind", default=None,
                              choices=["engine", "serve", "bench"],
                              help="with --trend, only index runs of this kind")
    runs_compare.add_argument("--json", action="store_true")
    runs_compare.set_defaults(func=_cmd_runs)

    plan = sub.add_parser("plan", help="apply the paper's algorithm-choice rules")
    plan.add_argument("--scale", type=float, default=0.005)
    plan.add_argument("--buffer-mb", type=float, default=0.5)
    plan.add_argument("--index-r", action="store_true", help="road index pre-exists")
    plan.add_argument("--index-s", action="store_true", help="hydro index pre-exists")
    plan.set_defaults(func=_cmd_plan)

    info = sub.add_parser("info", help="package inventory")
    info.set_defaults(func=_cmd_info)

    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
