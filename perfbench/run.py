"""The repository benchmark: PBSM partition / merge / refine and the join service.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tiger_spill --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``tiger_spill`` — serial PBSM, TIGER road x hydrography, partitions spill;
* ``sequoia_fit`` — serial PBSM, Sequoia land use x islands, fits in memory;
* ``serve_mix``   — a ``repro serve`` subprocess driven by one closed-loop
  client over a seeded mix of cache misses and hits.

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
is a separate pass that reports per-layer counts and self times.  Both
check every join answer against a reference computed by a different code
path.  Human-readable lines come first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
full record (and, when traced, every span) goes to ``perfbench/out/``.
Exit status is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("tiger_spill", "sequoia_fit", "serve_mix")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed cannot be negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import catalog

    if args.workload == "serve_mix":
        import served as workload
    else:
        import serial as workload
    run = workload.run_traced if args.trace else workload.run
    outcome = run(args.workload, args.seed, args.seconds)
    wanted = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    metrics = catalog.render(outcome.metrics, wanted, missing_as_zero=bool(args.trace))
    unmeasured = sorted(set(wanted) - set(outcome.metrics))
    if unmeasured:
        outcome.record["not_measured"] = unmeasured
        outcome.summary.append(
            f"not measured on {args.workload}, reported as 0: {', '.join(unmeasured)}"
        )
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    write_record(args, outcome, result)
    for line in outcome.summary:
        print(line)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if outcome.failed == 0 else 1


def write_record(args: argparse.Namespace, outcome, result: dict) -> None:
    import measure
    import tracing

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(outcome.record, result=result, summary=outcome.summary)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if outcome.spans:
        tracing.write_spans(
            OUT / f"{stem}.spans.jsonl.gz", outcome.spans, measure.parents(outcome.spans)
        )


if __name__ == "__main__":
    sys.exit(main())
