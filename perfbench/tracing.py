"""In-memory span recording around calls into the program's public API.

The benchmark never edits the program: while tracing is active it swaps
public functions and methods for timing wrappers
(``unittest.mock.patch.object``), and each wrapper appends one
:class:`Span` per call.  Spans stay in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple
from unittest import mock

import measure
from measure import Span


class Recorder:
    """Collects spans; ``group`` names the join repetition or query that
    spans recorded from now on belong to."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.group = ""
        self._replacements: List[Tuple[object, str, Callable]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(name, start, time.perf_counter(), self.group))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        spans = self.spans
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append(Span(name, start, clock(), self.group))

        return timed

    def replace(self, owner: object, attr: str, name: str, fn: Optional[Callable] = None) -> None:
        """While :meth:`active`, ``owner.attr`` is ``fn`` (default: the
        attribute itself) timed as spans called ``name``."""
        self._replacements.append(
            (owner, attr, self.wrap(name, fn or getattr(owner, attr)))
        )

    @contextmanager
    def active(self) -> Iterator[None]:
        with ExitStack() as stack:
            for owner, attr, timed in self._replacements:
                stack.enter_context(mock.patch.object(owner, attr, timed))
            yield

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.spans if span.name == name)

    def per_group(self, name: str) -> Dict[str, float]:
        """Summed duration of ``name`` spans, per group."""
        out: Dict[str, float] = {}
        for span in self.spans:
            if span.name == name:
                out[span.group] = out.get(span.group, 0.0) + span.duration
        return out


def write_spans(path: Path, spans: List[Span], parent_of: List) -> None:
    """Gzipped JSON lines, one span each, times relative to the first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    epoch = min((span.start for span in spans), default=0.0)
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for index, (span, parent) in enumerate(zip(spans, parent_of)):
            out.write(
                json.dumps(
                    {
                        "id": index,
                        "parent": parent,
                        "group": span.group,
                        "name": span.name,
                        "start": round(span.start - epoch, 9),
                        "end": round(span.end - epoch, 9),
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )


@dataclass
class TraceSummary:
    metrics: Dict[str, float]
    layers: Dict[str, float]
    largest: str
    summary: List[str]


def summarise_trace(
    spans: List[Span],
    layer_of: Dict[str, str],
    traced_s: List[float],
    plain_s: List[float],
) -> TraceSummary:
    """Mean self time per layer over the traced operations (root spans),
    the tracing overhead, and the largest layer.  The self times plus the
    remainder sum to the mean traced operation time."""
    roots = sum(1 for parent in measure.parents(spans) if parent is None)
    totals = measure.layer_self_times(spans, layer_of, remainder="remainder")
    layers = {layer: seconds / roots for layer, seconds in totals.items()}
    traced_mean = sum(
        s.duration for s, p in zip(spans, measure.parents(spans)) if p is None
    ) / roots
    largest = max((k for k in layers if k != "remainder"), key=layers.get)
    metrics = {f"self.{layer}_s": seconds for layer, seconds in layers.items()}
    metrics["obs.traced_s"] = traced_mean
    metrics["obs.trace_overhead_frac"] = (
        measure.median(traced_s) / measure.median(plain_s) - 1.0
    )
    summary = [f"traced op    {traced_mean:.4f} s mean over {roots}"]
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        summary.append(
            f"  self {layer:<20} {seconds:.4f} s  {100 * seconds / traced_mean:5.1f}%"
        )
    summary.append(f"largest layer {largest}")
    summary.append(f"trace overhead {metrics['obs.trace_overhead_frac']:+.3f}")
    return TraceSummary(metrics, layers, largest, summary)
