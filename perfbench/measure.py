"""Pure measurement helpers: percentiles, answer digests, span trees, host
speed, memory.

Nothing here imports the engine, so the rules the benchmark reports by
(percentile choice, self-time arithmetic) are unit-tested on their own.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import time
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
    TypeVar,
)

T = TypeVar("T")

MIN_BEYOND = 10
"""A percentile is reported only when at least this many samples lie above
it; fewer make the figure one or two outliers."""

CANDIDATE_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct``."""
    return count - _rank(count, pct)


def _rank(count: int, pct: float) -> int:
    # Rounding first keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(round(pct / 100.0 * count, 9)))


def highest_supported_percentile(count: int) -> Optional[float]:
    """The highest of ``CANDIDATE_PERCENTILES`` with ``MIN_BEYOND`` samples
    above it, or ``None`` when even the lowest candidate lacks them."""
    supported = [
        p for p in CANDIDATE_PERCENTILES if samples_beyond(count, p) >= MIN_BEYOND
    ]
    return max(supported) if supported else None


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def pair_digest(pairs: Iterable[Sequence]) -> str:
    """SHA-256 of the sorted pair list: equal iff the answers are equal,
    whatever order the pairs came in."""
    blob = json.dumps(sorted(pairs), separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------- #
# span trees
# ---------------------------------------------------------------------- #


class Span(NamedTuple):
    """One timed region: ``group`` is shared by every span of one join
    repetition or one served query."""

    name: str
    start: float
    end: float
    group: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def parents(spans: Sequence[Span]) -> List[Optional[int]]:
    """Parent index of every span, or ``None`` for a root.

    The spans of one group nest properly (each region opens and closes
    inside its caller's), so the parent is the innermost span of the same
    group whose interval contains the child's.  Ties on start go to the
    longer span, which is the caller.
    """
    result: List[Optional[int]] = [None] * len(spans)
    by_group: Dict[str, List[int]] = {}
    for index, span in enumerate(spans):
        by_group.setdefault(span.group, []).append(index)
    for members in by_group.values():
        members.sort(key=lambda i: (spans[i].start, -spans[i].end))
        stack: List[int] = []
        for index in members:
            span = spans[index]
            while stack and spans[stack[-1]].end <= span.start:
                stack.pop()
            if stack:
                if span.end > spans[stack[-1]].end:
                    raise ValueError(
                        f"span {span.name!r} overlaps {spans[stack[-1]].name!r} "
                        "without nesting inside it"
                    )
                result[index] = stack[-1]
            stack.append(index)
    return result


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.duration for span in spans]
    for index, parent in enumerate(parents(spans)):
        if parent is not None:
            own[parent] -= spans[index].duration
    return own


def layer_self_times(
    spans: Sequence[Span], layer_of: Mapping[str, str], remainder: str
) -> Dict[str, float]:
    """Total self time per layer across all spans.

    A root span's self time is the part of the operation no layer span
    covers; it is booked under ``remainder``.  The values therefore sum to
    the total duration of the root spans.
    """
    totals: Dict[str, float] = {}
    for span, own, parent in zip(spans, self_times(spans), parents(spans)):
        layer = remainder if parent is None else layer_of_span(span.name, layer_of)
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def layer_of_span(name: str, layer_of: Mapping[str, str]) -> str:
    """Map a span name to its layer: exact name first, then the longest
    matching name prefix (engine phase spans carry relation names)."""
    if name in layer_of:
        return layer_of[name]
    matches = [key for key in layer_of if name.startswith(key)]
    if not matches:
        raise KeyError(f"span {name!r} belongs to no layer")
    return layer_of[max(matches, key=len)]


# ---------------------------------------------------------------------- #
# host speed
# ---------------------------------------------------------------------- #


def host_reference_s() -> float:
    """Wall time of a fixed pure-Python loop that touches none of the
    program: how fast the host runs Python at this moment.  On a shared
    machine it can drift by tens of percent within a minute, and the
    program's wall times drift with it."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start


def against_host(operation: Callable[[], T]) -> Tuple[T, float]:
    """Run ``operation`` between two host-reference loops.  Returns its
    result and the mean of the two references, the host speed to divide
    the operation's own wall time by."""
    before = host_reference_s()
    result = operation()
    return result, (before + host_reference_s()) / 2


# ---------------------------------------------------------------------- #
# memory
# ---------------------------------------------------------------------- #


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree_peak_rss_mb(root_pid: int) -> float:
    """Sum of the peak resident sets of ``root_pid`` and its descendants,
    read from ``/proc``.  Each process's peak is its own high-water mark,
    so the sum bounds the tree's simultaneous peak from above."""
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    total_kb = 0
    todo = [root_pid]
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0

