"""What one workload pass hands back to the command line."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    summary: List[str]
    """Human-readable lines printed before the result line."""
    record: dict
    """Everything measured, written to ``perfbench/out/`` as JSON."""
    spans: Optional[list] = None
    """Traced passes only: every span, written out gzipped."""
