"""Metric classes and the picklable telemetry snapshot.

The registry splits every metric into one of two classes, and the split
is the core design decision of the subsystem:

- :data:`DETERMINISTIC` — integer counters (``Collector.count``) whose
  totals are exact sums of per-item contributions: events simulated,
  rows committed, segments sealed, bytes written, jobs pruned,
  fixed-point passes.  Integer addition is associative and commutative,
  so these totals are **bit-identical for any worker count or chunk
  size** — the repo's core determinism invariant extended to
  telemetry itself, and pinned by ``benchmarks/test_bench_obs.py``.
- :data:`WALLCLOCK` — observations (``Collector.observe``) of measured
  quantities: stage durations, rows/s, convergence deltas.  These are
  summarised as (count, total, min, max) and explicitly excluded from
  every bit-identity check.

A metric's class is chosen by which API records it, not by
configuration: anything order- or timing-dependent must go through
``observe``.  (Chunk counts, for example, vary with ``chunk_size`` and
are therefore wall-clock, even though they are integers.)

:class:`TelemetrySnapshot` is the frozen, picklable view of a
collector: what worker processes return through
``iter_mapped_chunks``, what the sink persists, and what tests assert
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.obs.tracing import SpanRecord

__all__ = ["DETERMINISTIC", "TelemetrySnapshot", "WALLCLOCK",
           "merge_counters", "merge_values"]

#: Metric class for exact integer counters (bit-identity contract applies).
DETERMINISTIC = "deterministic"
#: Metric class for measured observations (no bit-identity contract).
WALLCLOCK = "wallclock"


def merge_counters(into: Dict[str, int], counters: Dict[str, int]) -> None:
    """Add ``counters`` into ``into`` (exact integer addition)."""
    for name, value in counters.items():
        into[name] = into.get(name, 0) + value


def merge_values(into: Dict[str, list], values: Dict[str, list]) -> None:
    """Fold ``values``' (count, total, min, max) stats into ``into``."""
    for name, stat in values.items():
        mine = into.get(name)
        if mine is None:
            into[name] = list(stat)
        else:
            mine[0] += stat[0]
            mine[1] += stat[1]
            mine[2] = min(mine[2], stat[2])
            mine[3] = max(mine[3], stat[3])


@dataclass
class TelemetrySnapshot:
    """A frozen copy of a collector's state, safe to pickle and merge.

    ``values`` maps each wall-clock metric to its ``[count, total, min,
    max]`` summary.  Snapshots are additive: :meth:`merge` (or a
    collector's ``absorb``) combines two runs' telemetry exactly the way
    one longer run would have recorded it — counters add, value stats
    fold, spans concatenate.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    values: Dict[str, list] = field(default_factory=dict)
    spans: List[SpanRecord] = field(default_factory=list)

    def counter(self, name: str, default: int = 0) -> int:
        """One deterministic counter's total."""
        return self.counters.get(name, default)

    def spans_named(self, name: str) -> List[SpanRecord]:
        """All span records with the given name."""
        return [record for record in self.spans if record.name == name]

    def merge(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """Fold ``other`` into this snapshot in place; returns self.

        Span ids are **not** remapped here — use a collector's
        ``absorb`` when stitching worker spans into a live tree; plain
        ``merge`` is for combining already-stitched snapshots (e.g. the
        sink accumulating several runs).
        """
        merge_counters(self.counters, other.counters)
        merge_values(self.values, other.values)
        self.spans.extend(other.spans)
        return self
