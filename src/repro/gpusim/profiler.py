"""Kernel-level profiling for the simulated device.

The profiler feeds the paper's breakdown figures: Figure 10 (per-phase
runtime shares), Figure 11 (average time per proposal) and Figure 12
(blockmodel-update speedups).  Each kernel execution produces one
:class:`KernelRecord`; aggregation is by kernel name and by phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class KernelRecord:
    """Timing record of one simulated kernel launch."""

    name: str
    phase: str
    wall_time_s: float
    sim_time_s: float
    work_items: int
    bytes_moved: int


@dataclass
class PhaseSummary:
    """Aggregated timings of one phase (or one kernel name)."""

    phase: str
    wall_time_s: float = 0.0
    sim_time_s: float = 0.0
    num_launches: int = 0
    work_items: int = 0
    bytes_moved: int = 0


class Profiler:
    """Accumulates kernel records."""

    def __init__(self) -> None:
        self.kernel_records: List[KernelRecord] = []

    def record(self, record: KernelRecord) -> None:
        self.kernel_records.append(record)

    def reset(self) -> None:
        self.kernel_records.clear()

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def _aggregate(self, key: str) -> Dict[str, PhaseSummary]:
        summaries: Dict[str, PhaseSummary] = {}
        for rec in self.kernel_records:
            label = getattr(rec, key)
            summary = summaries.setdefault(label, PhaseSummary(phase=label))
            summary.wall_time_s += rec.wall_time_s
            summary.sim_time_s += rec.sim_time_s
            summary.num_launches += 1
            summary.work_items += rec.work_items
            summary.bytes_moved += rec.bytes_moved
        return summaries

    def by_phase(self) -> Dict[str, PhaseSummary]:
        """Aggregate kernel records per phase label."""
        return self._aggregate("phase")

    def by_kernel(self) -> Dict[str, PhaseSummary]:
        """Aggregate kernel records per kernel name."""
        return self._aggregate("name")

    def launch_count(self) -> int:
        return len(self.kernel_records)
