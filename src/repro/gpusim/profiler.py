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

    def total_wall_time_s(self) -> float:
        return sum(r.wall_time_s for r in self.kernel_records)

    def total_sim_time_s(self) -> float:
        return sum(r.sim_time_s for r in self.kernel_records)

    def phase_shares(self, clock: str = "wall") -> Dict[str, float]:
        """Fraction of total time per phase, on the chosen clock."""
        if clock not in ("wall", "sim"):
            raise ValueError(f"clock must be 'wall' or 'sim', got {clock!r}")
        attr = "wall_time_s" if clock == "wall" else "sim_time_s"
        summaries = self.by_phase()
        total = sum(getattr(s, attr) for s in summaries.values())
        if total <= 0:
            return {phase: 0.0 for phase in summaries}
        return {
            phase: getattr(summary, attr) / total
            for phase, summary in summaries.items()
        }

    def launch_count(self) -> int:
        return len(self.kernel_records)

    def snapshot(self) -> "ProfilerSnapshot":
        """Freeze current totals (cheap; used to diff around a phase)."""
        return ProfilerSnapshot(num_kernels=len(self.kernel_records))

    def records_since(self, snapshot: "ProfilerSnapshot") -> List[KernelRecord]:
        return self.kernel_records[snapshot.num_kernels :]


@dataclass(frozen=True)
class ProfilerSnapshot:
    """Marker into a profiler's kernel records."""

    num_kernels: int
