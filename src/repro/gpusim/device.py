"""Simulated GPU device model.

The paper runs GSAP on an NVIDIA RTX A4000 (CUDA 12.2).  This module
provides the substitution described in DESIGN.md §2: a :class:`Device`
object that executes *data-parallel kernel bodies* (vectorized NumPy
functions) while accounting two clocks:

``wall`` — the real time spent executing the vectorized body on the host
(this is what the benchmark figures compare, because the vectorized
formulation *is* the data-parallel algorithm), and

``sim`` — an analytic estimate of what the same kernel would cost on the
modelled GPU: per-launch overhead plus the larger of the compute and the
memory-bandwidth roofline terms.  The sim clock is what reproduces the
small-graph behaviour of paper Table 3 (launch overhead dominates at 1K
vertices) and is reported as a secondary column in EXPERIMENTS.md.
Device residence is by convention: kernel bodies read and write plain
NumPy arrays, and no host<->device copy is modelled or charged.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from ..errors import KernelLaunchError
from .profiler import KernelRecord, Profiler

T = TypeVar("T")


def buffer_digest(array) -> int:
    """CRC32 content digest of an array's bytes (cheap, not cryptographic)."""
    return zlib.crc32(array.tobytes())


@dataclass(frozen=True)
class DeviceSpec:
    """The roofline parameters of a modelled GPU.

    The throughput figures are deliberately *effective* (irregular integer
    workloads with scattered access), not peak datasheet numbers.
    """

    name: str
    memory_bandwidth_gbps: float  # GB/s
    kernel_launch_overhead_s: float
    #: effective simple-operations per second for irregular kernels
    effective_ops_per_s: float


#: RTX A4000: 448 GB/s DRAM bandwidth.
A4000 = DeviceSpec(
    name="RTX A4000 (simulated)",
    memory_bandwidth_gbps=448.0,
    kernel_launch_overhead_s=5e-6,
    effective_ops_per_s=2.0e11,
)


@dataclass
class KernelCost:
    """Work description used by the analytic cost model.

    Parameters
    ----------
    work_items:
        Logical thread count of the launch (e.g. one per edge).
    ops_per_item:
        Simple operations each item performs (default 1).
    bytes_moved:
        Total DRAM traffic of the kernel; defaults to
        ``8 * work_items`` (one 64-bit word touched per item).
    """

    work_items: int
    ops_per_item: float = 1.0
    bytes_moved: Optional[int] = None

    def resolved_bytes(self) -> int:
        return int(self.bytes_moved if self.bytes_moved is not None else 8 * self.work_items)


class Device:
    """A simulated GPU: clocks and kernel execution.

    A fault injector (:class:`repro.resilience.FaultInjector`) may be
    assigned to :attr:`fault_injector`; when present it is consulted
    before every kernel launch and may raise injected device errors.

    A span tracer (:class:`repro.obs.Tracer`) may be assigned to
    :attr:`tracer` (usually via
    :meth:`repro.obs.Observability.attach_device`); when present and
    enabled, every kernel launch is mirrored as a leaf span nested under
    whatever span the caller has open.
    """

    def __init__(self, spec: DeviceSpec = A4000) -> None:
        self.spec = spec
        self.profiler = Profiler()
        self.fault_injector = None
        self.tracer = None
        self._sim_time_s = 0.0

    # ------------------------------------------------------------------
    # clocks
    # ------------------------------------------------------------------
    @property
    def sim_time_s(self) -> float:
        """Total simulated device time of the kernels launched so far."""
        return self._sim_time_s

    def _kernel_sim_time(self, cost: KernelCost) -> float:
        compute = (cost.work_items * cost.ops_per_item) / self.spec.effective_ops_per_s
        memory = cost.resolved_bytes() / (self.spec.memory_bandwidth_gbps * 1e9)
        return self.spec.kernel_launch_overhead_s + max(compute, memory)

    # ------------------------------------------------------------------
    # kernel execution
    # ------------------------------------------------------------------
    def execute(
        self,
        name: str,
        cost: KernelCost,
        body: Callable[[], T],
        phase: Optional[str] = None,
    ) -> T:
        """Run a kernel *body*, timing it on both clocks.

        Parameters
        ----------
        name:
            Kernel name for the profiler (Figs. 10-12 aggregate on it).
        cost:
            Work description for the simulated-time roofline.
        body:
            Zero-argument callable executing the vectorized kernel.
        phase:
            Optional phase label (``block_merge`` / ``vertex_move`` /
            ``update`` / ...) for breakdown reports; anything but ``None``
            or a ``str`` (an argument passed in the wrong slot) raises
            :class:`KernelLaunchError` before the body runs.
        """
        if cost.work_items < 0:
            raise KernelLaunchError(
                f"kernel {name!r} launched with negative work: {cost.work_items}"
            )
        if phase is not None and not isinstance(phase, str):
            raise KernelLaunchError(
                f"kernel {name!r} launched with a non-string phase label of "
                f"type {type(phase).__name__}"
            )
        if self.fault_injector is not None:
            self.fault_injector.on_kernel(name, phase, cost.resolved_bytes())
        start = time.perf_counter()
        result = body()
        wall = time.perf_counter() - start
        sim = self._kernel_sim_time(cost)
        self._sim_time_s += sim
        self.profiler.record(
            KernelRecord(
                name=name,
                phase=phase or "unphased",
                wall_time_s=wall,
                sim_time_s=sim,
                work_items=cost.work_items,
                bytes_moved=cost.resolved_bytes(),
            )
        )
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.add_complete(
                name,
                "kernel",
                wall,
                start_abs_s=start,
                args={
                    "phase": phase or "unphased",
                    "work_items": cost.work_items,
                    "sim_time_s": sim,
                    "bytes_moved": cost.resolved_bytes(),
                },
            )
        return result
