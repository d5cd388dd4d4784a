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
small-graph behaviour of paper Table 3 (launch/transfer overhead dominates
at 1K vertices) and is reported as a secondary column in EXPERIMENTS.md.
"""

from __future__ import annotations

import time
import weakref
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, TypeVar

from ..errors import DeviceError, DeviceMemoryError, KernelLaunchError
from .profiler import KernelRecord, Profiler

T = TypeVar("T")


def buffer_digest(array) -> int:
    """CRC32 content digest of an array's bytes (cheap, not cryptographic)."""
    return zlib.crc32(array.tobytes())


@dataclass(frozen=True)
class BufferMismatch:
    """One device buffer whose content no longer matches its digest."""

    allocation_id: int
    expected: int
    actual: int


@dataclass(frozen=True)
class DeviceSpec:
    """Static hardware parameters of a modelled GPU.

    The throughput figures are deliberately *effective* (irregular integer
    workloads with scattered access), not peak datasheet numbers.
    """

    name: str
    num_sms: int
    cores_per_sm: int
    clock_ghz: float
    memory_bytes: int
    memory_bandwidth_gbps: float  # GB/s
    pcie_bandwidth_gbps: float  # GB/s, host <-> device
    kernel_launch_overhead_s: float
    #: effective simple-operations per second for irregular kernels
    effective_ops_per_s: float
    warp_size: int = 32

    @property
    def total_cores(self) -> int:
        return self.num_sms * self.cores_per_sm


#: RTX A4000: 48 SMs x 128 cores, 16 GB, 448 GB/s, PCIe 4.0 x16.
A4000 = DeviceSpec(
    name="RTX A4000 (simulated)",
    num_sms=48,
    cores_per_sm=128,
    clock_ghz=1.56,
    memory_bytes=16 * 1024**3,
    memory_bandwidth_gbps=448.0,
    pcie_bandwidth_gbps=24.0,
    kernel_launch_overhead_s=5e-6,
    effective_ops_per_s=2.0e11,
)

#: A deliberately small device for tests exercising memory pressure.
TINY_DEVICE = DeviceSpec(
    name="tiny (test)",
    num_sms=2,
    cores_per_sm=32,
    clock_ghz=1.0,
    memory_bytes=1 * 1024**2,
    memory_bandwidth_gbps=10.0,
    pcie_bandwidth_gbps=4.0,
    kernel_launch_overhead_s=5e-6,
    effective_ops_per_s=1.0e9,
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
    """A simulated GPU: memory accounting, clocks, kernel execution.

    A fault injector (:class:`repro.resilience.FaultInjector`) may be
    assigned to :attr:`fault_injector`; when present it is consulted
    before every allocation, kernel launch, and transfer, and may raise
    injected device errors or stall transfers.

    A span tracer (:class:`repro.obs.Tracer`) may be assigned to
    :attr:`tracer` (usually via
    :meth:`repro.obs.Observability.attach_device`); when present and
    enabled, every kernel launch and PCIe transfer is mirrored as a
    leaf span nested under whatever span the caller has open.
    """

    def __init__(self, spec: DeviceSpec = A4000, track_digests: bool = False) -> None:
        self.spec = spec
        self.profiler = Profiler()
        self.fault_injector = None
        self.tracer = None
        #: when True, DeviceArray buffers register CRC32 content digests
        #: that :meth:`verify_buffers` can sweep for silent corruption
        self.track_digests = track_digests
        self._allocated_bytes = 0
        self._sim_time_s = 0.0
        self._transfer_sim_time_s = 0.0
        self._live_allocations: dict[int, int] = {}
        self._next_allocation_id = 0
        self._active_phase: Optional[str] = None
        # allocation id -> (weakref to the backing ndarray, crc32 digest)
        self._digests: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # memory accounting (used by memory.DeviceArray)
    # ------------------------------------------------------------------
    def allocate(self, nbytes: int) -> int:
        """Reserve *nbytes* of device memory; returns an allocation id."""
        if nbytes < 0:
            raise DeviceError(f"cannot allocate negative bytes: {nbytes}")
        if self.fault_injector is not None:
            self.fault_injector.on_allocate(nbytes)
        if self._allocated_bytes + nbytes > self.spec.memory_bytes:
            raise DeviceMemoryError(
                f"device {self.spec.name!r} out of memory: "
                f"{self._allocated_bytes + nbytes} > {self.spec.memory_bytes}"
            )
        self._allocated_bytes += nbytes
        allocation_id = self._next_allocation_id
        self._next_allocation_id += 1
        self._live_allocations[allocation_id] = nbytes
        return allocation_id

    def free(self, allocation_id: int) -> None:
        """Release a previous allocation (idempotent per id)."""
        nbytes = self._live_allocations.pop(allocation_id, None)
        if nbytes is not None:
            self._allocated_bytes -= nbytes
        self._digests.pop(allocation_id, None)

    @property
    def allocated_bytes(self) -> int:
        return self._allocated_bytes

    # ------------------------------------------------------------------
    # buffer content digests (silent-corruption detection)
    # ------------------------------------------------------------------
    def register_buffer(self, allocation_id: int, array) -> None:
        """Record a content digest for *array* under *allocation_id*.

        No-op unless :attr:`track_digests` is set.  Only a weak reference
        to the array is held, so registration never extends buffer
        lifetime; dead entries are dropped lazily.
        """
        if not self.track_digests:
            return
        self._digests[allocation_id] = (weakref.ref(array), buffer_digest(array))

    def refresh_digest(self, allocation_id: int) -> None:
        """Re-digest a registered buffer after an intentional write."""
        entry = self._digests.get(allocation_id)
        if entry is None:
            return
        array = entry[0]()
        if array is None:
            self._digests.pop(allocation_id, None)
            return
        self._digests[allocation_id] = (entry[0], buffer_digest(array))

    def verify_buffers(self) -> List[BufferMismatch]:
        """Sweep all registered buffers; return those whose bytes changed.

        Kernels legitimately rewrite buffers in place — callers are
        expected to :meth:`refresh_digest` after intentional writes, so a
        mismatch here means bytes changed *without* any code admitting to
        the write: silent corruption.
        """
        mismatches: List[BufferMismatch] = []
        for allocation_id, (ref, expected) in list(self._digests.items()):
            array = ref()
            if array is None:
                self._digests.pop(allocation_id, None)
                continue
            actual = buffer_digest(array)
            if actual != expected:
                mismatches.append(
                    BufferMismatch(allocation_id, expected=expected, actual=actual)
                )
        return mismatches

    @property
    def tracked_buffers(self) -> int:
        """Number of live buffers currently carrying digests."""
        return sum(1 for ref, _ in self._digests.values() if ref() is not None)

    # ------------------------------------------------------------------
    # clocks
    # ------------------------------------------------------------------
    @property
    def sim_time_s(self) -> float:
        """Total simulated device time accumulated so far (kernels + transfers)."""
        return self._sim_time_s + self._transfer_sim_time_s

    def reset_clocks(self) -> None:
        self._sim_time_s = 0.0
        self._transfer_sim_time_s = 0.0
        self.profiler.reset()

    def _kernel_sim_time(self, cost: KernelCost) -> float:
        compute = (cost.work_items * cost.ops_per_item) / self.spec.effective_ops_per_s
        memory = cost.resolved_bytes() / (self.spec.memory_bandwidth_gbps * 1e9)
        return self.spec.kernel_launch_overhead_s + max(compute, memory)

    @contextmanager
    def phase(self, label: str) -> Iterator[None]:
        """Attribute transfers issued in this block to phase *label*.

        ``execute`` sets the active phase automatically for the duration
        of a kernel body; this context manager covers host-side regions
        that move data without launching a kernel.
        """
        previous = self._active_phase
        self._active_phase = label
        try:
            yield
        finally:
            self._active_phase = previous

    def charge_transfer(
        self, nbytes: int, direction: str, phase: Optional[str] = None
    ) -> float:
        """Account a host<->device copy; returns its simulated duration.

        The transfer is attributed to *phase* when given, else to the
        currently active phase (set by :meth:`execute` / :meth:`phase`),
        else ``"unphased"``.
        """
        if direction not in ("h2d", "d2h"):
            raise DeviceError(f"unknown transfer direction {direction!r}")
        duration = self.spec.kernel_launch_overhead_s + nbytes / (
            self.spec.pcie_bandwidth_gbps * 1e9
        )
        if self.fault_injector is not None:
            duration += self.fault_injector.on_transfer(nbytes, direction)
        phase = phase or self._active_phase or "unphased"
        self._transfer_sim_time_s += duration
        self.profiler.record_transfer(nbytes, direction, duration, phase)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.add_complete(
                direction,
                "transfer",
                duration,
                args={
                    "nbytes": nbytes,
                    "phase": phase,
                    "clock": "sim",
                },
            )
        return duration

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
        previous_phase = self._active_phase
        if phase is not None:
            self._active_phase = phase
        start = time.perf_counter()
        try:
            result = body()
        finally:
            self._active_phase = previous_phase
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


_default_device: Optional[Device] = None


def get_default_device() -> Device:
    """Process-wide default device (an A4000 model), created lazily."""
    global _default_device
    if _default_device is None:
        _default_device = Device(A4000)
    return _default_device


def set_default_device(device: Optional[Device]) -> None:
    """Override (or with ``None`` reset) the process-wide default device."""
    global _default_device
    _default_device = device
