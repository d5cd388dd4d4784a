"""Simulated-GPU substrate: device model, memory, streams, primitives.

This package is the repo's substitution for the paper's CUDA runtime
(DESIGN.md §2): kernels execute as vectorized NumPy bodies while the
device accounts both wall time and an A4000-calibrated simulated time.
"""

from .device import (
    A4000,
    TINY_DEVICE,
    BufferMismatch,
    Device,
    DeviceSpec,
    KernelCost,
    buffer_digest,
    get_default_device,
    set_default_device,
)
from .kernels import DEFAULT_BLOCK_DIM, LaunchInfo, launch, launch_geometry
from .memory import (
    DeviceArray,
    device_empty,
    device_zeros,
    ensure_same_device,
    to_device,
)
from .profiler import KernelRecord, PhaseSummary, Profiler, TransferRecord
from .stream import Event, Stream, overlap_time_s
from .curand import (
    LookupTables,
    build_lookup_tables,
    multinomial_neighbor_table,
    random_block_table,
    uniform_table,
)

__all__ = [
    "A4000",
    "TINY_DEVICE",
    "BufferMismatch",
    "buffer_digest",
    "Device",
    "DeviceSpec",
    "KernelCost",
    "get_default_device",
    "set_default_device",
    "DEFAULT_BLOCK_DIM",
    "LaunchInfo",
    "launch",
    "launch_geometry",
    "DeviceArray",
    "device_empty",
    "device_zeros",
    "ensure_same_device",
    "to_device",
    "KernelRecord",
    "PhaseSummary",
    "Profiler",
    "TransferRecord",
    "Event",
    "Stream",
    "overlap_time_s",
    "LookupTables",
    "build_lookup_tables",
    "multinomial_neighbor_table",
    "random_block_table",
    "uniform_table",
]
