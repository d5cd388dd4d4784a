"""Simulated-GPU substrate: device model, streams, primitives.

This package is the repo's substitution for the paper's CUDA runtime
(DESIGN.md §2): kernels execute as vectorized NumPy bodies while the
device accounts both wall time and an A4000-calibrated simulated time.
"""

from .device import (
    A4000,
    Device,
    DeviceSpec,
    KernelCost,
    buffer_digest,
    get_default_device,
    set_default_device,
)
from .profiler import KernelRecord, PhaseSummary, Profiler
from .stream import Stream, overlap_time_s
from .curand import (
    LookupTables,
    build_lookup_tables,
    multinomial_neighbor_table,
    random_block_table,
    uniform_table,
)

__all__ = [
    "A4000",
    "buffer_digest",
    "Device",
    "DeviceSpec",
    "KernelCost",
    "get_default_device",
    "set_default_device",
    "KernelRecord",
    "PhaseSummary",
    "Profiler",
    "Stream",
    "overlap_time_s",
    "LookupTables",
    "build_lookup_tables",
    "multinomial_neighbor_table",
    "random_block_table",
    "uniform_table",
]
