"""Tests for the simulated device: memory accounting, clocks, cost model."""

import numpy as np
import pytest

from repro.errors import DeviceError, DeviceMemoryError, KernelLaunchError
from repro.gpusim.device import (
    A4000,
    TINY_DEVICE,
    Device,
    KernelCost,
    get_default_device,
    set_default_device,
)


class TestSpec:
    def test_a4000_shape(self):
        assert A4000.total_cores == 48 * 128
        assert A4000.memory_bytes == 16 * 1024**3
        assert A4000.warp_size == 32

    def test_tiny_device_is_small(self):
        assert TINY_DEVICE.memory_bytes < A4000.memory_bytes


class TestMemoryAccounting:
    def test_allocate_and_free(self):
        dev = Device(TINY_DEVICE)
        aid = dev.allocate(1024)
        assert dev.allocated_bytes == 1024
        dev.free(aid)
        assert dev.allocated_bytes == 0

    def test_free_idempotent(self):
        dev = Device(TINY_DEVICE)
        aid = dev.allocate(10)
        dev.free(aid)
        dev.free(aid)
        assert dev.allocated_bytes == 0

    def test_oom(self):
        dev = Device(TINY_DEVICE)
        with pytest.raises(DeviceMemoryError):
            dev.allocate(TINY_DEVICE.memory_bytes + 1)

    def test_oom_cumulative(self):
        dev = Device(TINY_DEVICE)
        dev.allocate(TINY_DEVICE.memory_bytes - 10)
        with pytest.raises(DeviceMemoryError):
            dev.allocate(100)

    def test_negative_allocation(self):
        dev = Device(TINY_DEVICE)
        with pytest.raises(DeviceError):
            dev.allocate(-1)


class TestClocks:
    def test_execute_advances_sim_clock(self):
        dev = Device(A4000)
        before = dev.sim_time_s
        dev.execute("k", KernelCost(work_items=1000), lambda: None)
        assert dev.sim_time_s > before

    def test_launch_overhead_floor(self):
        dev = Device(A4000)
        dev.execute("k", KernelCost(work_items=1), lambda: None)
        assert dev.sim_time_s >= A4000.kernel_launch_overhead_s

    def test_larger_work_costs_more(self):
        d1, d2 = Device(A4000), Device(A4000)
        d1.execute("k", KernelCost(work_items=10**3), lambda: None)
        d2.execute("k", KernelCost(work_items=10**9), lambda: None)
        assert d2.sim_time_s > d1.sim_time_s

    def test_memory_bound_roofline(self):
        """A byte-heavy kernel is priced by bandwidth, not compute."""
        dev = Device(A4000)
        nbytes = 10**9
        dev.execute(
            "k", KernelCost(work_items=1, bytes_moved=nbytes), lambda: None
        )
        expected = nbytes / (A4000.memory_bandwidth_gbps * 1e9)
        assert dev.sim_time_s >= expected

    def test_transfer_charged(self):
        dev = Device(A4000)
        duration = dev.charge_transfer(10**6, "h2d")
        assert duration > 0
        assert dev.sim_time_s == pytest.approx(duration)

    def test_transfer_bad_direction(self):
        dev = Device(A4000)
        with pytest.raises(DeviceError):
            dev.charge_transfer(10, "sideways")

    def test_reset_clocks(self):
        dev = Device(A4000)
        dev.execute("k", KernelCost(work_items=10), lambda: None)
        dev.charge_transfer(10, "d2h")
        dev.reset_clocks()
        assert dev.sim_time_s == 0.0
        assert dev.profiler.launch_count() == 0


class TestExecute:
    def test_returns_body_result(self):
        dev = Device(A4000)
        assert dev.execute("k", KernelCost(1), lambda: 42) == 42

    def test_negative_work_rejected(self):
        dev = Device(A4000)
        with pytest.raises(KernelLaunchError):
            dev.execute("k", KernelCost(-1), lambda: None)

    @pytest.mark.parametrize("phase", [(np.zeros(2), np.ones(2)), 3, b"merge"])
    def test_non_string_phase_rejected_before_the_body(self, phase):
        # e.g. a tuple of arrays passed in the phase slot by mistake
        dev = Device(A4000)
        ran = []
        with pytest.raises(KernelLaunchError, match="phase"):
            dev.execute("k", KernelCost(1), lambda: ran.append(1), phase)
        assert ran == []
        assert dev.profiler.launch_count() == 0

    def test_records_phase(self):
        dev = Device(A4000)
        dev.execute("k", KernelCost(1), lambda: None, phase="vertex_move")
        assert dev.profiler.kernel_records[0].phase == "vertex_move"

    def test_unphased_default(self):
        dev = Device(A4000)
        dev.execute("k", KernelCost(1), lambda: None)
        assert dev.profiler.kernel_records[0].phase == "unphased"


class TestDefaultDevice:
    def test_lazy_singleton(self):
        set_default_device(None)
        a = get_default_device()
        b = get_default_device()
        assert a is b

    def test_override(self):
        custom = Device(TINY_DEVICE)
        set_default_device(custom)
        try:
            assert get_default_device() is custom
        finally:
            set_default_device(None)
