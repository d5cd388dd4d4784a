"""Tests for the simulated device: clocks, cost model, kernel execution."""

import numpy as np
import pytest

from repro.errors import KernelLaunchError
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
        assert A4000.memory_bandwidth_gbps == 448.0
        assert A4000.kernel_launch_overhead_s == 5e-6
        assert A4000.effective_ops_per_s == 2.0e11

    def test_tiny_device_is_small(self):
        assert TINY_DEVICE.memory_bandwidth_gbps < A4000.memory_bandwidth_gbps
        assert TINY_DEVICE.effective_ops_per_s < A4000.effective_ops_per_s


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

    def test_reset_clocks(self):
        dev = Device(A4000)
        dev.execute("k", KernelCost(work_items=10), lambda: None)
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
