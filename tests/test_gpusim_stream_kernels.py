"""Tests for simulated-device streams."""

import pytest

from repro.errors import DeviceError
from repro.gpusim.device import KernelCost
from repro.gpusim.stream import Stream, overlap_time_s


class TestStream:
    def test_launch_advances_timeline(self, device):
        s = Stream(device)
        assert s.completion_time_s == 0.0
        s.launch("k", KernelCost(100), lambda: None)
        assert s.completion_time_s > 0.0

    def test_same_stream_serializes(self, device):
        s = Stream(device)
        s.launch("k1", KernelCost(1000), lambda: None)
        t1 = s.completion_time_s
        s.launch("k2", KernelCost(1000), lambda: None)
        assert s.completion_time_s > t1

    def test_concurrent_streams_overlap(self, device):
        """Makespan of parallel streams is the max, not the sum."""
        s1, s2, s3 = Stream(device), Stream(device), Stream(device)
        for s in (s1, s2, s3):
            s.launch("k", KernelCost(10**6), lambda: None)
        total = s1.completion_time_s + s2.completion_time_s + s3.completion_time_s
        assert overlap_time_s(s1, s2, s3) < total
        assert overlap_time_s(s1, s2, s3) == max(
            s1.completion_time_s, s2.completion_time_s, s3.completion_time_s
        )

    def test_overlap_requires_streams(self):
        with pytest.raises(DeviceError):
            overlap_time_s()

    def test_launch_returns_body_result(self, device):
        s = Stream(device)
        assert s.launch("k", KernelCost(1), lambda: "result") == "result"
