"""Streams for the simulated device.

Real GSAP overlaps the three cuRAND table builds on concurrent streams
(paper Fig. 4).  The simulated device executes kernels eagerly, but
streams still model the *timeline*: each stream tracks its own simulated
completion time, concurrent streams overlap, and :func:`overlap_time_s`
takes the max across streams.  This is what lets the cost model credit
GSAP for the overlapped table builds.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from ..errors import DeviceError
from .device import Device, KernelCost, get_default_device

T = TypeVar("T")


class Stream:
    """An ordered queue of kernels with its own simulated timeline."""

    def __init__(self, device: Optional[Device] = None) -> None:
        self.device = device or get_default_device()
        self._completion_time_s = 0.0

    @property
    def completion_time_s(self) -> float:
        """Simulated time at which all enqueued work has finished."""
        return self._completion_time_s

    def launch(
        self,
        name: str,
        cost: KernelCost,
        body: Callable[[], T],
        phase: Optional[str] = None,
    ) -> T:
        """Execute *body* on this stream, advancing its timeline.

        Work on a stream starts when the stream's previous work has
        finished; it overlaps the work of other streams.
        """
        injector = getattr(self.device, "fault_injector", None)
        if injector is not None:
            injector.on_stream_launch(name, phase)
        before = self.device.sim_time_s
        result = self.device.execute(name, cost, body, phase=phase)
        self._completion_time_s += self.device.sim_time_s - before
        return result


def overlap_time_s(*streams: Stream) -> float:
    """Simulated makespan of concurrent streams (max completion time)."""
    if not streams:
        raise DeviceError("overlap_time_s needs at least one stream")
    return max(s.completion_time_s for s in streams)
