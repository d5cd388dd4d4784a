"""Tests for the kernel profiler feeding Figs. 10-12."""

import pytest

from repro.gpusim.profiler import KernelRecord, Profiler


def record(name="k", phase="p", wall=1.0, sim=0.5, work=10, nbytes=80):
    return KernelRecord(
        name=name, phase=phase, wall_time_s=wall, sim_time_s=sim,
        work_items=work, bytes_moved=nbytes,
    )


class TestAccumulation:
    def test_totals(self):
        p = Profiler()
        p.record(record(wall=1.0, sim=0.25))
        p.record(record(wall=2.0, sim=0.75))
        (summary,) = p.by_kernel().values()
        assert summary.wall_time_s == pytest.approx(3.0)
        assert summary.sim_time_s == pytest.approx(1.0)
        assert p.launch_count() == 2

    def test_reset(self):
        p = Profiler()
        p.record(record())
        p.reset()
        assert p.launch_count() == 0
        assert p.by_phase() == {}


class TestAggregation:
    def test_by_phase(self):
        p = Profiler()
        p.record(record(phase="merge", wall=1.0))
        p.record(record(phase="merge", wall=2.0))
        p.record(record(phase="move", wall=4.0))
        phases = p.by_phase()
        assert phases["merge"].wall_time_s == pytest.approx(3.0)
        assert phases["merge"].num_launches == 2
        assert phases["move"].wall_time_s == pytest.approx(4.0)

    def test_by_kernel(self):
        p = Profiler()
        p.record(record(name="a"))
        p.record(record(name="a"))
        p.record(record(name="b"))
        kernels = p.by_kernel()
        assert kernels["a"].num_launches == 2
        assert kernels["b"].num_launches == 1
