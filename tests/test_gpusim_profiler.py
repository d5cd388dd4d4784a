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
        assert p.total_wall_time_s() == pytest.approx(3.0)
        assert p.total_sim_time_s() == pytest.approx(1.0)
        assert p.launch_count() == 2

    def test_reset(self):
        p = Profiler()
        p.record(record())
        p.reset()
        assert p.launch_count() == 0
        assert p.total_sim_time_s() == 0.0


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

    def test_phase_shares_sum_to_one(self):
        p = Profiler()
        p.record(record(phase="merge", wall=1.0))
        p.record(record(phase="move", wall=3.0))
        shares = p.phase_shares("wall")
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["move"] == pytest.approx(0.75)

    def test_phase_shares_sim_clock(self):
        p = Profiler()
        p.record(record(phase="merge", sim=1.0))
        p.record(record(phase="move", sim=1.0))
        shares = p.phase_shares("sim")
        assert shares["merge"] == pytest.approx(0.5)

    def test_phase_shares_bad_clock(self):
        with pytest.raises(ValueError):
            Profiler().phase_shares("cpu")

    def test_phase_shares_empty(self):
        assert Profiler().phase_shares() == {}


class TestSnapshots:
    def test_records_since(self):
        p = Profiler()
        p.record(record(name="before"))
        snap = p.snapshot()
        p.record(record(name="after"))
        since = p.records_since(snap)
        assert [r.name for r in since] == ["after"]
