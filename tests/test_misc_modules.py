"""Tests for the small support modules: types, errors, logging, result."""

import numpy as np
import pytest

from repro import errors
from repro.core.result import PartitionResult
from repro.core.state import PhaseTimings, ProposalStats
from repro.logging_util import enable_verbose_logging, get_logger
from repro.types import (
    FLOAT_DTYPE,
    INDEX_DTYPE,
    NO_BLOCK,
    WEIGHT_DTYPE,
    as_index_array,
    as_weight_array,
)


class TestTypes:
    def test_dtype_widths(self):
        assert np.dtype(INDEX_DTYPE).itemsize == 8
        assert np.dtype(WEIGHT_DTYPE).itemsize == 8
        assert np.dtype(FLOAT_DTYPE).itemsize == 8

    def test_sentinel(self):
        assert NO_BLOCK == -1

    def test_coercions(self):
        idx = as_index_array([1, 2, 3])
        assert idx.dtype == INDEX_DTYPE and idx.flags["C_CONTIGUOUS"]
        wgt = as_weight_array((4, 5))
        assert wgt.dtype == WEIGHT_DTYPE

    def test_coercion_from_float_truncates_to_int(self):
        out = as_index_array(np.array([1.0, 2.0]))
        assert out.dtype == INDEX_DTYPE


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(errors.GraphFormatError, errors.ReproError)
        assert issubclass(errors.ConvergenceError, errors.PartitionError)
        assert issubclass(errors.DeviceMemoryError, errors.DeviceError)
        assert issubclass(errors.KernelLaunchError, errors.DeviceError)
        assert issubclass(errors.ConfigError, errors.ReproError)
        assert issubclass(errors.DatasetError, errors.ReproError)

    def test_single_catch_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.DeviceMemoryError("boom")


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("gsap").name == "repro.gsap"

    def test_enable_verbose_idempotent(self):
        enable_verbose_logging()
        handlers_before = len(get_logger().handlers)
        enable_verbose_logging()
        assert len(get_logger().handlers) == handlers_before


class TestPhaseTimings:
    def test_total_and_shares(self):
        t = PhaseTimings(block_merge_s=1.0, vertex_move_s=3.0,
                         golden_section_s=0.0)
        assert t.total_s == 4.0
        shares = t.shares()
        assert shares["vertex_move"] == pytest.approx(0.75)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_zero_total(self):
        shares = PhaseTimings().shares()
        assert all(v == 0.0 for v in shares.values())


class TestProposalStats:
    def test_averages(self):
        s = ProposalStats(merge_proposals=10, merge_proposal_time_s=1.0,
                          move_proposals=4, move_proposal_time_s=2.0)
        assert s.merge_avg_s() == pytest.approx(0.1)
        assert s.move_avg_s() == pytest.approx(0.5)

    def test_zero_counts(self):
        s = ProposalStats()
        assert s.merge_avg_s() == 0.0
        assert s.move_avg_s() == 0.0


class TestPartitionResult:
    def test_densifies_labels(self):
        result = PartitionResult(
            partition=np.array([5, 9, 5]), num_blocks=99, mdl=1.0
        )
        np.testing.assert_array_equal(result.partition, [0, 1, 0])
        assert result.num_blocks == 2

    def test_summary_keys(self):
        result = PartitionResult(
            partition=np.array([0, 1]), num_blocks=2, mdl=1.0,
            algorithm="X",
        )
        summary = result.summary()
        assert summary["algorithm"] == "X"
        assert "vertex_move_s" in summary
        assert "mdl" in summary

    def test_empty_partition(self):
        result = PartitionResult(
            partition=np.array([], dtype=np.int64), num_blocks=0, mdl=0.0
        )
        assert result.num_blocks == 0
