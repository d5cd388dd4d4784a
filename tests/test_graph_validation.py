"""Tests for partition/graph validation helpers."""

import numpy as np
import pytest

from repro.errors import GraphValidationError
from repro.graph.builder import build_graph
from repro.graph.validation import (
    densify_partition,
    graph_summary,
    partition_is_dense,
    validate_partition,
)


class TestValidatePartition:
    def test_valid(self):
        assert validate_partition(np.array([0, 1, 2, 1]), 4) == 3

    def test_empty(self):
        assert validate_partition(np.array([], dtype=np.int64), 0) == 0

    def test_wrong_length(self):
        with pytest.raises(GraphValidationError):
            validate_partition(np.array([0, 1]), 3)

    def test_negative_ids(self):
        with pytest.raises(GraphValidationError):
            validate_partition(np.array([0, -1]), 2)

    def test_two_dimensional(self):
        with pytest.raises(GraphValidationError):
            validate_partition(np.zeros((2, 2), dtype=np.int64), 4)


class TestDensify:
    def test_dense_detection(self):
        assert partition_is_dense(np.array([0, 1, 2]))
        assert not partition_is_dense(np.array([0, 2]))
        assert partition_is_dense(np.array([], dtype=np.int64))

    def test_densify_removes_gaps(self):
        out = densify_partition(np.array([5, 2, 5, 9]))
        np.testing.assert_array_equal(out, [1, 0, 1, 2])

    def test_densify_preserves_grouping(self):
        original = np.array([3, 3, 7, 7, 1])
        dense = densify_partition(original)
        # same grouping structure: equal labels stay equal
        for i in range(len(original)):
            for j in range(len(original)):
                assert (original[i] == original[j]) == (dense[i] == dense[j])

    def test_densify_idempotent(self):
        a = densify_partition(np.array([0, 1, 1, 2]))
        np.testing.assert_array_equal(a, densify_partition(a))


class TestSummary:
    def test_summary_fields(self):
        g = build_graph([0, 1, 1], [1, 0, 1], [1, 2, 3])
        s = graph_summary(g)
        assert s["num_vertices"] == 2
        assert s["num_edges"] == 3
        assert s["total_edge_weight"] == 6
        assert s["num_self_loops"] == 1
        assert s["max_degree"] >= s["mean_degree"]
