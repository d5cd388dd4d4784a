"""Tests for GraphChallenge TSV IO."""

import gzip

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.builder import build_graph
from repro.graph.io import (
    load_edge_list,
    load_graph_with_truth,
    load_truth_partition,
    save_edge_list,
    save_truth_partition,
)


@pytest.fixture
def sample_graph():
    return build_graph([0, 1, 2], [1, 2, 0], [2, 1, 3])


class TestEdgeListRoundTrip:
    def test_round_trip(self, tmp_path, sample_graph):
        path = tmp_path / "g.tsv"
        save_edge_list(sample_graph, path)
        loaded = load_edge_list(path)
        assert loaded.num_vertices == sample_graph.num_vertices
        np.testing.assert_array_equal(
            loaded.out_adj.nbr, sample_graph.out_adj.nbr
        )
        np.testing.assert_array_equal(
            loaded.out_adj.wgt, sample_graph.out_adj.wgt
        )

    def test_round_trip_zero_based(self, tmp_path, sample_graph):
        path = tmp_path / "g0.tsv"
        save_edge_list(sample_graph, path, one_based=False)
        loaded = load_edge_list(path, one_based=False)
        assert loaded.total_edge_weight == sample_graph.total_edge_weight

    def test_gzip_round_trip(self, tmp_path, sample_graph):
        path = tmp_path / "g.tsv.gz"
        save_edge_list(sample_graph, path)
        with gzip.open(path, "rt") as f:
            assert f.readline().strip().split("\t") == ["1", "2", "2"]
        loaded = load_edge_list(path)
        assert loaded.num_edges == sample_graph.num_edges

    def test_one_based_ids_written(self, tmp_path, sample_graph):
        path = tmp_path / "g.tsv"
        save_edge_list(sample_graph, path)
        first = path.read_text().splitlines()[0]
        assert first == "1\t2\t2"


class TestEdgeListParsing:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# header\n\n% other\n1\t2\t4\n")
        g = load_edge_list(path)
        assert g.num_edges == 1 and g.total_edge_weight == 4

    def test_two_column_defaults_weight_one(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("1\t2\n2\t1\n")
        assert load_edge_list(path).total_edge_weight == 2

    def test_comma_separated_accepted(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("1,2,3\n")
        assert load_edge_list(path).total_edge_weight == 3

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("1\t2\t3\t4\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_non_integer(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("1\tx\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_zero_id_in_one_based_file(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t1\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("")
        g = load_edge_list(path)
        assert g.num_vertices == 0 and g.num_edges == 0


class TestTruthPartition:
    def test_round_trip(self, tmp_path):
        truth = np.array([0, 1, 1, 2], dtype=np.int64)
        path = tmp_path / "t.tsv"
        save_truth_partition(truth, path)
        loaded = load_truth_partition(path)
        np.testing.assert_array_equal(loaded, truth)

    def test_missing_vertices_get_minus_one(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("1\t1\n3\t2\n")
        loaded = load_truth_partition(path, num_vertices=4)
        np.testing.assert_array_equal(loaded, [0, -1, 1, -1])

    def test_vertex_beyond_n_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("5\t1\n")
        with pytest.raises(GraphFormatError):
            load_truth_partition(path, num_vertices=3)

    def test_load_graph_with_truth(self, tmp_path, sample_graph):
        gpath, tpath = tmp_path / "g.tsv", tmp_path / "t.tsv"
        save_edge_list(sample_graph, gpath)
        save_truth_partition(np.array([0, 0, 1]), tpath)
        graph, truth = load_graph_with_truth(gpath, tpath)
        assert graph.num_vertices == 3
        np.testing.assert_array_equal(truth, [0, 0, 1])
