"""Tests for the MDL / description-length formulas (paper Eqs. 1-2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs_with_partitions
from repro.blockmodel.blockmodel import BlockmodelCSR
from repro.blockmodel.dense import DenseBlockmodel
from repro.blockmodel.entropy import (
    data_log_posterior_csr,
    data_log_posterior_dense,
    description_length,
    entropy_terms,
    h,
    model_description_length,
    null_description_length,
)
from repro.graph.builder import build_graph


class TestH:
    def test_h_zero(self):
        assert h(0.0) == 0.0

    def test_h_one(self):
        assert h(1.0) == pytest.approx(2 * math.log(2))

    def test_h_positive_and_increasing(self):
        xs = np.linspace(0.1, 10, 50)
        values = h(xs)
        assert np.all(values > 0)
        assert np.all(np.diff(values) > 0)

    def test_h_vectorized_matches_scalar(self):
        xs = np.array([0.0, 0.5, 2.0])
        np.testing.assert_allclose(h(xs), [h(float(x)) for x in xs])


class TestModelTerm:
    def test_formula(self):
        v, e, b = 100, 500, 10
        expected = e * h(b * b / e) + v * math.log(b)
        assert model_description_length(v, e, b) == pytest.approx(expected)

    def test_single_block_no_label_cost(self):
        assert model_description_length(100, 500, 1) == pytest.approx(
            500 * h(1 / 500)
        )

    def test_zero_edges(self):
        assert model_description_length(10, 0, 2) == pytest.approx(
            10 * math.log(2)
        )

    def test_invalid_blocks(self):
        with pytest.raises(ValueError):
            model_description_length(10, 10, 0)

    def test_grows_with_blocks_eventually(self):
        v, e = 1000, 10_000
        assert model_description_length(v, e, 500) > model_description_length(
            v, e, 10
        )


class TestEntropyTerms:
    def test_zero_weight_contributes_zero(self):
        out = entropy_terms(
            np.array([0.0, 2.0]), np.array([4.0, 4.0]), np.array([4.0, 4.0])
        )
        assert out[0] == 0.0
        assert out[1] == pytest.approx(2 * math.log(2 / 16))

    def test_never_nan(self):
        out = entropy_terms(np.zeros(3), np.zeros(3), np.zeros(3))
        assert not np.any(np.isnan(out))


def _masked_entropy_terms(weights, d_src, d_dst):
    """The original masked formulation: gather the positive entries,
    evaluate, scatter back.  Kept as the byte-identity oracle."""
    weights = np.asarray(weights, dtype=np.float64)
    d_src = np.asarray(d_src, dtype=np.float64)
    d_dst = np.asarray(d_dst, dtype=np.float64)
    out = np.zeros_like(weights)
    positive = weights > 0
    denom = d_src[positive] * d_dst[positive]
    out[positive] = weights[positive] * np.log(weights[positive] / denom)
    return out


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.just(0), st.integers(1, 10**6)),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
        ),
        max_size=200,
    ),
    st.booleans(),
)
def test_entropy_terms_byte_identical_to_masked_form(rows, integer_input):
    # degrees are at least the entry's weight, as in any real blockmodel
    dtype = np.int64 if integer_input else np.float64
    w = np.array([r[0] for r in rows], dtype=dtype)
    d_src = np.array([r[0] + r[1] for r in rows], dtype=dtype)
    d_dst = np.array([r[0] + r[2] for r in rows], dtype=dtype)
    got = entropy_terms(w, d_src, d_dst)
    want = _masked_entropy_terms(w, d_src, d_dst)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestDataTerm:
    def test_dense_vs_csr_agree(self):
        m = np.array([[3, 0, 5], [2, 0, 1], [0, 4, 2]], dtype=np.int64)
        dense = DenseBlockmodel(m)
        csr = BlockmodelCSR.from_dense(m)
        assert data_log_posterior_dense(dense) == pytest.approx(
            data_log_posterior_csr(csr)
        )

    def test_empty_model(self):
        csr = BlockmodelCSR.from_dense(np.zeros((2, 2), dtype=np.int64))
        assert data_log_posterior_csr(csr) == 0.0

    def test_single_block_value(self):
        e = 10
        dense = DenseBlockmodel(np.array([[e]], dtype=np.int64))
        assert data_log_posterior_dense(dense) == pytest.approx(
            -e * math.log(e)
        )


class TestDescriptionLength:
    def test_null_model_consistency(self):
        """description_length of the 1-block model equals the closed form."""
        e = 50
        dense = DenseBlockmodel(np.array([[e]], dtype=np.int64))
        assert description_length(dense, 20, e) == pytest.approx(
            null_description_length(20, e)
        )

    def test_dense_and_csr_agree(self, tiny_graph):
        bmap = np.array([0, 1, 0, 1])
        dense = DenseBlockmodel.from_graph(tiny_graph, bmap)
        csr = BlockmodelCSR.from_dense(dense.matrix)
        v, e = tiny_graph.num_vertices, tiny_graph.total_edge_weight
        assert description_length(dense, v, e) == pytest.approx(
            description_length(csr, v, e)
        )

    def test_planted_partition_beats_random(self):
        """On a strongly-clustered graph the planted partition has a
        smaller description length than a shuffled one."""
        rng = np.random.default_rng(0)
        n, b = 60, 3
        truth = np.repeat(np.arange(b), n // b)
        src, dst = [], []
        for _ in range(600):
            block = rng.integers(b)
            members = np.flatnonzero(truth == block)
            if rng.random() < 0.9:
                s, d = rng.choice(members, 2)
            else:
                s = rng.choice(members)
                d = rng.integers(n)
            src.append(int(s))
            dst.append(int(d))
        graph = build_graph(src, dst, num_vertices=n)
        planted = DenseBlockmodel.from_graph(graph, truth, b)
        shuffled = DenseBlockmodel.from_graph(graph, rng.permutation(truth), b)
        v, e = n, graph.total_edge_weight
        assert description_length(planted, v, e) < description_length(
            shuffled, v, e
        )


@settings(max_examples=40, deadline=None)
@given(graphs_with_partitions())
def test_description_length_finite_for_random_models(data):
    graph, bmap, b = data
    dense = DenseBlockmodel.from_graph(graph, bmap, b)
    v, e = graph.num_vertices, graph.total_edge_weight
    value = description_length(dense, v, e)
    assert math.isfinite(value)


@settings(max_examples=40, deadline=None)
@given(graphs_with_partitions())
def test_dense_csr_data_terms_agree(data):
    graph, bmap, b = data
    dense = DenseBlockmodel.from_graph(graph, bmap, b)
    csr = BlockmodelCSR.from_dense(dense.matrix)
    assert data_log_posterior_dense(dense) == pytest.approx(
        data_log_posterior_csr(csr), abs=1e-9
    )
