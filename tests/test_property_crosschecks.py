"""Cross-module consistency properties.

These tie multiple subsystems together: a ΔMDL predicted before a
mutation must equal the difference of full description lengths measured
after it, through *every* representation (dense mutation, device
rebuild, quotient graph).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs_with_partitions
from repro.analysis import quotient_graph
from repro.blockmodel.delta import merge_delta_dense
from repro.blockmodel.dense import DenseBlockmodel
from repro.blockmodel.entropy import (
    description_length,
    model_description_length,
)
from repro.blockmodel.update import rebuild_blockmodel
from repro.core.block_merge import apply_merges_with_relabel
from repro.gpusim.device import A4000, Device
from repro.metrics import ari, nmi


@settings(max_examples=25, deadline=None)
@given(graphs_with_partitions(max_vertices=10, max_edges=30), st.data())
def test_merge_delta_predicts_full_mdl_change(data, picker):
    """data-term Δ + model-term Δ == MDL(after) − MDL(before)."""
    graph, bmap, b = data
    if b < 2:
        return
    r = picker.draw(st.integers(0, b - 1))
    s = picker.draw(st.integers(0, b - 1))
    if r == s:
        return
    v, e = graph.num_vertices, graph.total_edge_weight
    before = DenseBlockmodel.from_graph(graph, bmap, b)
    mdl_before = description_length(before, v, e)
    data_delta = merge_delta_dense(before, r, s)
    model_delta = model_description_length(v, e, b - 1) - \
        model_description_length(v, e, b)

    # apply the merge through Bmap relabelling + fresh aggregation
    new_bmap = bmap.copy()
    new_bmap[new_bmap == r] = s
    used = np.unique(new_bmap)
    remap = np.full(b, -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    new_bmap = remap[new_bmap]
    after = DenseBlockmodel.from_graph(graph, new_bmap, b - 1)
    mdl_after = description_length(after, v, e)

    assert mdl_after - mdl_before == pytest.approx(
        data_delta + model_delta, abs=1e-8
    )


@settings(max_examples=25, deadline=None)
@given(graphs_with_partitions(max_vertices=10, max_edges=30))
def test_quotient_graph_blockmodel_device_rebuild_agree(data):
    """Three independent aggregation paths produce the same matrix."""
    graph, bmap, b = data
    dense = DenseBlockmodel.from_graph(graph, bmap, b)
    device = Device(A4000)
    rebuilt = rebuild_blockmodel(device, graph, bmap, b)
    bg = quotient_graph(graph, bmap)
    from_quotient = np.zeros((b, b), dtype=np.int64)
    src, dst, wgt = bg.graph.edge_arrays()
    from_quotient[src, dst] = wgt
    np.testing.assert_array_equal(dense.matrix, rebuilt.to_dense())
    np.testing.assert_array_equal(dense.matrix, from_quotient)


@settings(max_examples=25, deadline=None)
@given(graphs_with_partitions(max_vertices=12, max_edges=30), st.data())
def test_apply_merges_preserves_edge_weight(data, picker):
    graph, bmap, b = data
    if b < 3:
        return
    best_delta = np.array(
        [picker.draw(st.floats(-5, 5)) for _ in range(b)]
    )
    best_prop = np.array(
        [picker.draw(st.integers(0, b - 1)) for _ in range(b)]
    )
    k = picker.draw(st.integers(0, b - 2))
    new_bmap, new_b, applied, gmap = apply_merges_with_relabel(
        bmap, b, best_delta, best_prop, k
    )
    assert applied <= k
    assert new_b == b - applied
    np.testing.assert_array_equal(gmap[bmap], new_bmap)
    model = DenseBlockmodel.from_graph(graph, new_bmap, new_b)
    assert model.total_weight == graph.total_edge_weight


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=2, max_size=30),
    st.lists(st.integers(0, 4), min_size=2, max_size=30),
)
def test_metric_family_consistency(a, b):
    """Perfect agreement is perfect under every metric; metrics agree on
    the direction of degradation from a perfect match."""
    n = min(len(a), len(b))
    a = np.array(a[:n])
    assert nmi(a, a) == pytest.approx(1.0)
    assert ari(a, a) == pytest.approx(1.0)


@settings(max_examples=20, deadline=None)
@given(graphs_with_partitions(max_vertices=10, max_edges=25))
def test_mdl_invariant_under_block_relabelling(data):
    """Permuting block ids never changes the description length."""
    graph, bmap, b = data
    v, e = graph.num_vertices, graph.total_edge_weight
    base = description_length(DenseBlockmodel.from_graph(graph, bmap, b), v, e)
    rng = np.random.default_rng(0)
    perm = rng.permutation(b)
    relabelled = perm[bmap]
    other = description_length(
        DenseBlockmodel.from_graph(graph, relabelled, b), v, e
    )
    assert other == pytest.approx(base, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(graphs_with_partitions(max_vertices=10, max_edges=25))
def test_mdl_invariant_under_vertex_relabelling(data):
    """Permuting vertex ids (consistently) never changes the MDL."""
    from repro.graph.transforms import permute_vertices

    graph, bmap, b = data
    v, e = graph.num_vertices, graph.total_edge_weight
    base = description_length(DenseBlockmodel.from_graph(graph, bmap, b), v, e)
    rng = np.random.default_rng(1)
    perm = rng.permutation(graph.num_vertices).astype(np.int64)
    permuted_graph = permute_vertices(graph, perm)
    permuted_bmap = np.empty_like(bmap)
    permuted_bmap[perm] = bmap
    other = description_length(
        DenseBlockmodel.from_graph(permuted_graph, permuted_bmap, b), v, e
    )
    assert other == pytest.approx(base, rel=1e-12)
