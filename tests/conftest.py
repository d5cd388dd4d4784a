"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.blockmodel.incremental import IncrementalBlockmodel
from repro.blockmodel.update import rebuild_blockmodel
from repro.config import SBPConfig
from repro.graph.builder import build_graph
from repro.graph.datasets import load_dataset
from repro.gpusim.device import A4000, Device


def tracked(graph, bmap, num_blocks) -> IncrementalBlockmodel:
    """An incremental maintainer attached to the Algorithm-2 blockmodel
    of *bmap*, on a private device: how a CPU engine starts a plateau."""
    device = Device()
    incremental = IncrementalBlockmodel(device, graph)
    incremental.reset(rebuild_blockmodel(device, graph, bmap, num_blocks))
    return incremental


@pytest.fixture
def device() -> Device:
    """A fresh simulated A4000 per test (isolated clocks/profiler)."""
    return Device(A4000)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_graph():
    """The 4-vertex running example of paper Figs. 3/6/7 (plus a self-loop)."""
    edges = [
        (0, 0, 3),  # self-loop, weight 3
        (0, 2, 5),
        (1, 0, 2),
        (1, 3, 1),
        (2, 1, 4),
        (3, 2, 2),
    ]
    src = [e[0] for e in edges]
    dst = [e[1] for e in edges]
    wgt = [e[2] for e in edges]
    return build_graph(src, dst, wgt, num_vertices=4)


@pytest.fixture
def move_edge_cases():
    """Every vertex moved to every block of a graph built for Eq. 7's corners.

    Blocks are ``{0, 1}``, ``{2, 3}``, ``{4, 5, 6}``; vertices 0 and 3
    carry self-loops, vertex 0 is adjacent to every block, and vertex 6
    has no edges.  Returns ``(graph, bmap, num_blocks, movers,
    proposals)`` with one mover per (vertex, block) pair, ``r == s``
    included.
    """
    bmap = np.array([0, 0, 1, 1, 2, 2, 2])
    edges = [
        (0, 0, 3),  # self-loop
        (0, 1, 4),  # 0 -> own block
        (0, 2, 2),  # 0 -> block 1
        (3, 0, 1),  # block 1 -> 0
        (4, 0, 5),  # block 2 -> 0
        (0, 5, 1),  # 0 -> block 2
        (1, 4, 2),
        (2, 3, 2),
        (5, 2, 3),
        (3, 3, 1),  # self-loop
        (4, 5, 1),
    ]
    src, dst, wgt = zip(*edges)
    graph = build_graph(src, dst, wgt, num_vertices=len(bmap))
    b = 3
    movers = np.repeat(np.arange(len(bmap)), b)
    proposals = np.tile(np.arange(b), len(bmap))
    return graph, bmap, b, movers, proposals


@pytest.fixture(scope="session")
def small_graph_with_truth():
    """A 200-vertex Low-Low dataset graph (session-cached; read-only)."""
    return load_dataset("low_low", 200, seed=0)


@pytest.fixture
def small_graph(small_graph_with_truth):
    return small_graph_with_truth[0]


@pytest.fixture
def fast_config() -> SBPConfig:
    """A configuration that converges quickly on tiny test graphs."""
    return SBPConfig(
        max_num_nodal_itr=15,
        delta_entropy_threshold1=1e-2,
        delta_entropy_threshold2=5e-3,
        seed=7,
    )


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def edge_lists(draw, max_vertices: int = 12, max_edges: int = 40):
    """Random small directed multigraphs as (n, src, dst, wgt)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    wgt = draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
    return n, src, dst, wgt


@st.composite
def graphs_with_partitions(draw, max_vertices: int = 12, max_edges: int = 40):
    """A random graph plus a random partition covering all block ids."""
    n, src, dst, wgt = draw(edge_lists(max_vertices, max_edges))
    graph = build_graph(src, dst, wgt, num_vertices=n)
    b = draw(st.integers(min_value=1, max_value=n))
    bmap = np.asarray(
        draw(st.lists(st.integers(0, b - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    # force every block id to be used so B is exact
    bmap[: min(b, n)] = np.arange(min(b, n))
    return graph, bmap, b
