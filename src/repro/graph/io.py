"""Graph and ground-truth file IO in the HPEC GraphChallenge format.

The GraphChallenge SBP datasets ship as tab-separated edge lists with
**1-based** vertex ids::

    <src>\t<dst>\t<weight>

and ground-truth partition files::

    <vertex>\t<block>

Both loaders tolerate comment lines (``#``/``%``) and blank lines, and
both writers round-trip exactly.
"""

from __future__ import annotations

import gzip
import os
from pathlib import Path
from typing import IO, Tuple, Union

import numpy as np

from ..errors import GraphFormatError
from ..types import INDEX_DTYPE, IndexArray, as_index_array
from .builder import build_graph
from .csr import DiGraphCSR

PathLike = Union[str, os.PathLike]


def _open_text(path: PathLike, mode: str = "rt") -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode)  # type: ignore[return-value]
    return open(path, mode, encoding="utf-8")


def _parse_rows(stream: IO[str], expected_cols: Tuple[int, ...], what: str):
    rows = []
    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text.startswith(("#", "%")):
            continue
        parts = text.replace(",", "\t").split()
        if len(parts) not in expected_cols:
            raise GraphFormatError(
                f"{what}: line {lineno} has {len(parts)} fields, "
                f"expected one of {expected_cols}: {text!r}"
            )
        try:
            rows.append(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise GraphFormatError(
                f"{what}: line {lineno} is not integer-valued: {text!r}"
            ) from exc
    return rows


def load_edge_list(
    path: PathLike,
    one_based: bool = True,
    num_vertices: int | None = None,
) -> DiGraphCSR:
    """Load a GraphChallenge-style TSV edge list into a :class:`DiGraphCSR`.

    Parameters
    ----------
    path:
        File path; ``.gz`` suffixes are decompressed transparently.
    one_based:
        GraphChallenge files use 1-based ids (the default).  Pass ``False``
        for 0-based lists.
    num_vertices:
        Optional explicit vertex count (after id rebasing).
    """
    with _open_text(path) as stream:
        rows = _parse_rows(stream, (2, 3), f"edge list {path}")
    if not rows:
        return build_graph([], [], num_vertices=num_vertices or 0)
    arr = np.asarray(rows, dtype=INDEX_DTYPE)
    src = arr[:, 0]
    dst = arr[:, 1]
    wgt = arr[:, 2] if arr.shape[1] == 3 else None
    if one_based:
        if src.min() < 1 or dst.min() < 1:
            raise GraphFormatError(
                f"edge list {path}: expected 1-based ids but found id < 1 "
                "(pass one_based=False for 0-based files)"
            )
        src = src - 1
        dst = dst - 1
    return build_graph(src, dst, wgt, num_vertices=num_vertices)


def save_edge_list(
    graph: DiGraphCSR, path: PathLike, one_based: bool = True
) -> None:
    """Write *graph* as a TSV edge list (src, dst, weight)."""
    offset = 1 if one_based else 0
    src, dst, wgt = graph.edge_arrays()
    with _open_text(path, "wt") as stream:
        for s, d, w in zip(src + offset, dst + offset, wgt):
            stream.write(f"{s}\t{d}\t{w}\n")


def load_truth_partition(
    path: PathLike,
    num_vertices: int | None = None,
    one_based: bool = True,
) -> IndexArray:
    """Load a ground-truth partition file into a 0-based block-id array.

    Returns an array ``truth`` with ``truth[v]`` = block of vertex ``v``.
    Vertices absent from the file get block ``-1`` (unassigned).
    """
    with _open_text(path) as stream:
        rows = _parse_rows(stream, (2,), f"truth partition {path}")
    if not rows:
        return np.empty(0, dtype=INDEX_DTYPE)
    arr = np.asarray(rows, dtype=INDEX_DTYPE)
    verts, blocks = arr[:, 0], arr[:, 1]
    if one_based:
        verts = verts - 1
        blocks = blocks - 1
    if verts.min() < 0 or blocks.min() < 0:
        raise GraphFormatError(f"truth partition {path}: negative id after rebasing")
    n = int(num_vertices if num_vertices is not None else verts.max() + 1)
    if verts.max() >= n:
        raise GraphFormatError(
            f"truth partition {path}: vertex id {verts.max()} >= n={n}"
        )
    truth = np.full(n, -1, dtype=INDEX_DTYPE)
    truth[verts] = blocks
    return truth


def save_truth_partition(
    partition: IndexArray, path: PathLike, one_based: bool = True
) -> None:
    """Write a block-id array in GraphChallenge truth format."""
    partition = as_index_array(partition)
    offset = 1 if one_based else 0
    with _open_text(path, "wt") as stream:
        for v, b in enumerate(partition):
            stream.write(f"{v + offset}\t{int(b) + offset}\n")


def load_graph_with_truth(
    edge_path: PathLike, truth_path: PathLike, one_based: bool = True
) -> Tuple[DiGraphCSR, IndexArray]:
    """Load an edge list and its ground-truth partition together."""
    graph = load_edge_list(edge_path, one_based=one_based)
    truth = load_truth_partition(
        truth_path, num_vertices=graph.num_vertices, one_based=one_based
    )
    return graph, truth


# ----------------------------------------------------------------------
# additional interchange formats
# ----------------------------------------------------------------------
def load_snap_edge_list(path: PathLike, num_vertices: int | None = None) -> DiGraphCSR:
    """Load a SNAP-style edge list: 0-based ``src dst`` pairs, ``#`` comments.

    The Stanford SNAP collection (paper ref. [50]) distributes graphs in
    this form; weights default to 1.
    """
    return load_edge_list(path, one_based=False, num_vertices=num_vertices)


def load_matrix_market(path: PathLike) -> DiGraphCSR:
    """Load a MatrixMarket ``coordinate`` file as a directed graph.

    Supports ``general`` (directed) and ``symmetric`` (each off-diagonal
    entry expanded to both directions) matrices with integer or real
    weights (reals are rounded to the nearest positive integer, floor 1,
    since blockmodels count edges).
    """
    import scipy.io

    matrix = scipy.io.mmread(str(path)).tocoo()
    if matrix.shape[0] != matrix.shape[1]:
        raise GraphFormatError(
            f"matrix market file {path}: adjacency must be square, "
            f"got {matrix.shape}"
        )
    weights = np.asarray(np.rint(np.abs(matrix.data)), dtype=np.int64)
    weights[weights < 1] = 1
    from .builder import build_graph

    return build_graph(
        matrix.row.astype(np.int64),
        matrix.col.astype(np.int64),
        weights,
        num_vertices=matrix.shape[0],
    )


def save_matrix_market(graph: DiGraphCSR, path: PathLike, comment: str = "") -> None:
    """Write *graph* as a MatrixMarket ``coordinate integer general`` file."""
    src, dst, wgt = graph.edge_arrays()
    n = graph.num_vertices
    with _open_text(path, "wt") as stream:
        stream.write("%%MatrixMarket matrix coordinate integer general\n")
        if comment:
            for line in comment.splitlines():
                stream.write(f"% {line}\n")
        stream.write(f"{n} {n} {len(src)}\n")
        for s, d, w in zip(src + 1, dst + 1, wgt):
            stream.write(f"{s} {d} {w}\n")
