"""Directed weighted graphs in Compressed Sparse Row form.

:class:`DiGraphCSR` is the canonical graph container of the library.  It
stores *both* the out-adjacency and the in-adjacency in CSR form (six
arrays total), mirroring the data layout GSAP keeps on the GPU: block-merge
and vertex-move ΔMDL computations need to walk incoming and outgoing edges
of a vertex or block with equal efficiency.

The arrays are immutable by convention — partitioners never mutate the
input graph, only the blockmodel derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..errors import GraphValidationError
from ..types import (
    INDEX_DTYPE,
    WEIGHT_DTYPE,
    IndexArray,
    WeightArray,
    as_index_array,
    as_weight_array,
)


@dataclass(frozen=True)
class CSRAdjacency:
    """One direction of adjacency in CSR form.

    Attributes
    ----------
    ptr:
        Offsets array of length ``num_nodes + 1``; row ``i`` spans
        ``nbr[ptr[i]:ptr[i+1]]``.
    nbr:
        Neighbour ids, grouped by row.
    wgt:
        Edge weights aligned with :attr:`nbr`.
    """

    ptr: IndexArray
    nbr: IndexArray
    wgt: WeightArray

    def __iter__(self) -> Iterator[np.ndarray]:
        """Unpack as ``ptr, nbr, wgt`` (the triple :func:`gather_rows` takes)."""
        return iter((self.ptr, self.nbr, self.wgt))

    def __post_init__(self) -> None:
        object.__setattr__(self, "ptr", as_index_array(self.ptr))
        object.__setattr__(self, "nbr", as_index_array(self.nbr))
        object.__setattr__(self, "wgt", as_weight_array(self.wgt))

    @property
    def num_rows(self) -> int:
        return len(self.ptr) - 1

    @property
    def num_entries(self) -> int:
        return len(self.nbr)

    def row(self, i: int) -> Tuple[IndexArray, WeightArray]:
        """Neighbour ids and weights of row *i* (views, not copies)."""
        lo, hi = self.ptr[i], self.ptr[i + 1]
        return self.nbr[lo:hi], self.wgt[lo:hi]

    def degree(self, i: int) -> int:
        """Weighted degree of row *i*."""
        lo, hi = self.ptr[i], self.ptr[i + 1]
        return int(self.wgt[lo:hi].sum())

    def degrees(self) -> WeightArray:
        """Weighted degree of every row, vectorized."""
        sums = np.zeros(self.num_rows, dtype=WEIGHT_DTYPE)
        if self.num_entries:
            # np.add.reduceat mishandles empty rows; use a cumulative-sum
            # difference instead, which is branch-free and O(nnz).
            csum = np.concatenate(([0], np.cumsum(self.wgt)))
            sums = csum[self.ptr[1:]] - csum[self.ptr[:-1]]
        return sums.astype(WEIGHT_DTYPE)

    def row_lengths(self) -> IndexArray:
        """Number of stored entries per row."""
        return self.ptr[1:] - self.ptr[:-1]

    def validate(self) -> None:
        """Raise :class:`GraphValidationError` on any CSR invariant breach."""
        if len(self.ptr) < 1:
            raise GraphValidationError("ptr must have at least one element")
        if self.ptr[0] != 0:
            raise GraphValidationError(f"ptr[0] must be 0, got {self.ptr[0]}")
        if np.any(np.diff(self.ptr) < 0):
            raise GraphValidationError("ptr must be non-decreasing")
        if self.ptr[-1] != len(self.nbr):
            raise GraphValidationError(
                f"ptr[-1]={self.ptr[-1]} does not match nnz={len(self.nbr)}"
            )
        if len(self.nbr) != len(self.wgt):
            raise GraphValidationError("nbr and wgt must have equal length")
        if self.num_entries:
            if self.nbr.min() < 0 or self.nbr.max() >= self.num_rows:
                raise GraphValidationError("neighbour id out of range")
            if self.wgt.min() <= 0:
                raise GraphValidationError("edge weights must be positive")


def gather_rows(
    ptr: np.ndarray, nbr: np.ndarray, wgt: np.ndarray, rows: np.ndarray
) -> Tuple[IndexArray, np.ndarray, np.ndarray]:
    """Concatenate the CSR rows *rows* of ``(ptr, nbr, wgt)``.

    Returns ``(seg_ptr, nbr, wgt)``: segment ``i`` of the output,
    ``[seg_ptr[i], seg_ptr[i+1])``, holds row ``rows[i]``'s entries in
    stored order.  Rows may repeat and may be empty.  Works on a graph
    adjacency (``gather_rows(*graph.out_adj, rows)``) and on either
    direction of a blockmodel alike.
    """
    rows = np.asarray(rows, dtype=INDEX_DTYPE)
    lo = ptr[rows]
    lengths = ptr[rows + 1] - lo
    seg_ptr = np.zeros(len(rows) + 1, dtype=INDEX_DTYPE)
    lengths.cumsum(out=seg_ptr[1:])
    idx = np.arange(seg_ptr[-1], dtype=INDEX_DTYPE)
    idx += (lo - seg_ptr[:-1]).repeat(lengths)
    return seg_ptr, nbr[idx], wgt[idx]


def combined_adjacency(
    out: Tuple[np.ndarray, np.ndarray, np.ndarray],
    inn: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> Tuple[IndexArray, IndexArray, WeightArray]:
    """Per-row union of two CSR directions: row ``u`` = ``out_u ++ in_u``.

    *out* and *inn* are ``(ptr, nbr, wgt)`` triples with the same row
    count (a graph's ``out_adj`` / ``in_adj``, or a blockmodel's two
    directions).  Entries are not deduplicated: the multinomial sampler
    needs only weight-proportional selection, and ``M[u,:] ++ M[:,u]``
    is exactly the distribution the reference implementation samples
    from (Algorithm 1).
    """
    o_ptr, o_nbr, o_wgt = out
    i_ptr, i_nbr, i_wgt = inn
    o_len = o_ptr[1:] - o_ptr[:-1]
    i_len = i_ptr[1:] - i_ptr[:-1]
    ptr = np.zeros(len(o_len) + 1, dtype=INDEX_DTYPE)
    np.cumsum(o_len + i_len, out=ptr[1:])
    nbr = np.empty(ptr[-1], dtype=INDEX_DTYPE)
    wgt = np.empty(ptr[-1], dtype=WEIGHT_DTYPE)
    # each row's out entries go first, then its in entries
    for src_ptr, src_nbr, src_wgt, lengths, base in (
        (o_ptr, o_nbr, o_wgt, o_len, ptr[:-1]),
        (i_ptr, i_nbr, i_wgt, i_len, ptr[:-1] + o_len),
    ):
        pos = np.arange(len(src_nbr), dtype=INDEX_DTYPE)
        pos += (base - src_ptr[:-1]).repeat(lengths)
        nbr[pos] = src_nbr
        wgt[pos] = src_wgt
    return ptr, nbr, wgt


@dataclass(frozen=True)
class DiGraphCSR:
    """A directed weighted graph stored as paired out/in CSR adjacencies.

    Use :func:`repro.graph.builder.build_graph` (or the loaders in
    :mod:`repro.graph.io`) to construct instances; the constructor itself
    only wires pre-built adjacencies together.

    Attributes
    ----------
    out_adj:
        Out-edges: ``out_adj.row(v)`` lists targets of edges ``v -> t``.
    in_adj:
        In-edges: ``in_adj.row(v)`` lists sources of edges ``s -> v``.
    """

    out_adj: CSRAdjacency
    in_adj: CSRAdjacency

    @property
    def num_vertices(self) -> int:
        return self.out_adj.num_rows

    @property
    def num_edges(self) -> int:
        """Number of stored directed edges (after duplicate aggregation)."""
        return self.out_adj.num_entries

    @property
    def total_edge_weight(self) -> int:
        return int(self.out_adj.wgt.sum())

    def out_neighbors(self, v: int) -> Tuple[IndexArray, WeightArray]:
        return self.out_adj.row(v)

    def in_neighbors(self, v: int) -> Tuple[IndexArray, WeightArray]:
        return self.in_adj.row(v)

    def out_degrees(self) -> WeightArray:
        return self.out_adj.degrees()

    def in_degrees(self) -> WeightArray:
        return self.in_adj.degrees()

    def degrees(self) -> WeightArray:
        """Total (in + out) weighted degree per vertex."""
        return self.out_degrees() + self.in_degrees()

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate ``(src, dst, weight)`` triples in CSR order."""
        ptr, nbr, wgt = self.out_adj.ptr, self.out_adj.nbr, self.out_adj.wgt
        for v in range(self.num_vertices):
            for k in range(ptr[v], ptr[v + 1]):
                yield v, int(nbr[k]), int(wgt[k])

    def edge_arrays(self) -> Tuple[IndexArray, IndexArray, WeightArray]:
        """Return ``(src, dst, weight)`` arrays covering every edge."""
        ptr = self.out_adj.ptr
        src = np.repeat(
            np.arange(self.num_vertices, dtype=INDEX_DTYPE),
            (ptr[1:] - ptr[:-1]),
        )
        return src, self.out_adj.nbr.copy(), self.out_adj.wgt.copy()

    def validate(self) -> None:
        """Check both adjacencies plus out/in consistency."""
        self.out_adj.validate()
        self.in_adj.validate()
        if self.out_adj.num_rows != self.in_adj.num_rows:
            raise GraphValidationError(
                "out and in adjacencies disagree on vertex count: "
                f"{self.out_adj.num_rows} vs {self.in_adj.num_rows}"
            )
        if self.out_adj.num_entries != self.in_adj.num_entries:
            raise GraphValidationError(
                "out and in adjacencies disagree on edge count: "
                f"{self.out_adj.num_entries} vs {self.in_adj.num_entries}"
            )
        if self.out_adj.wgt.sum() != self.in_adj.wgt.sum():
            raise GraphValidationError("out and in total edge weight differ")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DiGraphCSR(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"W={self.total_edge_weight})"
        )
