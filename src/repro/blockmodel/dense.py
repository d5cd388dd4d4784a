"""Mutable dense blockmodel: the test oracle of the CSR blockmodel.

The GraphChallenge reference implementation keeps ``M`` as a dense matrix
updated in place after every accepted move.  :class:`DenseBlockmodel`
reproduces that representation.  No engine runs on it: every engine
keeps GSAP's :class:`~repro.blockmodel.blockmodel.BlockmodelCSR`, and
this class is the oracle of that blockmodel, of Algorithm 2's rebuild,
of the incremental maintenance and of the ``*_dense`` ΔMDL formulas.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import GraphValidationError, PartitionError
from ..graph.csr import DiGraphCSR
from ..types import INDEX_DTYPE, WEIGHT_DTYPE, IndexArray, WeightArray


class DenseBlockmodel:
    """Dense ``B × B`` inter-block edge-count matrix with degree caches."""

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=WEIGHT_DTYPE)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise GraphValidationError("blockmodel matrix must be square")
        if matrix.size and matrix.min() < 0:
            raise GraphValidationError("blockmodel entries must be non-negative")
        self.matrix = matrix
        self.deg_out = matrix.sum(axis=1)
        self.deg_in = matrix.sum(axis=0)

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls, graph: DiGraphCSR, partition: IndexArray, num_blocks: int | None = None
    ) -> "DenseBlockmodel":
        """Aggregate a graph's edges by the partition's block pairs."""
        partition = np.asarray(partition, dtype=INDEX_DTYPE)
        if len(partition) != graph.num_vertices:
            raise PartitionError(
                f"partition length {len(partition)} != |V|={graph.num_vertices}"
            )
        b = int(num_blocks if num_blocks is not None else partition.max() + 1)
        src, dst, wgt = graph.edge_arrays()
        flat = partition[src] * b + partition[dst]
        counts = np.bincount(flat, weights=wgt, minlength=b * b)
        return cls(counts.reshape(b, b).astype(WEIGHT_DTYPE))

    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return self.matrix.shape[0]

    @property
    def total_weight(self) -> int:
        return int(self.matrix.sum())

    def deg_total(self) -> WeightArray:
        return self.deg_out + self.deg_in

    def copy(self) -> "DenseBlockmodel":
        return DenseBlockmodel(self.matrix.copy())

    def lookup(self, rows: np.ndarray, cols: np.ndarray) -> WeightArray:
        """Vectorized ``M[rows[i], cols[i]]``, as :meth:`BlockmodelCSR.lookup`."""
        return self.matrix[rows, cols]

    def lookup_keys(self, keys: np.ndarray) -> WeightArray:
        """:meth:`lookup` of the composite keys ``row·B + col``."""
        return self.matrix.reshape(-1)[keys]

    # ------------------------------------------------------------------
    # in-place mutations (the per-move update of the reference
    # implementation, kept as an oracle)
    # ------------------------------------------------------------------
    def apply_merge(self, source: int, target: int) -> None:
        """Merge block *source* into *target* (source row/col zeroed).

        Block ids are preserved (no compaction); the caller relabels
        ``Bmap`` and compacts when the phase completes.
        """
        if source == target:
            raise PartitionError("cannot merge a block into itself")
        m = self.matrix
        m[target, :] += m[source, :]
        m[:, target] += m[:, source]
        # self-edges of the merged block land on the diagonal; the two
        # += above already routed (source,target)/(target,source)/(source,source)
        # mass into row/col target.
        m[source, :] = 0
        m[:, source] = 0
        self.deg_out = m.sum(axis=1)
        self.deg_in = m.sum(axis=0)

    def apply_move(
        self,
        r: int,
        s: int,
        out_blocks: IndexArray,
        out_weights: WeightArray,
        in_blocks: IndexArray,
        in_weights: WeightArray,
        self_weight: int,
    ) -> None:
        """Move one vertex from block *r* to block *s* (in place).

        The engines fold a batch of moves into their CSR blockmodel in
        one :meth:`~repro.blockmodel.incremental.IncrementalBlockmodel.apply_batch`;
        this per-move form is its test oracle.

        Parameters
        ----------
        out_blocks, out_weights:
            Blocks of the vertex's out-neighbours (self-loops excluded)
            and the corresponding edge weights, already aggregated per
            block.
        in_blocks, in_weights:
            Likewise for in-neighbours.
        self_weight:
            Total weight of the vertex's self-loops.
        """
        if r == s:
            return
        m = self.matrix
        np.subtract.at(m[r, :], out_blocks, out_weights)
        np.add.at(m[s, :], out_blocks, out_weights)
        np.subtract.at(m[:, r], in_blocks, in_weights)
        np.add.at(m[:, s], in_blocks, in_weights)
        if self_weight:
            m[r, r] -= self_weight
            m[s, s] += self_weight
        if m.min() < 0:
            raise PartitionError("blockmodel update drove an entry negative")
        dout = int(out_weights.sum()) + self_weight
        din = int(in_weights.sum()) + self_weight
        self.deg_out[r] -= dout
        self.deg_out[s] += dout
        self.deg_in[r] -= din
        self.deg_in[s] += din

    # ------------------------------------------------------------------
    def compact(self, keep: IndexArray) -> Tuple["DenseBlockmodel", IndexArray]:
        """Drop blocks not in *keep*; returns (compacted, old→new map)."""
        keep = np.asarray(keep, dtype=INDEX_DTYPE)
        remap = np.full(self.num_blocks, -1, dtype=INDEX_DTYPE)
        remap[keep] = np.arange(len(keep), dtype=INDEX_DTYPE)
        sub = self.matrix[np.ix_(keep, keep)]
        dropped = self.matrix.sum() - sub.sum()
        if dropped != 0:
            raise PartitionError(
                f"compacting would drop {dropped} edge weight; "
                "blocks being removed still carry edges"
            )
        return DenseBlockmodel(sub), remap

    def validate(self) -> None:
        if not np.array_equal(self.deg_out, self.matrix.sum(axis=1)):
            raise GraphValidationError("deg_out cache out of sync")
        if not np.array_equal(self.deg_in, self.matrix.sum(axis=0)):
            raise GraphValidationError("deg_in cache out of sync")
        if self.matrix.size and self.matrix.min() < 0:
            raise GraphValidationError("negative blockmodel entry")
