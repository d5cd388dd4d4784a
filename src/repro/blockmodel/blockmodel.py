"""The CSR blockmodel: GSAP's central data structure (paper §3.1).

A blockmodel records the weighted edge counts between blocks of the
current partition as a sparse ``B × B`` matrix ``M`` stored in CSR form in
*both* directions (six arrays total, paper Fig. 3):

* ``out_ptr / out_nbr / out_wgt`` — row ``a`` lists blocks ``b`` with
  ``M[a, b] > 0`` (edges *from* ``a``), columns sorted ascending;
* ``in_ptr / in_nbr / in_wgt`` — row ``b`` lists blocks ``a`` with
  ``M[a, b] > 0`` (edges *into* ``b``), sources sorted ascending;

plus the per-block degree arrays ``deg_out`` / ``deg_in`` (``B_degOut`` /
``B_degIn`` in the paper) and the vertex→block map ``Bmap``.

Random access ``M[r, c]`` is served by one global :func:`numpy.searchsorted`
over the composite key ``row·B + col`` — valid because rows are stored in
order with columns sorted inside each row, so the composite key array is
globally sorted.  This is the vectorized equivalent of the per-thread
binary search a CUDA kernel would run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..errors import GraphValidationError
from ..gpusim.primitives import composite_argsort
from ..types import INDEX_DTYPE, WEIGHT_DTYPE, IndexArray, WeightArray


@dataclass
class BlockmodelCSR:
    """Inter-block edge-count matrix in dual CSR form.

    Instances are produced by :func:`repro.blockmodel.update.rebuild_blockmodel`
    (Algorithm 2) or :meth:`from_dense`; they are treated as immutable —
    accepted moves trigger a rebuild, mirroring GSAP's GPU update path.
    """

    num_blocks: int
    out_ptr: IndexArray
    out_nbr: IndexArray
    out_wgt: WeightArray
    in_ptr: IndexArray
    in_nbr: IndexArray
    in_wgt: WeightArray
    deg_out: WeightArray
    deg_in: WeightArray

    _out_keys: Optional[np.ndarray] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        """Stored nonzeros of M."""
        return len(self.out_nbr)

    @property
    def total_weight(self) -> int:
        """Total edge weight Σ M (equals the graph's total edge weight)."""
        return int(self.out_wgt.sum())

    def deg_total(self) -> WeightArray:
        """Per-block total degree ``deg_in + deg_out`` (Algorithm 1's deg)."""
        return self.deg_in + self.deg_out

    # ------------------------------------------------------------------
    # random access
    # ------------------------------------------------------------------
    def _row_ids(self, ptr: IndexArray) -> np.ndarray:
        lengths = ptr[1:] - ptr[:-1]
        return np.repeat(np.arange(self.num_blocks, dtype=INDEX_DTYPE), lengths)

    def lookup(self, rows: np.ndarray, cols: np.ndarray) -> WeightArray:
        """Vectorized ``M[rows[i], cols[i]]`` (0 where absent)."""
        b = max(self.num_blocks, 1)
        if self._out_keys is None:
            self._out_keys = self._row_ids(self.out_ptr) * b + self.out_nbr
        rows = np.asarray(rows, dtype=INDEX_DTYPE)
        cols = np.asarray(cols, dtype=INDEX_DTYPE)
        keys = rows * b + cols
        pos = np.searchsorted(self._out_keys, keys, side="left")
        out = np.zeros(len(keys), dtype=WEIGHT_DTYPE)
        in_range = pos < len(self._out_keys)
        hit = in_range.copy()
        hit[in_range] = self._out_keys[pos[in_range]] == keys[in_range]
        out[hit] = self.out_wgt[pos[hit]]
        return out

    def lookup_single(self, row: int, col: int) -> int:
        """Scalar ``M[row, col]``."""
        return int(self.lookup(np.array([row]), np.array([col]))[0])

    # ------------------------------------------------------------------
    # row gathering
    # ------------------------------------------------------------------
    def gather_rows(
        self, rows: np.ndarray, direction: str = "out"
    ) -> Tuple[IndexArray, IndexArray, WeightArray]:
        """Concatenate CSR rows for a batch of blocks.

        Returns ``(seg_ptr, cols, wgts)``: segment ``i`` of the output
        holds row ``rows[i]``'s entries (columns sorted ascending).
        """
        if direction == "out":
            ptr, nbr, wgt = self.out_ptr, self.out_nbr, self.out_wgt
        elif direction == "in":
            ptr, nbr, wgt = self.in_ptr, self.in_nbr, self.in_wgt
        else:
            raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
        rows = np.asarray(rows, dtype=INDEX_DTYPE)
        lo = ptr[rows]
        lengths = ptr[rows + 1] - lo
        seg_ptr = np.concatenate(([0], np.cumsum(lengths))).astype(INDEX_DTYPE)
        total = int(seg_ptr[-1])
        # Flatten ranges [lo_i, lo_i + len_i) into one index array.
        if total:
            inner = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(
                seg_ptr[:-1], lengths
            )
            idx = np.repeat(lo, lengths) + inner
        else:
            idx = np.empty(0, dtype=INDEX_DTYPE)
        return seg_ptr, nbr[idx], wgt[idx]

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise M as a dense ``B × B`` array (tests / small B only)."""
        dense = np.zeros((self.num_blocks, self.num_blocks), dtype=WEIGHT_DTYPE)
        rows = self._row_ids(self.out_ptr)
        dense[rows, self.out_nbr] = self.out_wgt
        return dense

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BlockmodelCSR":
        """Build from a dense matrix (tests and the reference baseline)."""
        dense = np.asarray(dense)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise GraphValidationError("blockmodel matrix must be square")
        b = dense.shape[0]
        rows, cols = np.nonzero(dense)
        wgts = dense[rows, cols].astype(WEIGHT_DTYPE)
        out_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(rows, minlength=b)))
        ).astype(INDEX_DTYPE)
        order = composite_argsort(cols, rows)
        in_rows, in_cols, in_wgts = cols[order], rows[order], wgts[order]
        in_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(in_rows, minlength=b)))
        ).astype(INDEX_DTYPE)
        return cls(
            num_blocks=b,
            out_ptr=out_ptr,
            out_nbr=cols.astype(INDEX_DTYPE),
            out_wgt=wgts,
            in_ptr=in_ptr,
            in_nbr=in_cols.astype(INDEX_DTYPE),
            in_wgt=in_wgts.astype(WEIGHT_DTYPE),
            deg_out=dense.sum(axis=1).astype(WEIGHT_DTYPE),
            deg_in=dense.sum(axis=0).astype(WEIGHT_DTYPE),
        )

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check CSR invariants and out/in consistency."""
        for name, ptr, nbr, wgt in (
            ("out", self.out_ptr, self.out_nbr, self.out_wgt),
            ("in", self.in_ptr, self.in_nbr, self.in_wgt),
        ):
            if len(ptr) != self.num_blocks + 1:
                raise GraphValidationError(f"{name}_ptr has wrong length")
            if ptr[0] != 0 or ptr[-1] != len(nbr) or np.any(np.diff(ptr) < 0):
                raise GraphValidationError(f"{name}_ptr is not a valid CSR pointer")
            if len(nbr) != len(wgt):
                raise GraphValidationError(f"{name} nbr/wgt length mismatch")
            if len(nbr) and (nbr.min() < 0 or nbr.max() >= self.num_blocks):
                raise GraphValidationError(f"{name} neighbour id out of range")
            if len(wgt) and wgt.min() <= 0:
                raise GraphValidationError(f"{name} weights must be positive")
            # columns sorted strictly inside each row: the composite key
            # row*B + col must be globally strictly increasing.
            lengths = ptr[1:] - ptr[:-1]
            if len(nbr):
                row_ids = np.repeat(
                    np.arange(self.num_blocks, dtype=INDEX_DTYPE), lengths
                )
                keys = row_ids * max(self.num_blocks, 1) + nbr
                if np.any(np.diff(keys) <= 0):
                    raise GraphValidationError(
                        f"{name} rows must have strictly increasing columns"
                    )
        if self.out_wgt.sum() != self.in_wgt.sum():
            raise GraphValidationError("out/in total weight mismatch")
        if len(self.deg_out) != self.num_blocks or len(self.deg_in) != self.num_blocks:
            raise GraphValidationError("degree arrays must have one entry per block")
        # degrees must equal CSR row sums
        out_sums = np.zeros(self.num_blocks, dtype=WEIGHT_DTYPE)
        if len(self.out_wgt):
            csum = np.concatenate(([0], np.cumsum(self.out_wgt)))
            out_sums = (csum[self.out_ptr[1:]] - csum[self.out_ptr[:-1]]).astype(
                WEIGHT_DTYPE
            )
        if not np.array_equal(out_sums, self.deg_out):
            raise GraphValidationError("deg_out inconsistent with CSR rows")
        in_sums = np.zeros(self.num_blocks, dtype=WEIGHT_DTYPE)
        if len(self.in_wgt):
            csum = np.concatenate(([0], np.cumsum(self.in_wgt)))
            in_sums = (csum[self.in_ptr[1:]] - csum[self.in_ptr[:-1]]).astype(
                WEIGHT_DTYPE
            )
        if not np.array_equal(in_sums, self.deg_in):
            raise GraphValidationError("deg_in inconsistent with CSR rows")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockmodelCSR(B={self.num_blocks}, nnz={self.num_entries}, "
            f"W={self.total_weight})"
        )
