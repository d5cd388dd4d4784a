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

Random access ``M[r, c]`` is a table read below a fixed cell budget and a
binary search above it.  While ``B²`` fits :data:`LOOKUP_TABLE_MAX_CELLS`
and every weight fits ``int32``, lookups gather from a flat ``B × B``
table at ``row·B + col`` (the dense/sparse switch of the GraphChallenge
reference).  The table is built from the arrays at the first lookup, or
handed over (:meth:`BlockmodelCSR.hand_over_lookup_cache`) from the
blockmodel a batch of moves started from: the
:class:`~repro.blockmodel.incremental.IncrementalBlockmodel` patches the
cells the batch changed in place instead of rebuilding ``B²`` cells per
batch.  Above the budget, the queries are put in key order and searched
into the composite keys ``row·B + col`` — valid because rows are stored
in order with columns sorted inside each row, so the composite key array
is globally sorted; ordered queries walk that array front to back
instead of jumping across it.  The simulated kernel cost stays the
binary search, the per-thread search a CUDA kernel would run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import GraphValidationError
from ..gpusim.primitives import composite_argsort, sort_keys
from ..types import INDEX_DTYPE, WEIGHT_DTYPE, IndexArray, WeightArray

#: Largest ``B²`` served from the cached lookup table: 2²² cells, i.e.
#: ``B ≤ 2048`` and a 16 MiB ``int32`` table.  Above it, lookups search.
LOOKUP_TABLE_MAX_CELLS = 1 << 22

_INT32 = np.iinfo(np.int32)


@dataclass
class BlockmodelCSR:
    """Inter-block edge-count matrix in dual CSR form.

    Instances are produced by :func:`repro.blockmodel.update.rebuild_blockmodel`
    (Algorithm 2), :class:`~repro.blockmodel.incremental.IncrementalBlockmodel`
    or, in tests, :meth:`from_dense`; they are treated as immutable — accepted moves
    build a new object, mirroring GSAP's GPU update path.  :meth:`lookup`
    relies on that: it caches its sorted keys and its ``B × B`` table on
    the object, built at first use or handed over by the maintainer, and
    :meth:`drop_lookup_cache` forgets both after a write into the arrays.
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
    _table: Optional[np.ndarray] = field(default=None, repr=False)

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

    def _keys(self) -> np.ndarray:
        if self._out_keys is None:
            b = max(self.num_blocks, 1)
            self._out_keys = self._row_ids(self.out_ptr) * b + self.out_nbr
        return self._out_keys

    def _lookup_table(self) -> Optional[np.ndarray]:
        """The flat ``B × B`` table, or ``None`` above the budget.

        Built on first use unless the maintainer handed one over; after
        a write into the arrays (a fault injected at an integrity site)
        :meth:`drop_lookup_cache` makes the next use rebuild it, so the
        fault lands in the table too.  Entries whose column
        lies outside ``[0, B)`` are dropped rather than wrapped into
        another cell.  Weights that do not fit ``int32`` (never the case
        while the total weight is below 2³¹) keep the search; an empty
        cached array records that.
        """
        b = self.num_blocks
        if b * b > LOOKUP_TABLE_MAX_CELLS:
            return None
        if self._table is None:
            wgt, nbr = self.out_wgt, self.out_nbr
            if len(wgt) and not (_INT32.min <= wgt.min() and wgt.max() <= _INT32.max):
                self._table = np.empty(0, dtype=np.int32)
            else:
                valid = (nbr >= 0) & (nbr < b)
                self._table = np.zeros(b * b, dtype=np.int32)
                self._table[self._keys()[valid]] = wgt[valid]
        return self._table if len(self._table) else None

    def hand_over_lookup_cache(
        self,
        successor: "BlockmodelCSR",
        out_keys: np.ndarray,
        table: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        """Give *successor*, built from this blockmodel by a batch of
        moves, its sorted composite out keys *out_keys* and its lookup
        table, so that it builds neither at first use.

        A given *table* has been patched in place to *successor*'s
        cells, so this object forgets it if it holds it, and would build
        its own at a later lookup.  Without one, *successor* builds its
        table now.  Returns the table *successor* serves from, ``None``
        above the budget.
        """
        if table is not None and self._table is table:
            self._table = None
        successor._out_keys = out_keys
        successor._table = table
        return successor._lookup_table()

    def drop_lookup_cache(self) -> None:
        """Forget the cached keys and table, so the next lookup reads the
        arrays as they are now (called after a write into them)."""
        self._out_keys = None
        self._table = None

    def lookup(self, rows: np.ndarray, cols: np.ndarray) -> WeightArray:
        """Vectorized ``M[rows[i], cols[i]]`` (0 where absent).

        A gather from the table while ``B²`` fits the budget; above it,
        the queries are sorted and searched in key order.  Queries whose
        composite key falls outside ``[0, B²)`` take the search, so both
        paths answer every query alike.
        """
        keys = np.asarray(rows, dtype=INDEX_DTYPE) * max(self.num_blocks, 1)
        keys += np.asarray(cols, dtype=INDEX_DTYPE)
        return self.lookup_keys(keys)

    def lookup_keys(self, keys: np.ndarray) -> WeightArray:
        """:meth:`lookup` of the composite keys ``row·B + col``."""
        table = self._lookup_table()
        if (
            table is not None
            and len(keys)
            and keys.min() >= 0
            and keys.max() < len(table)
        ):
            return table[keys].astype(WEIGHT_DTYPE)
        out_keys = self._keys()
        out = np.zeros(len(keys), dtype=WEIGHT_DTYPE)
        if len(out_keys) == 0 or len(keys) == 0:
            return out
        # each query is answered on its own, so any order of equal keys
        # will do; in key order the searches walk out_keys front to back
        order, ordered = sort_keys(keys)
        pos = np.minimum(np.searchsorted(out_keys, ordered), len(out_keys) - 1)
        hit = out_keys[pos] == ordered
        out[order[hit]] = self.out_wgt[pos[hit]]
        return out

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
        """Build from a dense matrix (tests and small hand-made models)."""
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
