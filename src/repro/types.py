"""Shared dtype and typing conventions.

All index-like arrays (vertex ids, block ids, CSR offsets) use
:data:`INDEX_DTYPE` (int64) so that graphs beyond 2^31 edges are
representable — the SBPC dataset tops out at ~24M edges but the library
does not bake in a 32-bit ceiling.  Edge weights and degree accumulators
use :data:`WEIGHT_DTYPE`; entropies and probabilities use
:data:`FLOAT_DTYPE`.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import numpy.typing as npt

INDEX_DTYPE = np.int64
WEIGHT_DTYPE = np.int64
FLOAT_DTYPE = np.float64

IndexArray = npt.NDArray[np.int64]
WeightArray = npt.NDArray[np.int64]
FloatArray = npt.NDArray[np.float64]
BoolArray = npt.NDArray[np.bool_]

ArrayLike = Union[npt.ArrayLike]

#: Sentinel block id meaning "no block / invalid".
NO_BLOCK: int = -1


def as_index_array(values: ArrayLike) -> IndexArray:
    """Coerce *values* to a contiguous int64 index array."""
    return np.ascontiguousarray(values, dtype=INDEX_DTYPE)


def as_weight_array(values: ArrayLike) -> WeightArray:
    """Coerce *values* to a contiguous int64 weight array."""
    return np.ascontiguousarray(values, dtype=WEIGHT_DTYPE)

