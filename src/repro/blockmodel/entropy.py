"""Description length of a blockmodel (paper Eqs. 1-2).

The total description length of graph ``G`` under a degree-corrected
blockmodel with ``B`` blocks is

.. math::

    MDL = E\,h(B^2/E) + V \log B - P(G|B), \qquad
    h(x) = (1+x)\log(1+x) - x\log x

with the (negative) log-posterior data term

.. math::

    P(G|B) = \sum_{i,j} M_{ij} \log\frac{M_{ij}}{d^{out}_i\, d^{in}_j}.

Natural logarithms throughout (the GraphChallenge reference convention).
The paper's Eq. 1 prints the degree factors as ``D_i^in D_j^out``; the
reference implementation (and every SBP codebase descending from Peixoto's)
uses out-degree of the *source* block and in-degree of the *destination*
block, which is what we implement — the two agree on every symmetric
quantity the evaluation reports.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from ..errors import NumericalError
from ..types import FLOAT_DTYPE
from .blockmodel import BlockmodelCSR
from .dense import DenseBlockmodel


def h(x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """The model-complexity kernel ``h(x) = (1+x)log(1+x) − x·log x``.

    Defined by continuity as 0 at ``x = 0``.
    """
    x = np.asarray(x, dtype=FLOAT_DTYPE)
    out = np.zeros_like(x)
    positive = x > 0
    xp = x[positive]
    out[positive] = (1.0 + xp) * np.log1p(xp) - xp * np.log(xp)
    if out.ndim == 0:
        return float(out)
    return out


def model_description_length(num_vertices: int, num_edges: int, num_blocks: int) -> float:
    """The model term ``E·h(B²/E) + V·log B``."""
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
    if num_edges == 0:
        return float(num_vertices * math.log(num_blocks)) if num_blocks > 1 else 0.0
    x = (num_blocks * num_blocks) / num_edges
    return float(num_edges * h(x) + num_vertices * math.log(num_blocks))


def entropy_terms(
    weights: np.ndarray, d_src: np.ndarray, d_dst: np.ndarray
) -> np.ndarray:
    """Elementwise ``M·log(M / (d_src·d_dst))`` with 0 where M = 0.

    *d_src* / *d_dst* are the out-degree of each entry's source block and
    the in-degree of its destination block, aligned with *weights*.
    """
    weights = np.asarray(weights, dtype=FLOAT_DTYPE)
    d_src = np.asarray(d_src, dtype=FLOAT_DTYPE)
    d_dst = np.asarray(d_dst, dtype=FLOAT_DTYPE)
    # Every legitimate input is a non-negative integer-valued count; a
    # negative or non-finite entry means an upstream structure was
    # corrupted, and log() would silently turn it into NaN.  min/max
    # propagate NaN, so one pair of reductions checks both at once.
    for name, arr in (("weights", weights), ("d_src", d_src), ("d_dst", d_dst)):
        if arr.size and not (arr.min() >= 0 and arr.max() < np.inf):
            raise NumericalError(
                f"entropy_terms: {name} contains negative or non-finite "
                "entries — blockmodel counts are corrupt"
            )
    # Evaluated on every entry and masked after: zero-weight entries may
    # produce nan (0/0) that np.where discards.  Degrees are >= the
    # incident edge weight, so the denominator is > 0 wherever M > 0 on
    # uncorrupted inputs; a zeroed degree yields inf/nan there, which the
    # finiteness check below converts into a typed error (no warning spam).
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = d_src * d_dst
        np.divide(weights, terms, out=terms)
        np.log(terms, out=terms)
        terms *= weights
    out = np.where(weights > 0, terms, 0.0)
    if out.size and not (out.min() > -np.inf and out.max() < np.inf):
        raise NumericalError(
            "entropy_terms: non-finite entropy term (degree underflow "
            "against a positive edge count)"
        )
    return out


def data_log_posterior_dense(model: DenseBlockmodel) -> float:
    """``P(G|B)`` for a dense blockmodel."""
    m = model.matrix
    rows, cols = np.nonzero(m)
    w = m[rows, cols].astype(FLOAT_DTYPE)
    return float(
        entropy_terms(w, model.deg_out[rows], model.deg_in[cols]).sum()
    )


def data_log_posterior_csr(model: BlockmodelCSR) -> float:
    """``P(G|B)`` for a CSR blockmodel."""
    if model.num_entries == 0:
        return 0.0
    lengths = model.out_ptr[1:] - model.out_ptr[:-1]
    rows = np.repeat(np.arange(model.num_blocks), lengths)
    return float(
        entropy_terms(
            model.out_wgt, model.deg_out[rows], model.deg_in[model.out_nbr]
        ).sum()
    )


def description_length(
    model: Union[DenseBlockmodel, BlockmodelCSR],
    num_vertices: int,
    num_edges: int,
) -> float:
    """Total MDL (paper Eq. 2) of *model* for a graph of given size.

    ``num_edges`` is the total *edge weight* E of the graph, matching the
    reference implementation's use of weighted counts throughout.
    """
    if isinstance(model, DenseBlockmodel):
        b = model.num_blocks
        data = data_log_posterior_dense(model)
    else:
        b = model.num_blocks
        data = data_log_posterior_csr(model)
    mdl = model_description_length(num_vertices, num_edges, b) - data
    if not math.isfinite(mdl):
        raise NumericalError(
            f"description_length: non-finite MDL ({mdl}) for B={b}, "
            f"V={num_vertices}, E={num_edges}"
        )
    return mdl


def null_description_length(num_vertices: int, num_edges: int) -> float:
    """MDL of the 1-block model — a scale for convergence thresholds.

    With one block, ``M = [[E]]`` and both degrees equal ``E``, so the data
    term is ``E·log(E/E²) = −E·log E`` and the MDL is
    ``E·h(1/E) + E·log E``.
    """
    model = model_description_length(num_vertices, num_edges, 1)
    data = -num_edges * math.log(num_edges) if num_edges > 0 else 0.0
    return model - data
