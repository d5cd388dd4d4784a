"""Metropolis-Hastings acceptance with Hastings correction.

A proposed vertex move from block ``r`` to ``s`` is accepted with
probability

.. math::

    p_{accept} = \min\!\left(1,\;
        e^{-\beta\,\Delta S}\,\frac{p_{s \to r}}{p_{r \to s}}\right)

where the forward/backward proposal probabilities follow the reference
implementation's form: for each block ``t`` adjacent to the mover with
edge weight ``w_t``,

.. math::

    p_{r \to s} \propto \sum_t \frac{w_t\,(M_{t,s} + M_{s,t} + 1)}
                                    {d_t + B},

and the backward term uses the post-move blockmodel entries and degrees.
The ``+1`` keeps the correction defined when ``s`` has no edges to ``t``
(it corresponds to the uniform-random branch of the proposal mixture).
Each batch's correction is computed with its ΔS, from the same cell
lookups, by :func:`repro.blockmodel.delta.move_delta_hastings`.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericalError
from ..gpusim.device import Device, KernelCost


def accept_moves(
    device: Device,
    delta: np.ndarray,
    hastings: np.ndarray,
    beta: float,
    rng: np.random.Generator,
    phase: str = "vertex_move",
) -> np.ndarray:
    """Vectorized accept/reject: ``u < min(1, exp(-β ΔS) · H)``."""
    # Guard BEFORE the RNG draw: a NaN ΔS or Hastings ratio would make
    # every comparison False (silent all-reject) while still consuming
    # random numbers, desynchronizing the run from its fault-free twin.
    if len(delta) and not (
        np.isfinite(delta).all() and np.isfinite(hastings).all()
    ):
        raise NumericalError(
            "accept_moves: non-finite ΔS or Hastings correction reached "
            "the MH acceptance step"
        )

    def kernel() -> np.ndarray:
        # exp underflows harmlessly to 0 for very bad moves; clip the
        # exponent to avoid overflow warnings for very good ones.
        exponent = np.clip(-beta * delta, -700.0, 700.0)
        p_accept = np.minimum(1.0, np.exp(exponent) * hastings)
        return rng.random(len(delta)) < p_accept

    return device.execute(
        "mh_accept",
        KernelCost(work_items=max(len(delta), 1), ops_per_item=6.0),
        kernel,
        phase,
    )
