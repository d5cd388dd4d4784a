"""Byte-identical golden-partition oracle for GSAP.

Each case pins the sha256 of one GSAP run's output: the block labels as
little-endian int64 followed by ``repr`` of the reported MDL.  A change
meant as a pure refactor or speed-up of the ΔMDL primitives, the
vertex-move phase, the block merge or the blockmodel maintainers must
leave every digest unchanged; a change that alters RNG consumption,
sort stability or float summation order shows up here first.
"""

import hashlib

import numpy as np
import pytest

from repro import GSAPPartitioner, SBPConfig
from repro.gpusim import A4000, Device
from repro.graph.datasets import load_dataset


def _config(seed: int) -> SBPConfig:
    # the repo benchmark's pinned settings (``sbp_config``)
    return SBPConfig(
        seed=seed,
        max_num_nodal_itr=30,
        delta_entropy_threshold1=5e-3,
        delta_entropy_threshold2=1e-3,
    )


def output_sha256(partition: np.ndarray, mdl: float) -> str:
    digest = hashlib.sha256(np.asarray(partition, dtype="<i8").tobytes())
    digest.update(repr(float(mdl)).encode())
    return digest.hexdigest()


#: case -> (category, vertices, seed, sha256)
GOLDEN = {
    "low_low": (
        "low_low", 400, 1,
        "b565f073e37543fa4411f577bc9055b6c4b18ffe6d846d2c6e233b8c2122c671",
    ),
    "low_high": (
        "low_high", 300, 2,
        "a8bac655cf24953d7e475422605d6695f45af2087863a69c20b9a46c8b9ac015",
    ),
    "high_low": (
        "high_low", 500, 3,
        "a3b415b91615d1d50b51fd4594f9f54645071f5d28e0734a8e6877bf3002d4e4",
    ),
    "high_high": (
        "high_high", 400, 4,
        "c9275cbce55fbc1c5aa5d261ca0747bda103a26435d47c2daf8d1498d022364f",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_gsap_output_matches_golden(case):
    category, n, seed, golden = GOLDEN[case]
    graph, _ = load_dataset(category, n, seed)
    result = GSAPPartitioner(
        _config(seed), device=Device(A4000)
    ).partition(graph)
    assert output_sha256(result.partition, result.mdl) == golden
