"""Byte-identical golden-partition oracle for GSAP.

Each case pins the sha256 of one GSAP run's output: the block labels as
little-endian int64 followed by ``repr`` of the reported MDL.  A change
meant as a pure refactor or speed-up of the ΔMDL primitives, the
vertex-move phase, the block merge or the blockmodel maintainers must
leave every digest unchanged; a change that alters RNG consumption,
sort stability or float summation order shows up here first.

The digests were last re-recorded when the block-merge ΔMDL moved to
the touched-cell body, which scores each unordered pair in canonical
``(min, max)`` order: both merge directions now give the same float, so
ties that rounding used to break fall to the stable block order.  Such
a change is checked by the seed-sweep quality gate
(``benchmarks/quality_gate.py``), not by these digests.
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
        "c7d7415affe1eec7ed590e6bf1609df5f18613165c5662c4c39826c31782b91d",
    ),
    "low_high": (
        "low_high", 300, 2,
        "f76dd9a5b6279258ccfeb2c9acda8d099bf9b09f872d326463d39d49eefb0535",
    ),
    "high_low": (
        "high_low", 500, 3,
        "34433b91d1cc398dd07477053a9b3406dafe0483b8147c8af257ea11a7db1d1e",
    ),
    "high_high": (
        "high_high", 400, 4,
        "bbb7c1af41c46daf0beff1ccac0cdee5cdc6b7a9645b08cad9c5c1033d763a68",
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


#: category -> sha256 of the seed-0 5K-vertex partition, the inputs and
#: settings of the repo benchmark's ``gsap-*-5k`` workloads
GOLDEN_5K = {
    "low_low": "483de42939e3493df897719afd0b98214fa915f0b59cd5a53414511b97b29d6e",
    "high_high": "598b36ca001f324112a5cdf8432c782e140327fc8cde54884a28f59c1c31d5e6",
}


@pytest.mark.parametrize("category", sorted(GOLDEN_5K))
def test_gsap_5k_output_matches_golden(category):
    graph, _ = load_dataset(category, 5_000, 0)
    result = GSAPPartitioner(_config(0), device=Device(A4000)).partition(graph)
    assert output_sha256(result.partition, result.mdl) == GOLDEN_5K[category]
