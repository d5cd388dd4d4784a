"""Byte-identical golden-partition oracle for the CPU baselines.

Pins the output of the GraphChallenge reference, uSAP and I-SBP on all
four categories, hashed as in :mod:`test_gsap_golden` (labels as
little-endian int64, then ``repr`` of the MDL) under the same pinned
settings.  A refactor of the shared CPU vertex-move or merge path must
leave every digest unchanged; a change in RNG consumption, acceptance
arithmetic or apply order shows up here.
"""

import pytest

from repro.baselines import ISBPPartitioner, ReferenceSBP, USAPPartitioner
from repro.graph.datasets import load_dataset

from test_gsap_golden import _config, output_sha256

ENGINES = {
    "reference": ReferenceSBP,
    "uSAP": USAPPartitioner,
    "I-SBP": ISBPPartitioner,
}

#: category -> seed; every case runs 150 vertices
SEEDS = {"low_low": 1, "low_high": 2, "high_low": 3, "high_high": 4}

#: (engine, category) -> sha256
GOLDEN = {
    ("reference", "low_low"):
        "e5589c1340d4eb203ed2c11b13c72e038ee8441f24e1b6ae7d0bd13013bdc097",
    ("reference", "low_high"):
        "09294dc8c56787e734a89704474401c99f7d6b6707e83469590e08d2564c1d84",
    ("reference", "high_low"):
        "272b8d47f3fa36feb22f6f69623c6ff323a582d7aab09d3290a450ea130dab8d",
    ("reference", "high_high"):
        "ee8798372d05010c5b4a7c2a70908caac18c1b94737f575638734e5a2a6270ef",
    ("uSAP", "low_low"):
        "dc45f3dfe846cce01f83f8622165b8254cec4c74c1fbda09f1c1e86b180ed234",
    ("uSAP", "low_high"):
        "962b0314069e790944c6f565ab90ce115b68192f243ea76b7a8a57cfb7ee8bf1",
    ("uSAP", "high_low"):
        "2e6e050e5097c2f128b43af5112cc3faa78a22aa29915be5148f38fc2029f321",
    ("uSAP", "high_high"):
        "39e2b7b3cc59aa9732d4bf94c5abed5ed5d947e6867a0487a3c3c64f6d8315e9",
    ("I-SBP", "low_low"):
        "e3c0001fcdc74b55688693f9753477f3d8b1bac876488f694a67a4b50ab9844d",
    ("I-SBP", "low_high"):
        "8c2d7c54b69b7907b1e9316768485fdddc0511eabd0f917a1f3e87f12d59255a",
    ("I-SBP", "high_low"):
        "37354531cfa26f8530ccb7ad6d843ba59de0dcf866c0ee7a189677b4952c01eb",
    ("I-SBP", "high_high"):
        "3a93d88e7418fe0991d76e47a4b6cac25b014211dc04a34b28eed3e433850d8a",
}


@pytest.mark.parametrize(
    "engine,category", sorted(GOLDEN), ids=lambda x: x
)
def test_baseline_output_matches_golden(engine, category):
    seed = SEEDS[category]
    graph, _ = load_dataset(category, 150, seed)
    result = ENGINES[engine](_config(seed)).partition(graph)
    assert output_sha256(result.partition, result.mdl) == GOLDEN[engine, category]
