"""Byte-identical golden-partition oracle for the CPU baselines.

Pins the output of the GraphChallenge reference, uSAP and I-SBP on all
four categories, hashed as in :mod:`test_gsap_golden` (labels as
little-endian int64, then ``repr`` of the MDL) under the same pinned
settings.  A refactor of the shared CPU vertex-move or merge path must
leave every digest unchanged; a change in RNG consumption, acceptance
arithmetic or apply order shows up here.  The digests are those of the
batched touched-cell merge round (``merge_delta_cells``), whose ΔS
rounds differently from the whole-row sums it replaced; a change meant
to alter them passes ``make test-quality`` first and re-records them.
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
        "89af1dde477cc851af06814b64b9e752af5225dbfb28a49fd66f6b4dec790265",
    ("reference", "low_high"):
        "ff756155334363a818a7496c5306198f3daf2710b5a8734d211dee823204ff0b",
    ("reference", "high_low"):
        "a048ae936531779e3b09d25b7f74e1f979250dd5ba9ea69ada1f1466cd6177d4",
    ("reference", "high_high"):
        "4bb2955ee62f3b13b38246d20230d8e729ca6a5ea3ef807aad30463461015b97",
    ("uSAP", "low_low"):
        "d7b2db4d9d7db438660279d8d3a1ee35511e6c2dc31d31aac4d25bca2660fa92",
    ("uSAP", "low_high"):
        "ab14030f1f224652682625940b612414142b81132350968686299af688dbbdac",
    ("uSAP", "high_low"):
        "5fe6eac3f55fff4028a1e7509fb22e6d5d7bf3daa18503614c43e11aa1287caa",
    ("uSAP", "high_high"):
        "9f041cfa5e85907626e54c79498c78753bac5c39eb637e809b552ce6f212e93e",
    ("I-SBP", "low_low"):
        "24017850c79b462a7c0d03941586f2312157ad757e0ac488207f5df18eb20eef",
    ("I-SBP", "low_high"):
        "8c2d7c54b69b7907b1e9316768485fdddc0511eabd0f917a1f3e87f12d59255a",
    ("I-SBP", "high_low"):
        "6104b1fa9f52a74839f68de1410d1d607fd6f1319e5daa59945a993893ac965d",
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
