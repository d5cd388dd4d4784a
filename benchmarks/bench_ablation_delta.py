"""Ablation — touched-cell merge ΔMDL (Eqs. 4-6) vs full-entropy recomputation.

GSAP evaluates only the cells a merge touches (``merge_delta_batch``);
the ablated variant recomputes the full data term before and after each
candidate merge.  Asserted, not assumed: the two agree within an
absolute 1e-6 on every candidate, and the touched-cell path is faster.
"""

import numpy as np
import pytest

from _bench_utils import ablation_workload, pedantic_once, write_bench_record
from repro.blockmodel.delta import merge_delta_batch
from repro.blockmodel.dense import DenseBlockmodel
from repro.blockmodel.entropy import data_log_posterior_dense
from repro.blockmodel.update import rebuild_blockmodel
from repro.graph.datasets import load_dataset
from repro.gpusim.device import A4000, Device

_TIMES = {}
_B = 64


@pytest.fixture(scope="module")
def setup():
    graph, _ = load_dataset("low_low", 1_000)
    device = Device(A4000)
    rng = np.random.default_rng(0)
    bmap = rng.integers(0, _B, graph.num_vertices).astype(np.int64)
    bmap[:_B] = np.arange(_B)
    bm = rebuild_blockmodel(device, graph, bmap, _B)
    dense = DenseBlockmodel.from_graph(graph, bmap, _B)
    pairs = [(r, s) for r in range(_B) for s in range(_B) if r != s]
    r = np.array([p[0] for p in pairs])
    s = np.array([p[1] for p in pairs])
    return device, bm, dense, r, s


def test_decomposed_delta(benchmark, setup):
    device, bm, _dense, r, s = setup
    import time

    t0 = time.perf_counter()
    delta = pedantic_once(benchmark, merge_delta_batch, device, bm, r, s)
    _TIMES["decomposed"] = time.perf_counter() - t0
    _TIMES["delta"] = delta


def test_full_recompute_delta(benchmark, setup):
    _device, _bm, dense, r, s = setup
    import time

    base = data_log_posterior_dense(dense)

    def full():
        out = np.empty(len(r))
        for i in range(len(r)):
            after = dense.copy()
            after.apply_merge(int(r[i]), int(s[i]))
            out[i] = -(data_log_posterior_dense(after) - base)
        return out

    t0 = time.perf_counter()
    full_delta = pedantic_once(benchmark, full)
    _TIMES["full"] = time.perf_counter() - t0
    _TIMES["full_delta"] = full_delta


def test_zzz_agreement_and_speedup(benchmark, capsys):
    assert "delta" in _TIMES and "full_delta" in _TIMES
    np.testing.assert_allclose(
        _TIMES["delta"], _TIMES["full_delta"], atol=1e-6
    )
    speedup = pedantic_once(
        benchmark, lambda: _TIMES["full"] / _TIMES["decomposed"]
    )
    write_bench_record(
        "ablation_delta",
        [
            ablation_workload(
                f"delta_mdl/low_low/1000#{variant}",
                runtime_s=[_TIMES[key]],
                algorithm="microbench", category="low_low",
                num_vertices=1_000, variant=variant,
            )
            for variant, key in (
                ("decomposed", "decomposed"), ("full_recompute", "full"),
            )
        ],
        label="delta_mdl_decomposition_vs_full_recompute",
        extras={"decomposed_speedup": speedup,
                "merge_candidates": _B * (_B - 1)},
    )
    with capsys.disabled():
        print(f"\n\n### Ablation: ΔMDL decomposition vs full recompute — "
              f"{speedup:.1f}x faster for {_B * (_B - 1)} merge candidates "
              f"({_TIMES['decomposed']:.3f}s vs {_TIMES['full']:.3f}s)")
    assert speedup > 1.0
