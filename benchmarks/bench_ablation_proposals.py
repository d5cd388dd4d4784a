"""Ablation — lookup-table proposal generation vs on-demand sampling.

GSAP's Fig. 4 design pre-generates all random inputs in three batched
tables; the ablated variant draws per proposal, the way a naive port
would.  Expected: the table path wins by a growing factor with the
number of proposal slots.
"""

import numpy as np
import pytest

from _bench_utils import ablation_workload, pedantic_once, write_bench_record
from repro.blockmodel.update import rebuild_blockmodel
from repro.core.proposals import propose_block_merges
from repro.graph.csr import combined_adjacency
from repro.graph.datasets import load_dataset
from repro.gpusim.device import A4000, Device


def on_demand_proposals(bm, rng, num_proposals):
    """The ablated per-proposal sampling loop (no lookup tables)."""
    b = bm.num_blocks
    ptr, nbr, wgt = combined_adjacency(
        (bm.out_ptr, bm.out_nbr, bm.out_wgt), (bm.in_ptr, bm.in_nbr, bm.in_wgt)
    )
    deg = bm.deg_total()
    out = np.empty(b * num_proposals, dtype=np.int64)
    slot = 0
    for _ in range(num_proposals):
        for block in range(b):
            lo, hi = ptr[block], ptr[block + 1]
            row_w = wgt[lo:hi]
            total = row_w.sum()
            if total <= 0:
                out[slot] = rng.integers(b)
            else:
                u = int(nbr[lo + np.searchsorted(
                    np.cumsum(row_w), rng.random() * total, side="right"
                )])
                if rng.random() <= b / (deg[u] + b):
                    out[slot] = rng.integers(b)
                else:
                    ulo, uhi = ptr[u], ptr[u + 1]
                    uw = wgt[ulo:uhi]
                    ut = uw.sum()
                    if ut <= 0:
                        out[slot] = rng.integers(b)
                    else:
                        out[slot] = int(nbr[ulo + np.searchsorted(
                            np.cumsum(uw), rng.random() * ut, side="right"
                        )])
            slot += 1
    return out


@pytest.fixture(scope="module")
def blockmodel():
    graph, _ = load_dataset("low_low", 1_000)
    device = Device(A4000)
    rng = np.random.default_rng(0)
    b = 200
    bmap = rng.integers(0, b, graph.num_vertices).astype(np.int64)
    bmap[:b] = np.arange(b)
    return rebuild_blockmodel(device, graph, bmap, b)


_TIMES = {}


def test_lookup_table_proposals(benchmark, blockmodel):
    device = Device(A4000)
    rng = np.random.default_rng(1)
    import time

    t0 = time.perf_counter()
    batch = pedantic_once(
        benchmark, propose_block_merges, device, blockmodel, rng, 10
    )
    _TIMES["table"] = time.perf_counter() - t0
    assert len(batch.proposals) == blockmodel.num_blocks * 10


def test_on_demand_proposals(benchmark, blockmodel):
    rng = np.random.default_rng(1)
    import time

    t0 = time.perf_counter()
    out = pedantic_once(benchmark, on_demand_proposals, blockmodel, rng, 10)
    _TIMES["on_demand"] = time.perf_counter() - t0
    assert len(out) == blockmodel.num_blocks * 10


def test_zzz_table_path_wins(benchmark, capsys):
    assert set(_TIMES) == {"table", "on_demand"}
    speedup = pedantic_once(
        benchmark, lambda: _TIMES["on_demand"] / _TIMES["table"]
    )
    write_bench_record(
        "ablation_proposals",
        [
            ablation_workload(
                f"proposals/low_low/1000#{variant}",
                runtime_s=[_TIMES[variant]],
                algorithm="microbench", category="low_low",
                num_vertices=1_000, variant=variant,
            )
            for variant in ("table", "on_demand")
        ],
        label="lookup_table_vs_on_demand_proposals",
        extras={"table_speedup": speedup},
    )
    with capsys.disabled():
        print(f"\n\n### Ablation: lookup tables vs on-demand sampling — "
              f"{speedup:.1f}x faster with tables "
              f"({_TIMES['table']*1e3:.1f} ms vs {_TIMES['on_demand']*1e3:.1f} ms)")
    assert speedup > 1.0
