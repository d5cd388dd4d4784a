"""Ablation — sparse incremental maintenance vs per-batch Algorithm-2 rebuilds.

One GSAP run on the 2K-vertex quick-scale Low-Low graph records every
accepted vertex-move batch (post-move assignment, movers, old and new
blocks).  The batches are then replayed ``_PAIRS`` times two ways, in
pairs that alternate which variant goes first (so warm-up and drift
fall on both sides): through ``IncrementalBlockmodel.apply_batch`` and
through a from-scratch ``rebuild_blockmodel``.  Consecutive batches of
one vertex-move phase form an episode; each episode starts from a
rebuild of its entry assignment, outside the timed region.  Every
replayed blockmodel must be byte-identical across the two variants
(the maintainer's exactness contract), and the incremental variant's
median replay time must be strictly lower — the CI perf-smoke gate.
Per-replay maintenance wall seconds and simulated device seconds, plus
their quartiles, are written to ``BENCH_incremental.json`` at the
repository root.
"""

import hashlib
import time

import numpy as np
import pytest

from _bench_utils import ablation_workload, pedantic_once, write_bench_record
from repro.blockmodel.incremental import IncrementalBlockmodel
from repro.blockmodel.update import rebuild_blockmodel
from repro.config import SBPConfig
from repro.core.partitioner import GSAPPartitioner
from repro.graph.datasets import load_dataset
from repro.gpusim.device import A4000, Device

_SIZE = 2_000
_SEED = 7
_CATEGORY = "low_low"
_PAIRS = 5
_VARIANTS = ("incremental", "rebuild")
#: variant -> one (wall_s, sim_s, per-batch digests) per replay
_RESULTS = {variant: [] for variant in _VARIANTS}
_ARRAYS = ("out_ptr", "out_nbr", "out_wgt", "in_ptr", "in_nbr", "in_wgt",
           "deg_out", "deg_in")


@pytest.fixture(scope="module")
def graph():
    return load_dataset(_CATEGORY, _SIZE)[0]


@pytest.fixture(scope="module")
def episodes(graph):
    """The run's accepted batches, grouped by vertex-move phase.

    Each episode is ``(entry_bmap, num_blocks, batches)`` with one
    ``(bmap, movers, old, new)`` per accepted batch, ``bmap`` being the
    post-move assignment.
    """
    recorded = []
    apply_batch = IncrementalBlockmodel.apply_batch

    def recording(self, bmap, movers, old, new, phase=None):
        recorded.append((self.blockmodel.num_blocks, bmap.copy(),
                         movers.copy(), old.copy(), new.copy()))
        return apply_batch(self, bmap, movers, old, new, phase)

    IncrementalBlockmodel.apply_batch = recording
    try:
        GSAPPartitioner(
            SBPConfig(seed=_SEED), device=Device(A4000)
        ).partition(graph)
    finally:
        IncrementalBlockmodel.apply_batch = apply_batch

    out, last = [], None
    for num_blocks, bmap, movers, old, new in recorded:
        entry = bmap.copy()
        entry[movers] = old
        if last is None or last[1] != num_blocks or not np.array_equal(
            last[0], entry
        ):
            out.append((entry, num_blocks, []))
        out[-1][2].append((bmap, movers, old, new))
        last = (bmap, num_blocks)
    return out


def _digest(bm):
    h = hashlib.sha256(str(bm.num_blocks).encode())
    for name in _ARRAYS:
        array = getattr(bm, name)
        h.update(array.dtype.str.encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _replay(graph, episodes, variant):
    """Replay every batch through *variant*; time only the maintenance."""
    device, setup = Device(A4000), Device(A4000)
    wall = sim = 0.0
    digests = []
    for entry, num_blocks, batches in episodes:
        inc = None
        if variant == "incremental":
            inc = IncrementalBlockmodel(device, graph)
            inc.reset(rebuild_blockmodel(setup, graph, entry, num_blocks))
        for bmap, movers, old, new in batches:
            sim0, t0 = device.sim_time_s, time.perf_counter()
            if inc is not None:
                bm = inc.apply_batch(bmap, movers, old, new, "vertex_move")
            else:
                bm = rebuild_blockmodel(
                    device, graph, bmap, num_blocks, "vertex_move"
                )
            wall += time.perf_counter() - t0
            sim += device.sim_time_s - sim0
            digests.append(_digest(bm))
    return wall, sim, digests


def _alternating_pairs(graph, episodes):
    order = list(_VARIANTS)
    for _ in range(_PAIRS):
        for variant in order:
            _RESULTS[variant].append(_replay(graph, episodes, variant))
        order.reverse()


def _quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def test_alternating_pairs(benchmark, graph, episodes):
    pedantic_once(benchmark, _alternating_pairs, graph, episodes)


def test_zzz_identity_and_report(benchmark, episodes, capsys):
    assert all(len(_RESULTS[v]) == _PAIRS for v in _VARIANTS)
    num_batches = sum(len(batches) for _, _, batches in episodes)
    assert num_batches > 0
    # exactness: every replayed blockmodel, in every replay of either
    # variant, is the same bytes
    reference = _RESULTS["rebuild"][0][2]
    assert len(reference) == num_batches
    for variant in _VARIANTS:
        for _, _, digests in _RESULTS[variant]:
            assert digests == reference

    wall = {v: [r[0] for r in _RESULTS[v]] for v in _VARIANTS}
    sim = {v: [r[1] for r in _RESULTS[v]] for v in _VARIANTS}
    stats = {v: _quartiles(wall[v]) for v in _VARIANTS}
    inc_s = stats["incremental"]["median"]
    full_s = stats["rebuild"]["median"]
    ratio = pedantic_once(benchmark, lambda: full_s / inc_s)
    wins = sum(i < f for i, f in zip(wall["incremental"], wall["rebuild"]))

    workloads = [
        ablation_workload(
            f"GSAP/{_CATEGORY}/{_SIZE}#{variant}",
            runtime_s=wall[variant],
            sim_time_s=sim[variant],
            category=_CATEGORY, num_vertices=_SIZE, variant=variant,
        )
        for variant in _VARIANTS
    ]
    out = write_bench_record(
        "incremental", workloads, seed=_SEED, repeats=_PAIRS,
        label="incremental_blockmodel_maintenance",
        extras={
            "pairs": _PAIRS,
            "episodes": len(episodes),
            "batches": num_batches,
            "maintenance_s": stats,
            "sim_s": {v: float(np.median(sim[v])) for v in _VARIANTS},
            "incremental_faster_pairs": wins,
            "speedup": ratio,
            "blockmodels_identical": True,
        },
        filename="BENCH_incremental.json",
    )

    inc, full = stats["incremental"], stats["rebuild"]
    with capsys.disabled():
        print(f"\n\n### Ablation: incremental maintenance vs per-batch "
              f"rebuild ({_CATEGORY} V={_SIZE}, {num_batches} accepted "
              f"batches in {len(episodes)} episodes, {_PAIRS} pairs) — "
              f"replay median {inc['median'] * 1e3:.0f} ms "
              f"(IQR {inc['q1'] * 1e3:.0f}–{inc['q3'] * 1e3:.0f}) vs "
              f"{full['median'] * 1e3:.0f} ms "
              f"(IQR {full['q1'] * 1e3:.0f}–{full['q3'] * 1e3:.0f}), "
              f"{ratio:.2f}x, incremental faster in {wins}/{_PAIRS} "
              f"pairs; every blockmodel byte-identical; wrote {out.name}")
    # CI perf-smoke gate: the incremental path must win outright
    assert ratio > 1.0
