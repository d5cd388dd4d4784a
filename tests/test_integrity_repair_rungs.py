"""The repair ladder's host rungs rebuild through the auditor's reference.

``dense_rebuild`` and ``checkpoint_restore`` run only when the targeted
Algorithm-2 rebuild fails its re-audit.  Both rebuild the blockmodel on
the host with :func:`repro.integrity.auditor.reference_blockmodel` (a
sparse sort-reduce), so neither allocates a dense ``B × B`` matrix.  The
tests below break the rungs beneath the one under test and check that it
repairs to the reference model.
"""

import numpy as np
import pytest

from repro import FaultPlan, FaultSpec, IntegrityConfig, install_fault_injector
from repro.gpusim.device import A4000, Device
from repro.graph.datasets import load_dataset
from repro.integrity import IntegrityManager, audit_blockmodel, reference_blockmodel
from repro.integrity import manager as manager_module
from repro.types import INDEX_DTYPE

pytestmark = pytest.mark.faults

_ARRAYS = ("out_ptr", "out_nbr", "out_wgt", "in_ptr", "in_nbr", "in_wgt",
           "deg_out", "deg_in")


def _broken(model):
    """A copy of *model* whose first out-weight is off by one."""
    out_wgt = model.out_wgt.copy()
    out_wgt[0] += 1
    return type(model)(
        num_blocks=model.num_blocks, out_ptr=model.out_ptr,
        out_nbr=model.out_nbr, out_wgt=out_wgt, in_ptr=model.in_ptr,
        in_nbr=model.in_nbr, in_wgt=model.in_wgt, deg_out=model.deg_out,
        deg_in=model.deg_in,
    )


@pytest.fixture
def corrupted_site(monkeypatch):
    """A manager whose next site sees a bitflip and whose targeted rung fails."""
    graph, truth = load_dataset("low_low", 80, seed=4)
    bmap = truth.astype(INDEX_DTYPE)
    num_blocks = int(bmap.max()) + 1
    device = Device(A4000)
    install_fault_injector(device, FaultPlan(faults=[
        FaultSpec(kind="bitflip", target="deg_out", at=1, index=0, bit=2),
    ]))
    real_rebuild = manager_module.rebuild_blockmodel
    monkeypatch.setattr(
        manager_module, "rebuild_blockmodel",
        lambda *a, **k: _broken(real_rebuild(*a, **k)),
    )
    model = reference_blockmodel(graph, bmap, num_blocks)

    def make(**kw):
        manager = IntegrityManager(
            IntegrityConfig(audit=True, audit_every=1, repair=True),
            device, graph, **kw,
        )
        manager.site(bmap, model, "vertex_move")  # clean commit
        return manager

    return graph, bmap, num_blocks, make, model


def _assert_reference(graph, bmap, num_blocks, repaired):
    expected = reference_blockmodel(graph, bmap, num_blocks)
    for name in _ARRAYS:
        assert np.array_equal(getattr(repaired, name), getattr(expected, name))
    assert audit_blockmodel(graph, bmap, repaired) == []


def test_dense_rebuild_rung_repairs_from_the_host_reference(corrupted_site):
    graph, bmap, num_blocks, make, model = corrupted_site
    manager = make()
    repaired = manager.site(bmap, model, "vertex_move")  # the flip fires
    assert manager.stats.repairs_by_rung == {"dense_rebuild": 1}
    _assert_reference(graph, bmap, num_blocks, repaired)


def test_checkpoint_restore_rung_repairs_from_the_host_reference(
    corrupted_site, monkeypatch
):
    graph, bmap, num_blocks, make, model = corrupted_site
    real_reference = manager_module.reference_blockmodel
    calls = []

    def reference_failing_once(*args):
        calls.append(args)
        built = real_reference(*args)
        return _broken(built) if len(calls) == 1 else built

    monkeypatch.setattr(
        manager_module, "reference_blockmodel", reference_failing_once
    )
    clean = bmap.copy()
    manager = make(restore_assignment=lambda: (clean.copy(), num_blocks))
    repaired = manager.site(bmap, model, "vertex_move")
    assert manager.stats.repairs_by_rung == {"checkpoint_restore": 1}
    assert len(calls) == 2  # the dense rung, then the restore
    _assert_reference(graph, bmap, num_blocks, repaired)
