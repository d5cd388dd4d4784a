"""Silent-corruption defense tests (the integrity subsystem).

Covers the full threat model of ``docs/resilience.md``:

* content digests — :func:`~repro.gpusim.device.buffer_digest`, the
  CRC32 behind the integrity manager's shadow digests, sees a one-bit
  change;
* deterministic corruption injection — ``bitflip`` / ``value_corrupt``
  faults silently damage one element of one tagged structure;
* the blockmodel invariant auditor — every corruptible structure, when
  damaged, trips at least one invariant;
* the self-healing repair ladder — a corrupted run's final partition is
  **bit-identical** to the fault-free run's, the fault budget is
  charged, and the damage is visible in the integrity counters;
* determinism — auditing consumes no RNG, so audited and unaudited
  runs produce identical partitions;
* checkpoint content digests — a flipped byte in ``partition.npy`` or a
  ``state-*.npz`` surfaces as :class:`~repro.errors.CheckpointCorruptError`
  naming the damaged file, both from the library and ``--resume``;
* NaN/Inf guards — corrupt numerics raise
  :class:`~repro.errors.NumericalError` before the MH acceptance draw;
* the ``gsap verify`` subcommand — offline audit with a nonzero exit on
  violation.
"""

import numpy as np
import pytest

from repro import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    GSAPPartitioner,
    IntegrityConfig,
    RetryExhaustedError,
    SBPConfig,
    install_fault_injector,
    load_dataset,
    save_result,
)
from repro.checkpoint import load_result, load_run_checkpoint
from repro.cli import main as cli_main
from repro.core.golden_section import GoldenSectionSearch
from repro.core.mh import accept_moves
from repro.core.state import PartitionSnapshot
from repro.blockmodel.entropy import entropy_terms
from repro.errors import (
    CheckpointCorruptError,
    IntegrityError,
    NumericalError,
)
from repro.gpusim.device import A4000, Device, buffer_digest
from repro.graph.io import save_edge_list
from repro.integrity import (
    STRUCTURE_TAGS,
    IntegrityManager,
    audit_blockmodel,
    reference_blockmodel,
    structure_arrays,
)
from repro.resilience.faults import CORRUPTION_KINDS
from repro.resilience.retry import FaultBudget
from repro.types import INDEX_DTYPE

pytestmark = pytest.mark.faults


# ----------------------------------------------------------------------
# content digests
# ----------------------------------------------------------------------
class TestDeviceDigests:
    def test_buffer_digest_is_content_sensitive(self):
        a = np.arange(8, dtype=np.int64)
        b = a.copy()
        assert buffer_digest(a) == buffer_digest(b)
        b[0] ^= 1 << 40
        assert buffer_digest(a) != buffer_digest(b)


# ----------------------------------------------------------------------
# corruption fault kinds
# ----------------------------------------------------------------------
class TestCorruptionInjection:
    def test_corruption_kinds_registered(self):
        assert set(CORRUPTION_KINDS) == {"bitflip", "value_corrupt"}

    def test_spec_roundtrip(self):
        spec = FaultSpec(
            kind="bitflip", target="csr_out_wgt", at=3, index=7, bit=11
        )
        again = FaultSpec.from_dict(spec.to_dict())
        assert again == spec
        plan = FaultPlan.from_dict(FaultPlan(faults=[spec]).to_dict())
        assert plan.faults[0] == spec

    def test_bitflip_fires_at_planned_exposure(self):
        injector = FaultInjector(
            FaultPlan(faults=[
                FaultSpec(kind="bitflip", target="deg_out", at=2,
                          index=1, bit=4),
            ])
        )
        arr = np.array([3, 7, 9], dtype=np.int64)
        assert injector.on_corruptible("deg_out", arr) is False
        assert injector.on_corruptible("deg_out", arr) is False
        clean = arr.copy()
        assert injector.on_corruptible("deg_out", arr) is True
        changed = np.flatnonzero(arr != clean)
        assert list(changed) == [1]
        assert arr[1] == clean[1] ^ (1 << 4)

    def test_value_corrupt_overwrites_element(self):
        injector = FaultInjector(
            FaultPlan(faults=[
                FaultSpec(kind="value_corrupt", target="bmap",
                          index=5, value=-3.0),
            ])
        )
        arr = np.arange(10, dtype=INDEX_DTYPE)
        assert injector.on_corruptible("bmap", arr) is True
        assert arr[5] == -3

    def test_target_filter(self):
        injector = FaultInjector(
            FaultPlan(faults=[
                FaultSpec(kind="bitflip", target="deg_out", index=0, bit=0),
            ])
        )
        arr = np.ones(4, dtype=np.int64)
        assert injector.on_corruptible("deg_in", arr) is False
        assert np.array_equal(arr, np.ones(4, dtype=np.int64))
        assert injector.on_corruptible("deg_out", arr) is True

    def test_index_wraps_modulo_length(self):
        injector = FaultInjector(
            FaultPlan(faults=[
                FaultSpec(kind="bitflip", target="deg_out", index=10, bit=0),
            ])
        )
        arr = np.zeros(3, dtype=np.int64)
        assert injector.on_corruptible("deg_out", arr) is True
        assert arr[10 % 3] == 1

    def test_corruption_recorded_in_log(self):
        injector = FaultInjector(
            FaultPlan(faults=[
                FaultSpec(kind="bitflip", target="bmap", index=0, bit=0),
            ])
        )
        injector.on_corruptible("bmap", np.zeros(2, dtype=np.int64))
        assert any("bmap" in entry for entry in
                   (str(e) for e in injector.log))


# ----------------------------------------------------------------------
# the invariant auditor
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def audit_graph():
    graph, truth = load_dataset("low_low", 80, seed=4)
    return graph, truth.astype(INDEX_DTYPE)


class TestAuditor:
    def _fresh(self, audit_graph):
        graph, truth = audit_graph
        num_blocks = int(truth.max()) + 1
        return graph, truth.copy(), reference_blockmodel(
            graph, truth, num_blocks
        )

    def test_clean_model_passes(self, audit_graph):
        graph, bmap, model = self._fresh(audit_graph)
        assert audit_blockmodel(graph, bmap, model) == []

    def test_structure_arrays_cover_all_tags(self, audit_graph):
        graph, bmap, model = self._fresh(audit_graph)
        assert set(structure_arrays(bmap, model)) == set(STRUCTURE_TAGS)

    @pytest.mark.parametrize("tag", STRUCTURE_TAGS)
    def test_every_structure_is_audited(self, audit_graph, tag):
        graph, bmap, model = self._fresh(audit_graph)
        arrays = structure_arrays(bmap, model)
        target = arrays[tag]
        assert target.size, f"structure {tag} unexpectedly empty"
        target[len(target) // 2] ^= 1 << 3
        violations = audit_blockmodel(graph, bmap, model)
        assert violations, f"corruption of {tag} went undetected"

    def test_mdl_drift_detected(self, audit_graph):
        graph, bmap, model = self._fresh(audit_graph)
        clean = audit_blockmodel(graph, bmap, model, tracked_mdl=None)
        assert clean == []
        violations = audit_blockmodel(
            graph, bmap, model, tracked_mdl=12345.0
        )
        assert any(v.invariant == "mdl_drift" for v in violations)

    def test_assignment_out_of_range_detected(self, audit_graph):
        graph, bmap, model = self._fresh(audit_graph)
        bmap[0] = model.num_blocks + 7
        violations = audit_blockmodel(graph, bmap, model)
        assert any(v.invariant == "assignment_range" for v in violations)

    def test_reference_matches_device_rebuild(self, audit_graph, device):
        from repro.blockmodel.update import rebuild_blockmodel

        graph, bmap, model = self._fresh(audit_graph)
        rebuilt = rebuild_blockmodel(device, graph, bmap, model.num_blocks)
        for name in ("out_ptr", "out_nbr", "out_wgt", "in_ptr", "in_nbr",
                     "in_wgt", "deg_out", "deg_in"):
            assert np.array_equal(
                getattr(model, name), getattr(rebuilt, name)
            ), name


# ----------------------------------------------------------------------
# the integrity manager (unit level)
# ----------------------------------------------------------------------
class TestIntegrityManager:
    def _setup(self, audit_graph, config, plan=None, **kw):
        graph, truth = audit_graph
        device = Device(A4000)
        if plan is not None:
            install_fault_injector(device, plan)
        manager = IntegrityManager(config, device, graph, **kw)
        bmap = truth.copy()
        model = reference_blockmodel(graph, bmap, int(truth.max()) + 1)
        return manager, bmap, model

    def test_noop_without_audit_or_injector(self, audit_graph):
        manager, bmap, model = self._setup(audit_graph, IntegrityConfig())
        assert manager.site(bmap, model, "vertex_move") is model
        assert manager.stats.audits == 0

    def test_detect_and_repair_in_one_interval(self, audit_graph):
        plan = FaultPlan(faults=[
            FaultSpec(kind="bitflip", target="deg_out", at=1, index=0, bit=2),
        ])
        manager, bmap, model = self._setup(
            audit_graph,
            IntegrityConfig(audit=True, audit_every=1, repair=True),
            plan,
        )
        model = manager.site(bmap, model, "vertex_move")
        assert manager.stats.corruptions_detected == 0
        model = manager.site(bmap, model, "vertex_move")  # fault fires here
        assert manager.stats.corruptions_detected == 1
        assert manager.stats.repairs == 1
        assert manager.stats.repairs_by_rung.get("targeted_rebuild") == 1
        # the repaired model passes a fresh audit
        graph, _ = audit_graph
        assert audit_blockmodel(graph, bmap, model) == []

    def test_detect_without_repair_raises(self, audit_graph):
        plan = FaultPlan(faults=[
            FaultSpec(kind="bitflip", target="csr_out_wgt", index=1, bit=0),
        ])
        manager, bmap, model = self._setup(
            audit_graph,
            IntegrityConfig(audit=True, audit_every=1, repair=False),
            plan,
        )
        with pytest.raises(IntegrityError) as excinfo:
            manager.site(bmap, model, "block_merge")
        assert excinfo.value.violations
        assert manager.stats.corruptions_detected == 1
        assert manager.stats.repairs == 0

    def test_corruption_charges_fault_budget(self, audit_graph):
        plan = FaultPlan(faults=[
            FaultSpec(kind="bitflip", target="deg_in", index=0, bit=1),
        ])
        manager, bmap, model = self._setup(
            audit_graph,
            IntegrityConfig(audit=True, audit_every=1, repair=True),
            plan,
            budget=FaultBudget(0),
        )
        with pytest.raises(RetryExhaustedError):
            manager.site(bmap, model, "vertex_move")

    def test_bmap_corruption_restored_from_shadow(self, audit_graph):
        plan = FaultPlan(faults=[
            FaultSpec(kind="value_corrupt", target="bmap", index=3,
                      value=-1.0),
        ])
        manager, bmap, model = self._setup(
            audit_graph,
            IntegrityConfig(audit=True, audit_every=1, repair=True),
            plan,
        )
        clean = bmap.copy()
        model = manager.site(bmap, model, "vertex_move")
        assert manager.stats.repairs == 1
        assert np.array_equal(bmap, clean)  # assignment healed in place

    def test_audit_cadence(self, audit_graph):
        manager, bmap, model = self._setup(
            audit_graph, IntegrityConfig(audit=True, audit_every=3)
        )
        for _ in range(6):
            model = manager.site(bmap, model, "vertex_move")
        assert manager.stats.audits == 2

    def test_stats_roundtrip(self):
        from repro.integrity import IntegrityStats

        stats = IntegrityStats(
            audits=5, corruptions_detected=2, repairs=1,
            repairs_by_rung={"dense_rebuild": 1}, violations=["x"],
        )
        assert IntegrityStats.from_dict(stats.to_dict()) == stats


# ----------------------------------------------------------------------
# full-run corruption matrix
# ----------------------------------------------------------------------
GRAPH_ARGS = ("low_low", 120)
BASE_KW = dict(
    max_num_nodal_itr=10,
    delta_entropy_threshold1=5e-3,
    delta_entropy_threshold2=1e-3,
    seed=9,
)


def _config(**integrity_kw) -> SBPConfig:
    config = SBPConfig(**BASE_KW)
    if integrity_kw:
        config = config.replace(
            integrity=config.integrity.replace(**integrity_kw)
        )
    return config


@pytest.fixture(scope="module")
def matrix_graph():
    graph, _ = load_dataset(*GRAPH_ARGS, seed=1)
    return graph


@pytest.fixture(scope="module")
def baseline(matrix_graph):
    """Fault-free, audit-free reference run."""
    return GSAPPartitioner(_config(), device=Device(A4000)).partition(
        matrix_graph
    )


class TestCorruptionMatrix:
    # one bitflip site per corruptible structure class of the issue:
    # CSR values, CSR row index, block degrees, the assignment itself.
    MATRIX = [
        ("csr_out_wgt", 7, 3, 2),
        ("csr_out_ptr", 11, 1, 4),
        ("deg_out", 23, 0, 5),
        ("bmap", 40, 2, 1),
    ]

    @pytest.mark.parametrize(
        "target,at,index,bit", MATRIX,
        ids=[row[0] for row in MATRIX],
    )
    def test_bitflip_detected_and_healed(
        self, matrix_graph, baseline, target, at, index, bit
    ):
        device = Device(A4000)
        install_fault_injector(device, FaultPlan(faults=[
            FaultSpec(kind="bitflip", target=target, at=at,
                      index=index, bit=bit),
        ]))
        result = GSAPPartitioner(
            _config(audit=True, audit_every=1, repair=True), device=device
        ).partition(matrix_graph)
        # detection within one audit interval, repair, budget charge —
        # and a final partition byte-identical to the fault-free run.
        assert result.integrity.corruptions_detected >= 1
        assert result.integrity.repairs >= 1
        assert result.resilience.faults_absorbed >= 1
        assert result.resilience.faults_by_kind.get("IntegrityError", 0) >= 1
        assert np.array_equal(result.partition, baseline.partition)
        assert result.num_blocks == baseline.num_blocks
        assert result.mdl == baseline.mdl

    def test_value_corrupt_detected_and_healed(self, matrix_graph, baseline):
        device = Device(A4000)
        install_fault_injector(device, FaultPlan(faults=[
            FaultSpec(kind="value_corrupt", target="csr_in_wgt", at=15,
                      index=3, value=7777.0),
        ]))
        result = GSAPPartitioner(
            _config(audit=True, audit_every=1, repair=True), device=device
        ).partition(matrix_graph)
        assert result.integrity.corruptions_detected >= 1
        assert result.integrity.repairs >= 1
        assert np.array_equal(result.partition, baseline.partition)

    def test_unrepaired_corruption_fails_loud(self, matrix_graph):
        device = Device(A4000)
        install_fault_injector(device, FaultPlan(faults=[
            FaultSpec(kind="bitflip", target="csr_out_wgt", at=7,
                      index=2, bit=3),
        ]))
        with pytest.raises(IntegrityError):
            GSAPPartitioner(
                _config(audit=True, audit_every=1, repair=False),
                device=device,
            ).partition(matrix_graph)

    def test_exhausted_budget_stops_the_run(self, matrix_graph):
        config = _config(audit=True, audit_every=1, repair=True)
        config = config.replace(
            resilience=config.resilience.replace(fault_budget=0)
        )
        device = Device(A4000)
        install_fault_injector(device, FaultPlan(faults=[
            FaultSpec(kind="bitflip", target="deg_out", at=5,
                      index=0, bit=2),
        ]))
        with pytest.raises(RetryExhaustedError):
            GSAPPartitioner(config, device=device).partition(matrix_graph)


class TestDeterminism:
    def test_audit_consumes_no_rng(self, matrix_graph, baseline):
        """Audited and unaudited runs must be bit-identical."""
        audited = GSAPPartitioner(
            _config(audit=True, audit_every=1, repair=True),
            device=Device(A4000),
        ).partition(matrix_graph)
        assert audited.integrity.audits > 0
        assert audited.integrity.corruptions_detected == 0
        assert np.array_equal(audited.partition, baseline.partition)
        assert audited.mdl == baseline.mdl
        assert audited.history == baseline.history

    def test_sparser_cadence_still_deterministic(self, matrix_graph, baseline):
        audited = GSAPPartitioner(
            _config(audit=True, audit_every=5), device=Device(A4000)
        ).partition(matrix_graph)
        assert 0 < audited.integrity.audits < baseline.partition.size
        assert np.array_equal(audited.partition, baseline.partition)


# ----------------------------------------------------------------------
# NaN/Inf guards on the numeric kernels
# ----------------------------------------------------------------------
class TestNumericalGuards:
    def test_entropy_rejects_negative_counts(self):
        with pytest.raises(NumericalError):
            entropy_terms(
                np.array([-2.0]), np.array([4.0]), np.array([4.0])
            )

    def test_entropy_rejects_nonfinite(self):
        with pytest.raises(NumericalError):
            entropy_terms(
                np.array([np.inf]), np.array([4.0]), np.array([4.0])
            )
        with pytest.raises(NumericalError):
            entropy_terms(
                np.array([2.0]), np.array([np.nan]), np.array([4.0])
            )

    @pytest.mark.parametrize("bad", [-np.inf, np.nan])
    def test_entropy_rejects_nonfinite_weights(self, bad):
        with pytest.raises(NumericalError, match="weights"):
            entropy_terms(
                np.array([1.0, bad, 2.0]), np.full(3, 4.0), np.full(3, 4.0)
            )

    @pytest.mark.parametrize("which", ["d_src", "d_dst"])
    def test_entropy_rejects_negative_degree(self, which):
        degrees = {"d_src": np.full(2, 4.0), "d_dst": np.full(2, 4.0)}
        degrees[which] = np.array([4.0, -1.0])
        with pytest.raises(NumericalError, match=which):
            entropy_terms(np.array([1.0, 0.0]), **degrees)

    def test_entropy_zero_weight_with_zero_degree_is_zero(self):
        out = entropy_terms(
            np.array([0.0, 2.0]), np.array([0.0, 4.0]), np.array([0.0, 4.0])
        )
        assert out[0] == 0.0 and np.isfinite(out).all()

    def test_entropy_positive_weight_on_zero_degree_raises(self):
        with pytest.raises(NumericalError, match="non-finite entropy term"):
            entropy_terms(np.array([2.0]), np.array([0.0]), np.array([4.0]))

    def test_entropy_empty_inputs(self):
        out = entropy_terms(np.array([]), np.array([]), np.array([]))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_accept_moves_guards_before_rng_draw(self, device, rng):
        state = rng.bit_generator.state
        with pytest.raises(NumericalError):
            accept_moves(
                device, np.array([np.nan, 0.0]), np.array([1.0, 1.0]),
                beta=3.0, rng=rng,
            )
        # the guard fired before any random number was consumed
        assert rng.bit_generator.state == state
        with pytest.raises(NumericalError):
            accept_moves(
                device, np.array([0.0]), np.array([np.inf]),
                beta=3.0, rng=rng,
            )

    def test_golden_section_rejects_nonfinite_mdl(self):
        search = GoldenSectionSearch(reduction_rate=0.5)
        snapshot = PartitionSnapshot(
            num_blocks=4, mdl=float("nan"),
            bmap=np.zeros(4, dtype=INDEX_DTYPE),
        )
        with pytest.raises(NumericalError):
            search.update(snapshot)
        assert search.history == []


# ----------------------------------------------------------------------
# checkpoint content digests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_run(matrix_graph):
    result = GSAPPartitioner(_config(), device=Device(A4000)).partition(
        matrix_graph
    )
    return matrix_graph, result


class TestCheckpointDigests:
    def test_result_roundtrip_verifies(self, small_run, tmp_path):
        _, result = small_run
        save_result(result, tmp_path)
        loaded = load_result(tmp_path)
        assert np.array_equal(loaded.partition, result.partition)
        assert loaded.integrity.audits == result.integrity.audits

    def test_corrupt_partition_file_detected(self, small_run, tmp_path):
        _, result = small_run
        save_result(result, tmp_path)
        target = tmp_path / "partition.npy"
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0x04
        target.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError) as excinfo:
            load_result(tmp_path)
        assert "partition.npy" in str(excinfo.value)
        assert excinfo.value.path == str(target)

    def test_corrupt_run_state_detected(self, matrix_graph, tmp_path):
        GSAPPartitioner(_config(), device=Device(A4000)).partition(
            matrix_graph, checkpoint_dir=tmp_path
        )
        states = sorted(tmp_path.glob("state-*.npz"))
        assert states
        raw = bytearray(states[-1].read_bytes())
        raw[len(raw) // 2] ^= 0x80
        states[-1].write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError) as excinfo:
            load_run_checkpoint(tmp_path)
        assert states[-1].name in str(excinfo.value)

    def test_resume_surfaces_corruption_via_cli(
        self, matrix_graph, tmp_path, capsys
    ):
        edges = tmp_path / "edges.tsv"
        save_edge_list(matrix_graph, edges)
        ckdir = tmp_path / "ck"
        GSAPPartitioner(_config(), device=Device(A4000)).partition(
            matrix_graph, checkpoint_dir=ckdir
        )
        state = sorted(ckdir.glob("state-*.npz"))[-1]
        raw = bytearray(state.read_bytes())
        raw[len(raw) // 2] ^= 0x80
        state.write_bytes(bytes(raw))
        code = cli_main([
            "partition", str(edges), "--seed", "9",
            "--resume", str(ckdir),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "checkpoint corrupt" in captured.err
        assert state.name in captured.err


# ----------------------------------------------------------------------
# the `gsap verify` subcommand
# ----------------------------------------------------------------------
class TestVerifyCommand:
    def test_clean_result_passes(self, small_run, tmp_path, capsys):
        graph, result = small_run
        save_result(result, tmp_path / "res")
        edges = tmp_path / "edges.tsv"
        save_edge_list(graph, edges)
        code = cli_main([
            "verify", str(tmp_path / "res"), "--edges", str(edges),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "all invariants hold" in captured.out

    def test_digest_only_mode(self, small_run, tmp_path, capsys):
        _, result = small_run
        save_result(result, tmp_path)
        assert cli_main(["verify", str(tmp_path)]) == 0
        assert "digests verified" in capsys.readouterr().out

    def test_corrupt_result_fails_nonzero(self, small_run, tmp_path, capsys):
        _, result = small_run
        save_result(result, tmp_path)
        target = tmp_path / "partition.npy"
        raw = bytearray(target.read_bytes())
        raw[-2] ^= 0x01
        target.write_bytes(bytes(raw))
        code = cli_main(["verify", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "CORRUPT" in captured.err

    def test_tampered_manifest_mdl_fails_audit(
        self, small_run, tmp_path, capsys
    ):
        import json

        graph, result = small_run
        save_result(result, tmp_path / "res")
        edges = tmp_path / "edges.tsv"
        save_edge_list(graph, edges)
        manifest = tmp_path / "res" / "result.json"
        payload = json.loads(manifest.read_text())
        payload["mdl"] = payload["mdl"] + 100.0  # undetectable by digests
        manifest.write_text(json.dumps(payload))
        code = cli_main([
            "verify", str(tmp_path / "res"), "--edges", str(edges),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "mdl_drift" in captured.err

    def test_run_checkpoint_verifies(self, matrix_graph, tmp_path, capsys):
        GSAPPartitioner(_config(), device=Device(A4000)).partition(
            matrix_graph, checkpoint_dir=tmp_path
        )
        edges = tmp_path / "edges.tsv"
        save_edge_list(matrix_graph, edges)
        code = cli_main(["verify", str(tmp_path), "--edges", str(edges)])
        captured = capsys.readouterr()
        assert code == 0
        assert "run checkpoint" in captured.out

    def test_missing_artifacts_report_cleanly(self, tmp_path, capsys):
        assert cli_main(["verify", str(tmp_path)]) == 2
        assert "neither" in capsys.readouterr().err
