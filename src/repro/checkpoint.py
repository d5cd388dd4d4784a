"""Saving and loading partitioning state: results and mid-run snapshots.

Two checkpoint kinds live here:

* **Result checkpoints** (:func:`save_result` / :func:`load_result`) —
  a finished :class:`~repro.core.result.PartitionResult` serialised to a
  directory as ``result.json`` (scalars, history, timings) plus
  ``partition.npy`` (the block-id array).  Round-tripping is exact.

* **Run checkpoints** (:func:`save_run_checkpoint` /
  :func:`load_run_checkpoint`) — the full mid-run state of a
  :class:`~repro.core.partitioner.GSAPPartitioner` at a golden-section
  plateau boundary: the three bracket snapshots, search history, RNG
  stream counters, accumulated timings, and degradation state.  A run
  killed between plateaus resumes from its latest checkpoint and — with
  the same seed — reaches the identical final partition.

Every write is crash-safe (:func:`repro.atomicio.atomic_write`: temp
file, fsync, :func:`os.replace`), with the JSON manifest committed
last, so a reader never observes a torn checkpoint.  Loads
validate ``format_version`` and raise
:class:`~repro.errors.CheckpointError` on mismatch or truncation.

Binary payloads (``partition.npy``, ``state-*.npz``) additionally carry
a SHA-256 content digest in their manifest; loads verify it and raise
:class:`~repro.errors.CheckpointCorruptError` naming the damaged file
instead of deserializing garbage (bit rot, torn copies, tampering).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .atomicio import atomic_write, atomic_write_text
from .core.result import PartitionResult
from .core.state import PartitionSnapshot, PhaseTimings, ProposalStats
from .errors import CheckpointCorruptError, CheckpointError
from .integrity.manager import IntegrityStats
from .resilience.retry import ResilienceStats
from .types import INDEX_DTYPE

PathLike = Union[str, os.PathLike]

#: result.json format: 2 adds the "resilience" block, 3 adds content
#: digests and the "integrity" block (1 and 2 are still readable).
_FORMAT_VERSION = 3
_COMPAT_VERSIONS = (1, 2, 3)

#: run.json (mid-run snapshot) format: 2 requires the state file's
#: content digest (1, written before that requirement, is still readable).
RUN_FORMAT_VERSION = 2
_RUN_COMPAT_VERSIONS = (1, 2)
_RUN_MANIFEST = "run.json"


def _read_json(path: Path, what: str) -> dict:
    if not path.exists():
        raise CheckpointError(f"no {what} under {path.parent}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{what} {path} is truncated or corrupt: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"{what} {path} does not hold a JSON object")
    return payload


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _verify_digests(
    directory: Path, payload: dict, what: str, required: Tuple[str, ...] = ()
) -> None:
    """Check every manifest-recorded content digest under *directory*.

    Old manifests (no ``content_digests`` key) pass silently — the
    digest is an integrity upgrade, not a compatibility break.  A file
    named in *required* (one the manifest's format always digests) must
    carry a digest: a manifest without it was tampered with.
    """
    digests = payload.get("content_digests")
    if not isinstance(digests, dict):
        digests = {}
    for name in required:
        if name not in digests:
            raise CheckpointCorruptError(
                f"{what} manifest under {directory} carries no content "
                f"digest for {name} — refusing to deserialize",
                path=str(directory / name),
            )
    for name, expected in digests.items():
        path = directory / str(name)
        if not path.exists():
            raise CheckpointError(f"{what} under {directory} lost {name}")
        actual = _file_sha256(path)
        if actual != str(expected):
            raise CheckpointCorruptError(
                f"{what} file {path} is corrupt: content digest "
                f"{actual[:16]}… does not match the manifest's "
                f"{str(expected)[:16]}… — refusing to deserialize",
                path=str(path),
            )


def _check_version(payload: dict, allowed, what: str) -> int:
    version = payload.get("format_version")
    if version not in allowed:
        raise CheckpointError(
            f"unsupported {what} format version {version!r} "
            f"(expected one of {tuple(allowed)})"
        )
    return int(version)


# ----------------------------------------------------------------------
# result checkpoints
# ----------------------------------------------------------------------
def save_result(result: PartitionResult, directory: PathLike) -> Path:
    """Write *result* under *directory* (created if missing), crash-safely."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "format_version": _FORMAT_VERSION,
        "algorithm": result.algorithm,
        "num_blocks": result.num_blocks,
        "mdl": result.mdl,
        "history": [[int(b), float(s)] for b, s in result.history],
        "timings": {
            "block_merge_s": result.timings.block_merge_s,
            "vertex_move_s": result.timings.vertex_move_s,
            "golden_section_s": result.timings.golden_section_s,
            "blockmodel_update_s": result.timings.blockmodel_update_s,
        },
        "proposal_stats": {
            "merge_proposals": result.proposal_stats.merge_proposals,
            "merge_proposal_time_s": result.proposal_stats.merge_proposal_time_s,
            "move_proposals": result.proposal_stats.move_proposals,
            "move_proposal_time_s": result.proposal_stats.move_proposal_time_s,
        },
        "total_time_s": result.total_time_s,
        "sim_time_s": result.sim_time_s,
        "num_sweeps": result.num_sweeps,
        "converged": result.converged,
        "cancelled": result.cancelled,
        "resilience": result.resilience.to_dict(),
        "integrity": result.integrity.to_dict(),
    }
    # the partition lands first, the manifest last: a crash in between
    # leaves either the old consistent pair or a refreshed partition with
    # the old manifest — never a manifest pointing at missing data
    atomic_write(
        directory / "partition.npy", lambda h: np.save(h, result.partition)
    )
    payload["content_digests"] = {
        "partition.npy": _file_sha256(directory / "partition.npy")
    }
    atomic_write_text(directory / "result.json", json.dumps(payload, indent=2))
    return directory


def load_result(directory: PathLike) -> PartitionResult:
    """Load a result previously written by :func:`save_result`."""
    directory = Path(directory)
    json_path = directory / "result.json"
    npy_path = directory / "partition.npy"
    payload = _read_json(json_path, "saved result")
    version = _check_version(payload, _COMPAT_VERSIONS, "result")
    if not npy_path.exists():
        raise CheckpointError(f"saved result under {directory} lost partition.npy")
    _verify_digests(
        directory, payload, "saved result",
        required=("partition.npy",) if version >= 3 else (),
    )
    try:
        partition = np.load(npy_path).astype(INDEX_DTYPE)
        timings = PhaseTimings(**payload["timings"])
        stats = ProposalStats(**payload["proposal_stats"])
        resilience = ResilienceStats.from_dict(payload.get("resilience", {}))
        integrity = IntegrityStats.from_dict(payload.get("integrity", {}))
        return PartitionResult(
            partition=partition,
            num_blocks=int(payload["num_blocks"]),
            mdl=float(payload["mdl"]),
            history=[(int(b), float(s)) for b, s in payload["history"]],
            timings=timings,
            proposal_stats=stats,
            total_time_s=float(payload["total_time_s"]),
            sim_time_s=float(payload["sim_time_s"]),
            num_sweeps=int(payload["num_sweeps"]),
            converged=bool(payload["converged"]),
            cancelled=payload.get("cancelled"),
            algorithm=str(payload["algorithm"]),
            resilience=resilience,
            integrity=integrity,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"saved result under {directory} is incomplete: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# run checkpoints (mid-run snapshots)
# ----------------------------------------------------------------------
@dataclass
class RunCheckpoint:
    """Everything a :class:`GSAPPartitioner` needs to continue a run.

    Attributes
    ----------
    plateau:
        Golden-section plateaus completed so far; doubles as the next
        RNG stream index for the ``block_merge`` / ``vertex_move``
        per-plateau streams.
    snapshots:
        The three bracket entries of the golden-section search (entries
        may be ``None`` before the bracket is established).
    graph_fingerprint:
        ``{num_vertices, num_edges, total_edge_weight}`` of the graph the
        run was partitioning; resume refuses a different graph.
    degradation:
        ``{"batch_halvings": int, "dense_rebuild": bool}`` — the rung of
        the degradation ladder the run had reached.
    """

    plateau: int
    initial_mdl: float
    num_sweeps: int
    history: List[tuple]
    snapshots: List[Optional[PartitionSnapshot]]
    graph_fingerprint: Dict[str, int]
    config: Dict[str, object] = field(default_factory=dict)
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    proposal_stats: ProposalStats = field(default_factory=ProposalStats)
    resilience: ResilienceStats = field(default_factory=ResilienceStats)
    degradation: Dict[str, object] = field(
        default_factory=lambda: {"batch_halvings": 0, "dense_rebuild": False}
    )
    sim_time_s: float = 0.0
    algorithm: str = "GSAP"
    #: serialized :meth:`repro.obs.Observability.to_state` payload, so a
    #: resumed run keeps the spans/metrics captured before the kill.
    observability: Dict[str, object] = field(default_factory=dict)
    #: serialized :class:`~repro.integrity.IntegrityStats`, so a resumed
    #: run keeps counting audits/repairs from the pre-kill totals.
    integrity: Dict[str, object] = field(default_factory=dict)

    def best_snapshot(self) -> Optional[PartitionSnapshot]:
        """The bracket snapshot with the lowest MDL (``None`` if empty)."""
        candidates = [s for s in self.snapshots if s is not None]
        if not candidates:
            return None
        return min(candidates, key=lambda snap: snap.mdl)


def graph_fingerprint(graph) -> Dict[str, int]:
    """Identity triple used to match a checkpoint to its graph."""
    return {
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "total_edge_weight": int(graph.total_edge_weight),
    }


def save_run_checkpoint(state: RunCheckpoint, directory: PathLike) -> Path:
    """Atomically persist a mid-run snapshot under *directory*.

    The bracket bmaps land in ``state-<plateau>.npz`` first; the manifest
    ``run.json`` referencing that file is replaced last, so the latest
    *complete* checkpoint always wins.  Superseded state files are
    cleaned up opportunistically.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    state_name = f"state-{state.plateau:06d}.npz"
    arrays = {}
    snapshot_meta: List[Optional[dict]] = []
    for i, snap in enumerate(state.snapshots):
        if snap is None:
            snapshot_meta.append(None)
        else:
            snapshot_meta.append(
                {"num_blocks": int(snap.num_blocks), "mdl": float(snap.mdl)}
            )
            arrays[f"snap{i}"] = np.asarray(snap.bmap, dtype=INDEX_DTYPE)
    atomic_write(directory / state_name, lambda h: np.savez(h, **arrays))

    payload = {
        "content_digests": {
            state_name: _file_sha256(directory / state_name)
        },
        "format_version": RUN_FORMAT_VERSION,
        "kind": "gsap-run",
        "algorithm": state.algorithm,
        "state_file": state_name,
        "plateau": state.plateau,
        "initial_mdl": state.initial_mdl,
        "num_sweeps": state.num_sweeps,
        "history": [[int(b), float(s)] for b, s in state.history],
        "snapshots": snapshot_meta,
        "graph": dict(state.graph_fingerprint),
        "config": dict(state.config),
        "timings": {
            "block_merge_s": state.timings.block_merge_s,
            "vertex_move_s": state.timings.vertex_move_s,
            "golden_section_s": state.timings.golden_section_s,
            "blockmodel_update_s": state.timings.blockmodel_update_s,
        },
        "proposal_stats": {
            "merge_proposals": state.proposal_stats.merge_proposals,
            "merge_proposal_time_s": state.proposal_stats.merge_proposal_time_s,
            "move_proposals": state.proposal_stats.move_proposals,
            "move_proposal_time_s": state.proposal_stats.move_proposal_time_s,
        },
        "resilience": state.resilience.to_dict(),
        "degradation": dict(state.degradation),
        "sim_time_s": state.sim_time_s,
        "observability": dict(state.observability),
        "integrity": dict(state.integrity),
    }
    atomic_write_text(directory / _RUN_MANIFEST, json.dumps(payload, indent=2))

    for stale in directory.glob("state-*.npz"):
        if stale.name != state_name:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
    return directory


def load_run_checkpoint(directory: PathLike) -> RunCheckpoint:
    """Load the latest complete run checkpoint under *directory*."""
    directory = Path(directory)
    payload = _read_json(directory / _RUN_MANIFEST, "run checkpoint")
    version = _check_version(payload, _RUN_COMPAT_VERSIONS, "run checkpoint")
    if payload.get("kind") != "gsap-run":
        raise CheckpointError(
            f"{directory / _RUN_MANIFEST} is not a gsap-run checkpoint"
        )
    state_path = directory / str(payload.get("state_file", ""))
    if not state_path.exists():
        raise CheckpointError(
            f"run checkpoint under {directory} lost its state file "
            f"{payload.get('state_file')!r}"
        )
    _verify_digests(
        directory, payload, "run checkpoint",
        required=(state_path.name,) if version >= 2 else (),
    )
    try:
        with np.load(state_path) as bundle:
            snapshots: List[Optional[PartitionSnapshot]] = []
            for i, meta in enumerate(payload["snapshots"]):
                if meta is None:
                    snapshots.append(None)
                    continue
                key = f"snap{i}"
                if key not in bundle:
                    raise CheckpointError(
                        f"state file {state_path} is missing bracket array {key}"
                    )
                snapshots.append(
                    PartitionSnapshot(
                        num_blocks=int(meta["num_blocks"]),
                        mdl=float(meta["mdl"]),
                        bmap=bundle[key].astype(INDEX_DTYPE),
                    )
                )
        return RunCheckpoint(
            plateau=int(payload["plateau"]),
            initial_mdl=float(payload["initial_mdl"]),
            num_sweeps=int(payload["num_sweeps"]),
            history=[(int(b), float(s)) for b, s in payload["history"]],
            snapshots=snapshots,
            graph_fingerprint={
                k: int(v) for k, v in payload["graph"].items()
            },
            config=dict(payload.get("config", {})),
            timings=PhaseTimings(**payload["timings"]),
            proposal_stats=ProposalStats(**payload["proposal_stats"]),
            resilience=ResilienceStats.from_dict(payload.get("resilience", {})),
            degradation=dict(payload.get("degradation", {})),
            sim_time_s=float(payload.get("sim_time_s", 0.0)),
            algorithm=str(payload.get("algorithm", "GSAP")),
            observability=dict(payload.get("observability", {})),
            integrity=dict(payload.get("integrity", {})),
        )
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise CheckpointError(
            f"run checkpoint under {directory} is incomplete: {exc}"
        ) from exc


def has_run_checkpoint(directory: PathLike) -> bool:
    """True when *directory* holds a loadable run checkpoint manifest."""
    return (Path(directory) / _RUN_MANIFEST).exists()
