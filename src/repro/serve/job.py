"""Job model of the partitioning service: specs, outcomes, parking.

A :class:`JobSpec` is one accepted partition request.  Its terminal
state is a :class:`JobOutcome` — *every* accepted job resolves to
exactly one outcome; the server's accounting invariant ("no accepted
job is ever silently lost") is checkable by summing outcome statuses
against accepted submissions.

Jobs that were accepted but never started when the server shut down are
*parked*: their full request (graph arrays + configuration) is
persisted crash-safely under the checkpoint root so a later process can
resubmit them via :func:`load_parked_job`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..atomicio import atomic_write, atomic_write_text
from ..checkpoint import _file_sha256, _verify_digests
from ..config import SBPConfig
from ..core.result import PartitionResult
from ..errors import CheckpointError
from ..graph.builder import build_graph
from ..graph.csr import DiGraphCSR
from ..types import INDEX_DTYPE

PathLike = Union[str, os.PathLike]

#: Terminal statuses an accepted job can reach.  ``rejected`` is the
#: only status a *non*-accepted submission gets.
JOB_STATUSES = (
    "completed",      # result returned (fresh, cached, or coalesced)
    "timed_out",      # deadline fired; best-effort result when one exists
    "cancelled",      # cancelled before enough progress to persist
    "checkpointed",   # shutdown persisted a resumable run checkpoint
    "parked",         # shutdown persisted the un-started request itself
    "failed",         # retries + fault budget exhausted
    "rejected",       # admission control refused the submission
)

_PARKED_MANIFEST = "parked.json"
_PARKED_ARRAYS = "parked.npz"
#: parked.json format: 2 requires the digest of parked.npz (1, written
#: before that requirement, is still readable).
_PARKED_FORMAT = 2
_PARKED_COMPAT_FORMATS = (1, 2)


def graph_work_bytes(graph: DiGraphCSR) -> int:
    """Resident bytes a job pins while queued or running.

    Both CSR sides count — the partitioner gathers from each — making
    this the unit the admission controller's in-flight byte cap is
    measured in.
    """
    total = 0
    for adj in (graph.out_adj, graph.in_adj):
        total += adj.ptr.nbytes + adj.nbr.nbytes + adj.wgt.nbytes
    return total


@dataclass
class JobSpec:
    """One accepted partition request.

    ``trace_id`` is the request's end-to-end identity: minted by the
    outermost client (:meth:`~repro.serve.net.ServeClient.submit`) or,
    for callers that did not bring one, by the server at submission.
    Every span and the terminal wide event carry it verbatim.
    ``tenant`` is a free-form attribution label; ``parent_span_id``
    names the client-side span the server-side tree hangs under.
    """

    job_id: str
    graph: DiGraphCSR
    config: SBPConfig
    cache_key: str
    work_bytes: int
    submitted_at: float
    deadline_s: Optional[float] = None
    tenant: Optional[str] = None
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices


@dataclass
class JobOutcome:
    """Terminal state of one submission.

    Attributes
    ----------
    status:
        One of :data:`JOB_STATUSES`.
    result:
        The partition, when one exists.  ``timed_out`` outcomes carry
        the best partition found before the deadline (``None`` when the
        deadline fired before any plateau completed).
    cache_hit / coalesced:
        Whether the result came from the result cache, or from another
        in-flight job for the identical request (single-flight).
    checkpoint_dir:
        Where shutdown persisted this job's state: a resumable run
        checkpoint (``checkpointed``) or a parked request (``parked``).
    retry_after_s:
        For ``rejected``: suggested client backoff before resubmitting.
    degradation_level:
        The server's degradation-ladder level the job executed under
        (0 = full-fidelity).
    trace_id / trace_path:
        The end-to-end trace identity the job ran under, and — when the
        server writes per-job Chrome traces — the file it landed in.
    """

    job_id: str
    status: str
    result: Optional[PartitionResult] = None
    cache_hit: bool = False
    coalesced: bool = False
    checkpoint_dir: Optional[str] = None
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    retries: int = 0
    retry_after_s: Optional[float] = None
    reject_reason: Optional[str] = None
    degradation_level: int = 0
    error: Optional[str] = None
    trace_id: Optional[str] = None
    trace_path: Optional[str] = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in JOB_STATUSES:
            raise ValueError(
                f"unknown job status {self.status!r}; "
                f"expected one of {JOB_STATUSES}"
            )

    @property
    def ok(self) -> bool:
        """True when the caller got a usable partition."""
        return self.result is not None

    def to_dict(self, include_partition: bool = False) -> dict:
        """JSON-ready summary (the wire format of the TCP front end)."""
        payload: dict = {
            "job_id": self.job_id,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
            "queue_wait_s": self.queue_wait_s,
            "service_s": self.service_s,
            "retries": self.retries,
            "degradation_level": self.degradation_level,
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.trace_path is not None:
            payload["trace_path"] = self.trace_path
        if self.checkpoint_dir is not None:
            payload["checkpoint_dir"] = self.checkpoint_dir
        if self.retry_after_s is not None:
            payload["retry_after_s"] = self.retry_after_s
        if self.reject_reason is not None:
            payload["reject_reason"] = self.reject_reason
        if self.error is not None:
            payload["error"] = self.error
        if self.result is not None:
            payload["num_blocks"] = int(self.result.num_blocks)
            payload["mdl"] = float(self.result.mdl)
            payload["converged"] = bool(self.result.converged)
            if self.result.cancelled is not None:
                payload["cancelled"] = self.result.cancelled
            if include_partition:
                payload["partition"] = [
                    int(b) for b in self.result.partition
                ]
        return payload


# ----------------------------------------------------------------------
# parking: persist an accepted-but-unstarted request across shutdown
# ----------------------------------------------------------------------
def park_job(job: JobSpec, directory: PathLike) -> Path:
    """Persist *job*'s full request under *directory*, crash-safely.

    The graph arrays land first (``parked.npz``), the manifest last
    (``parked.json``) — mirroring the run-checkpoint write protocol, so
    a reader never observes a manifest without its payload.  Like a
    run checkpoint, the manifest records the payload's content digest;
    :func:`load_parked_job` raises
    :class:`~repro.errors.CheckpointCorruptError` when it no longer
    matches.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    adj = job.graph.out_adj
    atomic_write(
        directory / _PARKED_ARRAYS,
        lambda h: np.savez(
            h,
            ptr=np.asarray(adj.ptr, dtype=INDEX_DTYPE),
            nbr=np.asarray(adj.nbr, dtype=INDEX_DTYPE),
            wgt=np.asarray(adj.wgt),
        ),
    )
    manifest = {
        "content_digests": {
            _PARKED_ARRAYS: _file_sha256(directory / _PARKED_ARRAYS)
        },
        "format_version": _PARKED_FORMAT,
        "kind": "gsap-parked-job",
        "job_id": job.job_id,
        "num_vertices": int(job.graph.num_vertices),
        "cache_key": job.cache_key,
        "deadline_s": job.deadline_s,
        "config": job.config.to_dict(),
    }
    atomic_write_text(
        directory / _PARKED_MANIFEST, json.dumps(manifest, indent=2)
    )
    return directory


def load_parked_job(directory: PathLike):
    """Load a parked request: ``(job_id, graph, config_dict)``.

    The returned config dict is :meth:`SBPConfig.to_dict` output —
    rebuild with ``SBPConfig(**{k: v for k, v in cfg.items()})`` after
    dropping nested blocks you want defaulted, or feed the seed alone.
    """
    directory = Path(directory)
    manifest_path = directory / _PARKED_MANIFEST
    if not manifest_path.exists():
        raise CheckpointError(f"no parked job under {directory}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(
            f"parked-job manifest {manifest_path} is corrupt: {exc}"
        ) from exc
    if manifest.get("kind") != "gsap-parked-job":
        raise CheckpointError(f"{manifest_path} is not a parked job")
    version = manifest.get("format_version")
    if version not in _PARKED_COMPAT_FORMATS:
        raise CheckpointError(f"unsupported parked-job format {version!r}")
    arrays_path = directory / _PARKED_ARRAYS
    if not arrays_path.exists():
        raise CheckpointError(
            f"parked job under {directory} lost {_PARKED_ARRAYS}"
        )
    _verify_digests(
        directory, manifest, "parked job",
        required=(_PARKED_ARRAYS,) if version >= 2 else (),
    )
    with np.load(arrays_path) as bundle:
        ptr = bundle["ptr"]
        nbr = bundle["nbr"]
        wgt = bundle["wgt"]
    num_vertices = int(manifest["num_vertices"])
    src = np.repeat(
        np.arange(num_vertices, dtype=INDEX_DTYPE), np.diff(ptr)
    )
    graph = build_graph(src, nbr, wgt, num_vertices=num_vertices)
    return str(manifest["job_id"]), graph, dict(manifest["config"])
