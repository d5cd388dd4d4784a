"""Content digests for graphs and configurations.

The job server's result cache and the shutdown job-parking machinery
need a stable identity for "the same partitioning request": the same
graph partitioned under the same configuration must produce the same
key on every process, platform, and run.  These helpers produce that
identity as SHA-256 hex digests over canonicalised bytes:

* :func:`graph_sha256` hashes the out-CSR arrays (row pointers,
  neighbour ids, weights) in a fixed little-endian layout plus the
  vertex count.  The in-CSR is derived from the out-CSR, so hashing one
  side fully identifies the graph.
* :func:`config_sha256` hashes the canonical JSON of
  :meth:`~repro.config.SBPConfig.to_dict` *minus* the observability
  block — tracing never changes a partition, so two requests differing
  only in telemetry settings share a cache entry.
"""

from __future__ import annotations

import hashlib
import json
import zlib

import numpy as np

#: bumped if the byte layout under the hash ever changes
_GRAPH_DIGEST_VERSION = b"gsap-graph-digest/1"
_CONFIG_DIGEST_VERSION = "gsap-config-digest/1"


def _canonical_bytes(array: np.ndarray, dtype: str) -> bytes:
    """Little-endian contiguous bytes of *array* viewed as *dtype*."""
    return np.ascontiguousarray(np.asarray(array)).astype(dtype).tobytes()


def graph_sha256(graph) -> str:
    """SHA-256 content digest of a :class:`~repro.graph.csr.DiGraphCSR`."""
    digest = hashlib.sha256()
    digest.update(_GRAPH_DIGEST_VERSION)
    digest.update(int(graph.num_vertices).to_bytes(8, "little"))
    adj = graph.out_adj
    digest.update(_canonical_bytes(adj.ptr, "<i8"))
    digest.update(_canonical_bytes(adj.nbr, "<i8"))
    digest.update(_canonical_bytes(adj.wgt, "<i8"))
    return digest.hexdigest()


def crc32_frame(data: bytes) -> int:
    """CRC32 checksum of one message frame (header + payload).

    The same CRC32 the integrity manager's shadow digests use
    (:func:`repro.gpusim.buffer_digest`), reused by
    :mod:`repro.dist.message` so a frame corrupted on the
    simulated wire is detected at decode time rather than silently
    applied to a blockmodel replica.
    """
    return zlib.crc32(data) & 0xFFFFFFFF


def config_sha256(config) -> str:
    """SHA-256 digest of an :class:`~repro.config.SBPConfig`.

    Only result-affecting fields participate: the ``observability``
    block is dropped before hashing (an instrumented run is bit-identical
    to an uninstrumented one, so it must share the cache key).
    """
    payload = config.to_dict()
    payload.pop("observability", None)
    canonical = json.dumps(
        {_CONFIG_DIGEST_VERSION: payload}, sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
