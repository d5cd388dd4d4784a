"""Deterministic fault injection for the simulated device stack.

Long SBP runs die to transient device faults — OOMs, failed kernel
launches, broken streams.  This module lets tests and
chaos runs trigger those faults *deterministically*: a :class:`FaultPlan`
names which operation index of which fault class should fail, a
:class:`FaultInjector` installed on a :class:`~repro.gpusim.device.Device`
counts operations and fires the planned faults, and every fault is an
exception that multiply-inherits :class:`~repro.errors.FaultInjected`
plus the device error it imitates, so recovery code cannot tell an
injected fault from a real one.

Fault classes
-------------
``oom``
    Raises :class:`InjectedMemoryFault` (a ``DeviceMemoryError``) from
    ``Device.execute`` for kernels moving at least ``min_bytes``.
``kernel``
    Raises :class:`InjectedKernelFault` (a ``KernelLaunchError``) from
    ``Device.execute``.
``stream``
    Raises :class:`InjectedStreamFault` (a ``DeviceError``) just before
    a cuRAND table launch (:mod:`repro.gpusim.curand`).
``bitflip``
    Does not raise; *silently* flips one bit of a corruptible structure
    exposed through :meth:`FaultInjector.on_corruptible` (CSR arrays,
    block degrees, the assignment vector).  Detection is the integrity
    subsystem's job (:mod:`repro.integrity`), not the injector's.
``value_corrupt``
    Does not raise; silently overwrites one element of a corruptible
    structure with ``value``.

Communication fault classes (consumed by :mod:`repro.dist`, not by the
device injector; see ``docs/distributed.md``)
--------------------------------------------
``msg_drop``
    A framed message vanishes on the wire; the receiver detects the loss
    and requests a bounded retransmit.
``msg_duplicate``
    A framed message is delivered twice; the receiver dedupes by
    sequence number.
``msg_reorder``
    A receiver's inbox for one round is delivered in a shuffled order
    (seeded); frames are reassembled by sequence number.
``msg_corrupt``
    One bit of a frame is flipped in flight; the CRC32 check rejects the
    frame and triggers a retransmit.
``rank_crash``
    The rank named by ``rank`` goes permanently silent at round ``at``;
    survivors detect the missing heartbeat and run the recovery
    protocol.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import (
    DeviceError,
    DeviceMemoryError,
    FaultInjected,
    KernelLaunchError,
    ReproError,
)
from ..rng import make_rng

PathLike = Union[str, os.PathLike]

FAULT_KINDS = (
    "oom",
    "kernel",
    "stream",
    "bitflip",
    "value_corrupt",
    "msg_drop",
    "msg_duplicate",
    "msg_reorder",
    "msg_corrupt",
    "rank_crash",
)

#: Fault kinds that corrupt state silently instead of raising.
CORRUPTION_KINDS = ("bitflip", "value_corrupt")

#: Fault kinds that target individual frames of the simulated
#: interconnect (``at`` counts matching send/delivery operations).
MESSAGE_FAULT_KINDS = ("msg_drop", "msg_duplicate", "msg_reorder", "msg_corrupt")

#: All fault kinds consumed by the distributed runtime instead of the
#: device injector.
COMM_FAULT_KINDS = MESSAGE_FAULT_KINDS + ("rank_crash",)


class InjectedMemoryFault(FaultInjected, DeviceMemoryError):
    """An injected (simulated) device out-of-memory condition."""


class InjectedKernelFault(FaultInjected, KernelLaunchError):
    """An injected kernel-launch failure."""


class InjectedStreamFault(FaultInjected, DeviceError):
    """An injected stream failure."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    at:
        0-based operation index (within the fault class's own counter,
        filtered by *phase* when given) at which the fault fires.
    count:
        How many consecutive operations starting at *at* are faulted
        (``count=2`` models a fault that survives one retry).  Use a
        large count to model a persistent fault.
    phase:
        Only operations tagged with this phase increment the counter and
        can fire (``None`` matches every phase).
    min_bytes:
        For ``oom``: only kernels moving at least this many bytes can
        fire.  This is what makes batch-halving degradation *actually*
        clear the fault — smaller batches move fewer bytes.
    target:
        For corruption kinds: only structures exposed under this tag
        (e.g. ``"csr_out_wgt"``, ``"bmap"``) increment the counter and
        can be corrupted (``None`` matches every structure).
    index:
        For corruption kinds: flat element index to corrupt, taken
        modulo the array length so any index is valid for any structure.
    bit:
        For ``bitflip``: which bit of the element to flip (0..63,
        interpreted little-endian across the element's bytes).
    value:
        For ``value_corrupt``: the replacement value written into the
        element (cast to the array's dtype).
    rank:
        For communication kinds: the rank the fault targets.  For the
        message kinds this filters on the *sending* rank of the frame
        (``None`` matches every sender; for ``msg_reorder`` it filters
        on the receiving rank).  For ``rank_crash`` it names the rank
        that dies and is mandatory.  For ``rank_crash``, ``at`` indexes
        communication *rounds*, not individual frames.
    """

    kind: str
    at: int = 0
    count: int = 1
    phase: Optional[str] = None
    min_bytes: int = 0
    target: Optional[str] = None
    index: int = 0
    bit: int = 0
    value: float = -1.0
    rank: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.at < 0 or self.count < 1:
            raise ReproError(
                f"fault spec needs at >= 0 and count >= 1, got at={self.at} "
                f"count={self.count}"
            )
        if self.min_bytes < 0:
            raise ReproError(f"min_bytes must be >= 0, got {self.min_bytes}")
        if self.index < 0:
            raise ReproError(f"corruption index must be >= 0, got {self.index}")
        if not 0 <= self.bit < 64:
            raise ReproError(f"bit must be in [0, 64), got {self.bit}")
        if self.rank is not None and self.rank < 0:
            raise ReproError(f"rank must be >= 0, got {self.rank}")
        if self.kind == "rank_crash" and self.rank is None:
            raise ReproError("rank_crash faults must name the rank that dies")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "at": self.at,
            "count": self.count,
            "phase": self.phase,
            "min_bytes": self.min_bytes,
            "target": self.target,
            "index": self.index,
            "bit": self.bit,
            "value": self.value,
            "rank": self.rank,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        try:
            return cls(
                kind=str(payload["kind"]),
                at=int(payload.get("at", 0)),
                count=int(payload.get("count", 1)),
                phase=payload.get("phase"),
                min_bytes=int(payload.get("min_bytes", 0)),
                target=payload.get("target"),
                index=int(payload.get("index", 0)),
                bit=int(payload.get("bit", 0)),
                value=float(payload.get("value", -1.0)),
                rank=(
                    None if payload.get("rank") is None
                    else int(payload["rank"])
                ),
            )
        except KeyError as exc:
            raise ReproError(f"fault spec missing key: {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible set of planned faults (plus the seed that made it)."""

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __len__(self) -> int:
        return len(self.faults)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        faults = payload.get("faults")
        if not isinstance(faults, list):
            raise ReproError("fault plan needs a 'faults' list")
        return cls(
            faults=tuple(FaultSpec.from_dict(f) for f in faults),
            seed=int(payload.get("seed", 0)),
        )

    @classmethod
    def from_json_file(cls, path: PathLike) -> "FaultPlan":
        path = Path(path)
        if not path.exists():
            raise ReproError(f"fault plan file not found: {path}")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ReproError(f"fault plan {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def save_json(self, path: PathLike) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2), encoding="utf-8")
        return path

    @classmethod
    def seeded_random(
        cls,
        seed: int,
        num_faults: int = 4,
        kinds: Sequence[str] = ("oom", "kernel", "stream"),
        max_index: int = 200,
        phases: Sequence[Optional[str]] = (None,),
    ) -> "FaultPlan":
        """Generate a deterministic chaos plan from *seed*."""
        rng = make_rng(seed, "fault_plan")
        faults = []
        for _ in range(num_faults):
            kind = str(rng.choice(list(kinds)))
            phase = phases[int(rng.integers(0, len(phases)))]
            spec = FaultSpec(
                kind=kind,
                at=int(rng.integers(0, max_index)),
                count=int(rng.integers(1, 3)),
                phase=phase,
            )
            faults.append(spec)
        return cls(faults=tuple(faults), seed=seed)


def tick_fault_counters(
    counters: Dict[tuple, int],
    faults: Sequence[FaultSpec],
    kind: str,
    **filters: object,
) -> List[Tuple[FaultSpec, int]]:
    """Count one *kind* operation; return the ``(spec, index)`` that fire.

    Each keyword names a :class:`FaultSpec` filter field and the
    operation's value for it (``phase="vertex_move"``).  The operation
    advances one counter per combination of "unfiltered" (``None``) and
    that value, keyed ``(kind, *filter values)`` in *counters*, so a
    spec counts only the operations its own filters match.  Fired specs
    come back in plan order, whatever the hash seed.
    """
    names = tuple(filters)
    choices = [(None,) if v is None else (None, v) for v in filters.values()]
    index_of: Dict[tuple, int] = {}
    for combo in itertools.product(*choices):
        key = (kind,) + combo
        index_of[combo] = counters.get(key, 0)
        counters[key] = index_of[combo] + 1
    fired: List[Tuple[FaultSpec, int]] = []
    for spec in faults:
        if spec.kind != kind:
            continue
        index = index_of.get(tuple(getattr(spec, n) for n in names))
        if index is not None and spec.at <= index < spec.at + spec.count:
            fired.append((spec, index))
    return fired


@dataclass
class FaultLogEntry:
    """One fault that actually fired."""

    kind: str
    op_index: int
    phase: Optional[str]
    detail: str


class FaultInjector:
    """Counts device operations and fires the faults a plan schedules.

    Install with :func:`install_fault_injector` (or assign to
    ``device.fault_injector``); the device consults it on every kernel
    launch, the cuRAND table builds once more before theirs.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        # launch counters are keyed (kind, phase-filter) and corruption
        # counters (kind, target-filter, phase-filter), so ``at=N``
        # indexes the operations a spec's own filters match
        self._counters: Dict[tuple, int] = {}
        self.log: List[FaultLogEntry] = []

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._counters.clear()
        self.log.clear()

    @property
    def faults_fired(self) -> int:
        return len(self.log)

    def fired_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for entry in self.log:
            out[entry.kind] = out.get(entry.kind, 0) + 1
        return out

    # ------------------------------------------------------------------
    def _record(self, spec: FaultSpec, index: int, phase: Optional[str],
                detail: str) -> None:
        self.log.append(
            FaultLogEntry(kind=spec.kind, op_index=index, phase=phase,
                          detail=detail)
        )

    # ------------------------------------------------------------------
    # hooks called by the device layers
    # ------------------------------------------------------------------
    def on_kernel(self, name: str, phase: Optional[str], nbytes: int) -> None:
        """Called by ``Device.execute`` before running a kernel body."""
        for kind in ("kernel", "oom"):
            for spec, index in tick_fault_counters(
                self._counters, self.plan.faults, kind, phase=phase
            ):
                if kind == "oom" and nbytes < spec.min_bytes:
                    continue
                self._record(spec, index, phase, f"kernel {name!r}")
                if kind == "oom":
                    raise InjectedMemoryFault(
                        f"injected OOM at kernel #{index} {name!r} "
                        f"({nbytes} bytes of scratch)"
                    )
                raise InjectedKernelFault(
                    f"injected launch failure at kernel #{index} {name!r}"
                )

    def on_stream_launch(self, name: str, phase: Optional[str]) -> None:
        """Called before each cuRAND table launch (``gpusim.curand``)."""
        for spec, index in tick_fault_counters(
            self._counters, self.plan.faults, "stream", phase=phase
        ):
            self._record(spec, index, phase, f"stream kernel {name!r}")
            raise InjectedStreamFault(
                f"injected stream failure at launch #{index} {name!r}"
            )

    # ------------------------------------------------------------------
    # silent corruption
    # ------------------------------------------------------------------
    @staticmethod
    def _corrupt_array(spec: FaultSpec, array: np.ndarray) -> str:
        """Apply one corruption in place; return a log detail string."""
        flat = array.reshape(-1)
        element = spec.index % flat.size
        if spec.kind == "bitflip":
            bit = spec.bit % (array.itemsize * 8)
            raw = flat.view(np.uint8)
            byte = element * array.itemsize + bit // 8
            raw[byte] ^= np.uint8(1 << (bit % 8))
            return f"flipped bit {bit} of element {element}"
        old = flat[element]
        flat[element] = np.asarray(spec.value).astype(array.dtype)
        return f"element {element}: {old!r} -> {flat[element]!r}"

    def on_corruptible(
        self, tag: str, array: np.ndarray, phase: Optional[str] = None
    ) -> bool:
        """Called when a corruptible structure is exposed to the injector.

        Structures are exposed by the integrity sites in the partitioner
        (after every blockmodel rebuild).  Any scheduled ``bitflip`` /
        ``value_corrupt`` fault matching *tag*/*phase* mutates *array*
        **in place and silently** — no exception, no visible trace except
        the injector log.  Returns ``True`` if the array was corrupted.
        """
        corrupted = False
        if array.size == 0:
            return corrupted
        for kind in CORRUPTION_KINDS:
            for spec, index in tick_fault_counters(
                self._counters, self.plan.faults, kind, target=tag, phase=phase
            ):
                detail = self._corrupt_array(spec, array)
                self._record(spec, index, phase, f"{tag}: {detail}")
                corrupted = True
        return corrupted


def install_fault_injector(device, plan: FaultPlan) -> FaultInjector:
    """Attach a fresh injector for *plan* to *device* and return it."""
    injector = FaultInjector(plan)
    device.fault_injector = injector
    return injector
