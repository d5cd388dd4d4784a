"""A :class:`FaultPlan`-driven simulated interconnect channel.

The channel carries encoded :class:`~repro.dist.message.Frame` bytes
between ranks and is the single place where communication faults happen.
A :class:`CommFaultInjector` consumes the same
:class:`~repro.resilience.faults.FaultPlan` documents the device
injector uses, but ticks the *communication* fault kinds:

``msg_drop`` / ``msg_duplicate`` / ``msg_corrupt``
    Counted per frame-send operation, filtered by the sending rank
    (``spec.rank``) and the message kind (``spec.phase``:
    ``"moves"`` / ``"heartbeat"``).
``msg_reorder``
    Counted per inbox delivery (one per receiving rank per round),
    filtered by the receiving rank; a firing spec shuffles that inbox
    with a seeded RNG.
``rank_crash``
    Counted per communication round; a firing spec silences the named
    rank permanently (its queued frames are discarded and later sends
    are swallowed), modelling a process that died mid-round.

Every decision is deterministic: counters advance identically for
identical traffic, and the only randomness (the reorder shuffle) comes
from a generator seeded by the plan seed, so a given
``(plan, seed, workload)`` triple always yields the same delivery
schedule — the property the fault-matrix tests pin down.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..resilience.faults import (
    MESSAGE_FAULT_KINDS,
    FaultLogEntry,
    FaultPlan,
    FaultSpec,
    tick_fault_counters,
)
from ..rng import make_rng
from .message import Frame


class CommFaultInjector:
    """Counts channel operations and fires planned communication faults."""

    def __init__(self, plan: Optional[FaultPlan] = None, seed: int = 0) -> None:
        self.plan = plan or FaultPlan()
        self.rng = make_rng(seed, "dist", "comm_faults")
        #: counters keyed ``(kind, rank-filter, phase-filter)``
        self._counters: Dict[tuple, int] = {}
        self._round_counter = 0
        self.log: List[FaultLogEntry] = []

    @property
    def faults_fired(self) -> int:
        return len(self.log)

    def _tick(
        self, kind: str, rank: Optional[int], phase: Optional[str]
    ) -> List[Tuple[FaultSpec, int]]:
        """Advance counters for *kind*; return the specs that fire."""
        return tick_fault_counters(
            self._counters, self.plan.faults, kind, rank=rank, phase=phase
        )

    def _record(self, spec: FaultSpec, index: int, detail: str) -> None:
        self.log.append(
            FaultLogEntry(kind=spec.kind, op_index=index, phase=spec.phase,
                          detail=detail)
        )

    # ------------------------------------------------------------------
    # hooks called by the channel
    # ------------------------------------------------------------------
    def on_send(self, frame: Frame, data: bytes) -> Tuple[List[bytes], bool, bool]:
        """Fault one frame transmission.

        Returns ``(deliveries, dropped, corrupted)`` where *deliveries*
        is the list of wire-byte copies that actually reach the
        destination inbox (empty for a drop, two for a duplicate, and a
        bit-flipped copy for a corruption).
        """
        label = f"{frame.kind} r{frame.src}->r{frame.dst} seq={frame.seq}"
        dropped = corrupted = duplicated = False
        for spec, index in self._tick("msg_drop", frame.src, frame.kind):
            self._record(spec, index, f"dropped {label}")
            dropped = True
        for spec, index in self._tick("msg_duplicate", frame.src, frame.kind):
            self._record(spec, index, f"duplicated {label}")
            duplicated = True
        payload_data = data
        for spec, index in self._tick("msg_corrupt", frame.src, frame.kind):
            payload_data = self._flip_bit(data, spec)
            self._record(
                spec, index,
                f"corrupted {label} (bit {spec.bit} of byte "
                f"{spec.index % max(1, len(data) - 4)})",
            )
            corrupted = True
        if dropped:
            return [], True, corrupted
        deliveries = [payload_data]
        if duplicated:
            deliveries.append(payload_data)
        return deliveries, False, corrupted

    @staticmethod
    def _flip_bit(data: bytes, spec: FaultSpec) -> bytes:
        """Flip one bit of the frame body (never the trailing CRC32).

        Corrupting the body rather than the checksum guarantees the
        receiver's CRC validation *detects* the damage — the fault
        models wire corruption, not checksum forgery.
        """
        body_len = max(1, len(data) - 4)
        pos = spec.index % body_len
        mutated = bytearray(data)
        mutated[pos] ^= 1 << (spec.bit % 8)
        return bytes(mutated)

    def on_deliver(self, dst: int, num_frames: int) -> bool:
        """Tick the reorder counter for one inbox flush; True = shuffle."""
        reorder = False
        for spec, index in self._tick("msg_reorder", dst, None):
            self._record(
                spec, index, f"reordered inbox of r{dst} ({num_frames} frames)"
            )
            reorder = True
        return reorder

    def on_round(self, live_ranks) -> List[int]:
        """Advance the round counter; return ranks that crash this round."""
        index = self._round_counter
        self._round_counter += 1
        victims: List[int] = []
        for spec in self.plan.faults:
            if spec.kind != "rank_crash":
                continue
            if spec.at <= index < spec.at + spec.count and spec.rank in live_ranks:
                self._record(spec, index, f"rank {spec.rank} crashed")
                victims.append(spec.rank)
        return sorted(set(victims))


class FaultyChannel:
    """Per-destination inboxes behind a :class:`CommFaultInjector`.

    The channel never interprets frames — it moves opaque wire bytes —
    so every fault lands *under* the CRC/sequence machinery and must be
    caught by it, exactly like real link-layer damage.
    """

    def __init__(self, num_ranks: int, injector: CommFaultInjector) -> None:
        self.num_ranks = num_ranks
        self.injector = injector
        self._inbox: Dict[int, List[bytes]] = {r: [] for r in range(num_ranks)}
        self._silenced: set = set()

    def silence(self, rank: int) -> None:
        """Model a crashed rank: discard queued frames, swallow new ones."""
        self._silenced.add(rank)
        self._inbox[rank] = []

    def is_silenced(self, rank: int) -> bool:
        return rank in self._silenced

    def transmit(self, frame: Frame) -> Tuple[bool, bool]:
        """Send one frame through the faulty link.

        Returns ``(dropped, corrupted)`` for the channel's stats; the
        sender itself never learns either (fire-and-forget semantics —
        loss is discovered by the receiver).
        """
        if frame.src in self._silenced:
            # a dead rank transmits nothing
            return True, False
        data = frame.encode()
        deliveries, dropped, corrupted = self.injector.on_send(frame, data)
        if frame.dst not in self._silenced:
            self._inbox[frame.dst].extend(deliveries)
        return dropped, corrupted

    def deliver(self, dst: int) -> Tuple[List[bytes], bool]:
        """Drain *dst*'s inbox; returns ``(frames, was_reordered)``.

        A firing ``msg_reorder`` spec shuffles the inbox with the seeded
        RNG before handing it over; receivers reassemble by sequence
        number.
        """
        frames = self._inbox[dst]
        self._inbox[dst] = []
        reordered = False
        if frames and self.injector.on_deliver(dst, len(frames)):
            order = self.injector.rng.permutation(len(frames))
            frames = [frames[i] for i in order]
            reordered = True
        return frames, reordered
