"""The integrity manager: shadow digests, cadenced audits, self-healing.

One :class:`IntegrityManager` rides along with a partitioning run and is
invoked at every *integrity site* — the point right after a blockmodel
rebuild where the pipeline holds a freshly consistent (assignment,
blockmodel) pair.  A site does three things, in order:

1. **commit** — snapshot the clean state: a copy of the assignment plus
   CRC32 digests of every corruptible array;
2. **expose** — hand each array to the fault injector's
   :meth:`~repro.resilience.faults.FaultInjector.on_corruptible` hook,
   which may silently flip bits (this is how chaos tests model cosmic
   rays / faulty VRAM — real corruption needs no invitation);
3. **audit** (every ``audit_every``-th site) — compare digests against
   the shadow and run the full invariant catalog
   (:func:`~repro.integrity.auditor.audit_blockmodel`).  On violation,
   charge the run's fault budget and climb the repair ladder:

   * restore the assignment from the shadow when its digest mismatched
     (rebuilding from a corrupted assignment would launder the damage
     into a consistent-but-wrong state);
   * ``targeted_rebuild`` — Algorithm 2 from the (restored) assignment;
   * ``dense_rebuild`` — a host rebuild through
     :func:`~repro.integrity.auditor.reference_blockmodel` (no device,
     no dense matrix; the rung keeps its old name for reports);
   * ``checkpoint_restore`` — re-derive state from the last checkpoint's
     assignment, when the caller wired one in;

   re-auditing after each rung and raising
   :class:`~repro.errors.IntegrityError` only when every rung fails
   (or when ``repair`` is off).

Determinism: nothing here consumes RNG, and a repair rebuilds exactly
the pre-corruption state, so a repaired run's trajectory — and final
partition — is bit-identical to the fault-free run (guaranteed at
``audit_every=1``; larger cadences can commit corrupted state into the
shadow before the next audit, trading fidelity for cost).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..blockmodel.update import rebuild_blockmodel
from ..config import IntegrityConfig
from ..errors import IntegrityError
from ..gpusim.device import buffer_digest
from ..obs.hub import NULL_OBS
from .auditor import audit_blockmodel, reference_blockmodel, structure_arrays

logger = logging.getLogger(__name__)

#: Repair-ladder rungs, least to most drastic.
REPAIR_RUNGS = ("targeted_rebuild", "dense_rebuild", "checkpoint_restore")


@dataclass
class IntegrityStats:
    """What the integrity subsystem saw and did during one run."""

    audits: int = 0
    corruptions_detected: int = 0
    repairs: int = 0
    repairs_by_rung: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    def record_violations(self, violations, limit: int = 64) -> None:
        for violation in violations:
            if len(self.violations) < limit:
                self.violations.append(str(violation))

    def to_dict(self) -> dict:
        return {
            "audits": self.audits,
            "corruptions_detected": self.corruptions_detected,
            "repairs": self.repairs,
            "repairs_by_rung": dict(self.repairs_by_rung),
            "violations": list(self.violations),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "IntegrityStats":
        return cls(
            audits=int(payload.get("audits", 0)),
            corruptions_detected=int(payload.get("corruptions_detected", 0)),
            repairs=int(payload.get("repairs", 0)),
            repairs_by_rung=dict(payload.get("repairs_by_rung", {})),
            violations=list(payload.get("violations", [])),
        )


class IntegrityManager:
    """Per-run silent-corruption defense (see module docstring).

    Parameters
    ----------
    config:
        The run's :class:`~repro.config.IntegrityConfig`.
    device:
        The device whose ``fault_injector`` corruptible structures are
        exposed to (exposure happens even with auditing off — real
        corruption does not wait for a detector).
    graph:
        The graph being partitioned; the audit reference is rebuilt
        from its edge list.
    budget:
        Optional shared :class:`~repro.resilience.retry.FaultBudget`;
        every detected corruption is charged against it.
    resilience_stats:
        Optional :class:`~repro.resilience.retry.ResilienceStats` that
        detected corruptions are recorded into.
    obs:
        Observability hub for ``integrity_*`` counters, repair spans and
        instant corruption markers.
    restore_assignment:
        Optional zero-argument callable returning a known-good
        ``(bmap, num_blocks)`` from the last checkpoint, used by the
        final repair rung; ``None`` disables that rung.
    """

    def __init__(
        self,
        config: IntegrityConfig,
        device,
        graph,
        *,
        budget=None,
        resilience_stats=None,
        obs=None,
        restore_assignment: Optional[Callable[[], tuple]] = None,
    ) -> None:
        self.config = config
        self.device = device
        self.graph = graph
        self.budget = budget
        self.resilience_stats = resilience_stats
        self.obs = obs if obs is not None else NULL_OBS
        self.restore_assignment = restore_assignment
        self.stats = IntegrityStats()
        self._sites_seen = 0
        self._shadow_bmap: Optional[np.ndarray] = None
        self._shadow_num_blocks: int = 0
        self._shadow_digests: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def site(self, bmap: np.ndarray, blockmodel, phase: str,
             tracked_mdl: Optional[float] = None):
        """Run the site protocol; returns the (possibly repaired) blockmodel.

        *bmap* may be repaired **in place** (restored from the shadow)
        when the assignment itself was corrupted.
        """
        audit = self.config.audit
        injector = getattr(self.device, "fault_injector", None)
        expose = injector is not None and hasattr(injector, "on_corruptible")
        if not audit and not expose:
            return blockmodel
        arrays = structure_arrays(bmap, blockmodel)
        if audit:
            self._commit_shadow(bmap, blockmodel, arrays)
        if expose:
            for tag, array in arrays.items():
                injector.on_corruptible(tag, array, phase)
        if not audit:
            return blockmodel
        self._sites_seen += 1
        if self._sites_seen % self.config.audit_every != 0:
            return blockmodel
        blockmodel, repaired = self._audit_site(
            bmap, blockmodel, phase, tracked_mdl
        )
        if repaired:
            self._commit_shadow(
                bmap, blockmodel, structure_arrays(bmap, blockmodel)
            )
        return blockmodel

    # ------------------------------------------------------------------
    def _commit_shadow(self, bmap, blockmodel, arrays) -> None:
        self._shadow_bmap = bmap.copy()
        self._shadow_num_blocks = int(blockmodel.num_blocks)
        self._shadow_digests = {
            tag: buffer_digest(array) for tag, array in arrays.items()
        }

    def _digest_mismatches(self, arrays) -> List[str]:
        return [
            tag
            for tag, array in arrays.items()
            if tag in self._shadow_digests
            and buffer_digest(array) != self._shadow_digests[tag]
        ]

    def _check(self, bmap, blockmodel, tracked_mdl):
        """Digest comparison plus the semantic invariant catalog."""
        arrays = structure_arrays(bmap, blockmodel)
        mismatches = self._digest_mismatches(arrays)
        violations = [
            f"digest_mismatch: {tag} changed since the last clean commit"
            for tag in mismatches
        ]
        violations.extend(
            str(v)
            for v in audit_blockmodel(
                self.graph, bmap, blockmodel, tracked_mdl=tracked_mdl
            )
        )
        return violations, mismatches

    # ------------------------------------------------------------------
    def _audit_site(self, bmap, blockmodel, phase, tracked_mdl):
        self.stats.audits += 1
        obs = self.obs
        obs.count("integrity_audits_total", help="integrity audits performed")
        violations, mismatches = self._check(bmap, blockmodel, tracked_mdl)
        if not violations:
            return blockmodel, False

        self.stats.corruptions_detected += 1
        self.stats.record_violations(violations)
        obs.count(
            "integrity_corruptions_detected_total",
            help="silent corruptions caught by integrity audits",
        )
        obs.instant(
            "corruption_detected", "integrity",
            phase=phase, violations=violations[:8],
        )
        logger.warning(
            "integrity audit failed in phase %r: %s", phase, "; ".join(violations)
        )
        error = IntegrityError(
            f"integrity audit failed in phase {phase!r}: "
            + "; ".join(violations),
            violations=violations,
        )
        if self.resilience_stats is not None:
            self.resilience_stats.record_fault(error)
        if self.budget is not None:
            self.budget.consume(error)  # may raise RetryExhaustedError
        if not self.config.repair:
            raise error
        return self._repair(bmap, blockmodel, phase, mismatches), True

    # ------------------------------------------------------------------
    def _repair(self, bmap, blockmodel, phase, mismatches):
        """Climb the repair ladder until an audit passes."""
        obs = self.obs
        # A corrupted assignment must be restored before any rebuild,
        # otherwise the rebuild launders the damage into a consistent
        # but wrong blockmodel.
        if "bmap" in mismatches and self._shadow_bmap is not None:
            bmap[:] = self._shadow_bmap
        num_blocks = self._shadow_num_blocks or blockmodel.num_blocks
        last_violations: List[str] = []
        for rung in REPAIR_RUNGS:
            candidate = None
            with obs.span("repair", "integrity", rung=rung, phase=phase):
                if rung == "targeted_rebuild":
                    candidate = rebuild_blockmodel(
                        self.device, self.graph, bmap, num_blocks, phase
                    )
                elif rung == "dense_rebuild":
                    candidate = reference_blockmodel(self.graph, bmap, num_blocks)
                elif rung == "checkpoint_restore":
                    if self.restore_assignment is None:
                        continue
                    restored = self.restore_assignment()
                    if restored is None:
                        continue
                    restored_bmap, restored_blocks = restored
                    if len(restored_bmap) != len(bmap):
                        continue
                    bmap[:] = restored_bmap
                    num_blocks = int(restored_blocks)
                    candidate = reference_blockmodel(self.graph, bmap, num_blocks)
            if candidate is None:
                continue
            # Re-audit the candidate: digests must match the shadow again
            # (a clean rebuild from the clean assignment is content-
            # identical) and the semantic catalog must pass.  After a
            # checkpoint restore the shadow no longer applies.
            if rung == "checkpoint_restore":
                self._shadow_digests = {}
                self._shadow_bmap = None
            violations, _ = self._check(bmap, candidate, None)
            if not violations:
                self.stats.repairs += 1
                self.stats.repairs_by_rung[rung] = (
                    self.stats.repairs_by_rung.get(rung, 0) + 1
                )
                obs.count(
                    "integrity_repairs_total",
                    help="successful self-healing repairs",
                )
                obs.instant("repaired", "integrity", rung=rung, phase=phase)
                logger.warning(
                    "integrity repair succeeded via %s in phase %r", rung, phase
                )
                return candidate
            last_violations = violations
        raise IntegrityError(
            "repair ladder exhausted; state still fails audit: "
            + "; ".join(last_violations),
            violations=last_violations,
        )
