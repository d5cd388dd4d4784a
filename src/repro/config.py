"""Partitioning-parameter configuration (paper Table 2).

:class:`SBPConfig` carries the knobs shared by GSAP and both baselines.
Defaults reproduce Table 2 of the paper exactly; every field is validated
on construction so misconfigured sweeps fail fast instead of producing
silently-wrong benchmark rows.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .errors import ConfigError


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance knobs for long partitioning runs.

    Parameters
    ----------
    max_attempts:
        Attempts per plateau before a fault escalates (>= 1; 1 disables
        retries).
    base_delay_s / backoff_factor / max_delay_s / jitter:
        Exponential-backoff schedule between attempts; the default base
        delay is tiny because the simulated device recovers instantly —
        production deployments raise it.
    fault_budget:
        Total device faults one run may absorb (across retries and
        degradations) before giving up with ``RetryExhaustedError``.
    checkpoint_every:
        Write a run checkpoint every N golden-section plateaus when a
        checkpoint directory is given (0 disables periodic snapshots).
    degrade_on_oom:
        Allow the degradation ladder on persistent out-of-memory faults:
        halve the vertex-move batch size (up to ``max_batch_halvings``
        times), then maintain the blockmodel off the device: the
        plateau-start rebuild and the incremental maintainer run on a
        private device with no fault injector, whose kernels the run's
        simulated clock does not charge.  The blockmodels, and so the
        partition, are unchanged.
    best_effort:
        Return the best-so-far partition (``converged=False``) when the
        plateau budget is exhausted instead of raising
        ``ConvergenceError``.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.001
    backoff_factor: float = 2.0
    max_delay_s: float = 0.1
    jitter: float = 0.1
    fault_budget: int = 32
    checkpoint_every: int = 0
    degrade_on_oom: bool = True
    max_batch_halvings: int = 3
    best_effort: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        for name in ("base_delay_s", "max_delay_s"):
            value = getattr(self, name)
            if value < 0 or not math.isfinite(value):
                raise ConfigError(f"{name} must be >= 0 and finite, got {value!r}")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if not (0.0 <= self.jitter < 1.0):
            raise ConfigError(f"jitter must lie in [0, 1), got {self.jitter!r}")
        if self.fault_budget < 0:
            raise ConfigError(
                f"fault_budget must be >= 0, got {self.fault_budget!r}"
            )
        if self.checkpoint_every < 0:
            raise ConfigError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every!r}"
            )
        if self.max_batch_halvings < 0:
            raise ConfigError(
                f"max_batch_halvings must be >= 0, got {self.max_batch_halvings!r}"
            )

    def replace(self, **changes: object) -> "ResilienceConfig":
        """Return a copy with *changes* applied (validated)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ObservabilityConfig:
    """Knobs for the unified tracing + metrics subsystem (:mod:`repro.obs`).

    Parameters
    ----------
    enabled:
        Master switch.  Off (the default) costs nothing: every
        instrumented call site returns before touching any state, and a
        traced run produces a bit-identical partition to an untraced
        one (tracing never consumes RNG draws).

    With the hub enabled, the simulated device's kernel launches are
    always bridged into the tracer as leaf spans (one span per launch;
    the dominant span volume), and the per-proposal ΔMDL histograms are
    always recorded (one NumPy bucketing pass per MCMC batch and merge
    round).
    """

    enabled: bool = False

    def replace(self, **changes: object) -> "ObservabilityConfig":
        """Return a copy with *changes* applied."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class IntegrityConfig:
    """Silent-corruption defense knobs (:mod:`repro.integrity`).

    Parameters
    ----------
    audit:
        Master switch for the blockmodel invariant auditor.  Off (the
        default) costs nothing; on, the auditor runs at every
        ``audit_every``-th blockmodel rebuild.  Auditing never consumes
        RNG draws, so an audited run produces a bit-identical partition
        to an unaudited one.
    audit_every:
        Audit cadence in rebuild sites (1 = every rebuild).  Corruption
        at a site is only guaranteed to be repaired back to the
        fault-free trajectory when ``audit_every == 1``; larger values
        trade detection latency (and repair fidelity) for audit cost.
    repair:
        Attempt the self-healing repair ladder (targeted rebuild →
        dense rebuild → checkpoint restore) when an audit fails.  Off,
        a failed audit raises :class:`~repro.errors.IntegrityError`.

    The tracked MDL is compared against the recomputed-from-scratch
    value at :func:`~repro.integrity.auditor.audit_blockmodel`'s
    relative tolerance.
    """

    audit: bool = False
    audit_every: int = 1
    repair: bool = False

    def __post_init__(self) -> None:
        if self.audit_every < 1:
            raise ConfigError(
                f"audit_every must be >= 1, got {self.audit_every!r}"
            )

    def replace(self, **changes: object) -> "IntegrityConfig":
        """Return a copy with *changes* applied (validated)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class SBPConfig:
    """Stochastic-block-partitioning parameters (paper Table 2).

    Parameters
    ----------
    num_blocks_reduction_rate:
        Fraction of blocks merged away per block-merge phase (paper: 0.4).
    num_proposals:
        Merge proposals evaluated per block in the block-merge phase
        (paper: 10).
    max_num_nodal_itr:
        Maximum MCMC sweeps per vertex-move phase (paper: 100).
    delta_entropy_threshold1:
        Convergence threshold (relative to the initial description length)
        used before the golden-section bracket is established (paper: 5e-4).
    delta_entropy_threshold2:
        Tighter threshold used once the search is bracketed (paper: 1e-4).
    delta_entropy_moving_avg_window:
        Window, in sweeps, of the moving average used for the convergence
        test (paper: 3).
    num_batches_for_MCMC:
        Number of asynchronous-Gibbs batches a sweep is split into
        (paper: 4).  Batch ``i`` holds vertices ``v`` with
        ``v % num_batches == i``; moves within a batch are proposed against
        a frozen blockmodel and applied together.
    beta:
        Inverse temperature of the Metropolis-Hastings acceptance
        (GraphChallenge reference value: 3.0).
    min_blocks:
        Lower bound on the searched block count (golden-section floor).
    seed:
        Master RNG seed; every stochastic component derives its stream
        from this value, making runs reproducible.
    resilience:
        Fault-tolerance knobs (:class:`ResilienceConfig`); a plain dict
        is accepted and coerced.
    observability:
        Tracing/metrics knobs (:class:`ObservabilityConfig`); a plain
        dict is accepted and coerced.  Disabled by default.
    integrity:
        Silent-corruption defense knobs (:class:`IntegrityConfig`); a
        plain dict is accepted and coerced.  Disabled by default.
    """

    num_blocks_reduction_rate: float = 0.4
    num_proposals: int = 10
    max_num_nodal_itr: int = 100
    delta_entropy_threshold1: float = 5e-4
    delta_entropy_threshold2: float = 1e-4
    delta_entropy_moving_avg_window: int = 3
    num_batches_for_MCMC: int = 4
    beta: float = 3.0
    min_blocks: int = 1
    seed: int = 0
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    observability: ObservabilityConfig = field(
        default_factory=ObservabilityConfig
    )
    integrity: IntegrityConfig = field(default_factory=IntegrityConfig)

    def __post_init__(self) -> None:
        if isinstance(self.resilience, dict):
            object.__setattr__(
                self, "resilience", ResilienceConfig(**self.resilience)
            )
        elif not isinstance(self.resilience, ResilienceConfig):
            raise ConfigError(
                "resilience must be a ResilienceConfig or dict, got "
                f"{type(self.resilience).__name__}"
            )
        if isinstance(self.observability, dict):
            object.__setattr__(
                self, "observability", ObservabilityConfig(**self.observability)
            )
        elif not isinstance(self.observability, ObservabilityConfig):
            raise ConfigError(
                "observability must be an ObservabilityConfig or dict, got "
                f"{type(self.observability).__name__}"
            )
        if isinstance(self.integrity, dict):
            object.__setattr__(self, "integrity", IntegrityConfig(**self.integrity))
        elif not isinstance(self.integrity, IntegrityConfig):
            raise ConfigError(
                "integrity must be an IntegrityConfig or dict, got "
                f"{type(self.integrity).__name__}"
            )
        if not (0.0 < self.num_blocks_reduction_rate < 1.0):
            raise ConfigError(
                "num_blocks_reduction_rate must lie in (0, 1), got "
                f"{self.num_blocks_reduction_rate!r}"
            )
        if self.num_proposals < 1:
            raise ConfigError(f"num_proposals must be >= 1, got {self.num_proposals!r}")
        if self.max_num_nodal_itr < 1:
            raise ConfigError(
                f"max_num_nodal_itr must be >= 1, got {self.max_num_nodal_itr!r}"
            )
        for name in ("delta_entropy_threshold1", "delta_entropy_threshold2"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0) or not math.isfinite(value):
                raise ConfigError(f"{name} must lie in (0, 1), got {value!r}")
        if self.delta_entropy_moving_avg_window < 1:
            raise ConfigError(
                "delta_entropy_moving_avg_window must be >= 1, got "
                f"{self.delta_entropy_moving_avg_window!r}"
            )
        if self.num_batches_for_MCMC < 1:
            raise ConfigError(
                f"num_batches_for_MCMC must be >= 1, got {self.num_batches_for_MCMC!r}"
            )
        if self.beta <= 0.0 or not math.isfinite(self.beta):
            raise ConfigError(f"beta must be positive and finite, got {self.beta!r}")
        if self.min_blocks < 1:
            raise ConfigError(f"min_blocks must be >= 1, got {self.min_blocks!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed!r}")

    def replace(self, **changes: object) -> "SBPConfig":
        """Return a copy with *changes* applied (validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """Return the configuration as a plain dictionary."""
        return dataclasses.asdict(self)

    @classmethod
    def paper_defaults(cls) -> "SBPConfig":
        """The exact parameter set of paper Table 2."""
        return cls()


#: Alias kept for symmetry with the paper's terminology.
PAPER_TABLE2 = SBPConfig.paper_defaults()
