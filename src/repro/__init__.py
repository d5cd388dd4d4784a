"""repro — reproduction of *GSAP: A GPU-Accelerated Stochastic Graph
Partitioner* (Chang, Zhang, Huang; ICPP 2024).

The package provides:

* :class:`GSAPPartitioner` — the paper's system: stochastic block
  partitioning with lookup-table proposal generation, batched ΔMDL
  evaluation, and full blockmodel rebuilds, executed on a simulated GPU
  device (:mod:`repro.gpusim`);
* CPU baselines (:mod:`repro.baselines`) modelled on uSAP and I-SBP;
* the DC-SBM dataset generator reproducing the HPEC SBPC benchmark
  categories (:mod:`repro.graph`);
* quality metrics (:mod:`repro.metrics`) and the benchmark harness
  (:mod:`repro.bench`) regenerating every table and figure of the paper.

Quickstart
----------
>>> from repro import GSAPPartitioner, load_dataset, nmi
>>> graph, truth = load_dataset("low_low", 1_000)
>>> result = GSAPPartitioner().partition(graph)
>>> score = nmi(result.partition, truth)
"""

from .analysis import compare_partitions, quotient_graph, summarize_partition
from .checkpoint import (
    RunCheckpoint,
    load_result,
    load_run_checkpoint,
    save_result,
    save_run_checkpoint,
)
from .config import (
    IntegrityConfig,
    ObservabilityConfig,
    ResilienceConfig,
    SBPConfig,
)
from .core import (
    GSAPPartitioner,
    PartitionResult,
    StreamingGSAP,
    partition_graph,
)
from .errors import (
    CheckpointCorruptError,
    CheckpointError,
    ConfigError,
    ConvergenceError,
    DatasetError,
    DeviceError,
    FaultInjected,
    GraphFormatError,
    GraphValidationError,
    IntegrityError,
    NumericalError,
    PartitionError,
    ReproError,
    RetryExhaustedError,
)
from .integrity import (
    IntegrityManager,
    IntegrityStats,
    audit_blockmodel,
    reference_blockmodel,
)
from .resilience import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ResilienceStats,
    RetryPolicy,
    install_fault_injector,
    with_retries,
)
from .graph import (
    DiGraphCSR,
    build_graph,
    generate_category_graph,
    generate_dcsbm,
    load_dataset,
    load_edge_list,
    load_graph_with_truth,
)
from .gpusim import A4000, Device
from .metrics import ari, nmi, pairwise_scores
from .obs import (
    MetricsRegistry,
    Observability,
    Tracer,
    build_run_report,
    write_chrome_trace,
    write_prometheus,
)

__version__ = "1.0.0"

__all__ = [
    "compare_partitions",
    "quotient_graph",
    "summarize_partition",
    "load_result",
    "save_result",
    "RunCheckpoint",
    "load_run_checkpoint",
    "save_run_checkpoint",
    "StreamingGSAP",
    "SBPConfig",
    "ResilienceConfig",
    "ObservabilityConfig",
    "IntegrityConfig",
    "GSAPPartitioner",
    "PartitionResult",
    "partition_graph",
    "CheckpointError",
    "CheckpointCorruptError",
    "ConfigError",
    "ConvergenceError",
    "DatasetError",
    "DeviceError",
    "FaultInjected",
    "GraphFormatError",
    "GraphValidationError",
    "IntegrityError",
    "NumericalError",
    "PartitionError",
    "ReproError",
    "RetryExhaustedError",
    "IntegrityManager",
    "IntegrityStats",
    "audit_blockmodel",
    "reference_blockmodel",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "ResilienceStats",
    "RetryPolicy",
    "install_fault_injector",
    "with_retries",
    "DiGraphCSR",
    "build_graph",
    "generate_category_graph",
    "generate_dcsbm",
    "load_dataset",
    "load_edge_list",
    "load_graph_with_truth",
    "A4000",
    "Device",
    "ari",
    "nmi",
    "pairwise_scores",
    "Observability",
    "Tracer",
    "MetricsRegistry",
    "build_run_report",
    "write_chrome_trace",
    "write_prometheus",
    "__version__",
]
