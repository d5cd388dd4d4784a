"""Scaling-law projection of GSAP's device time to paper-scale graphs.

The paper's largest experiments (1M vertices, ~24M edges, ~15 minutes on
an A4000) are out of reach for a pure-Python wall-clock run, but the
simulated device's clock *is* defined at any size.  This module measures
GSAP at several feasible sizes and extrapolates to the Table 1 sizes —
giving a model-predicted analogue of Table 3's 1M row, clearly labelled
as a projection (EXPERIMENTS.md reports it as such).

Small graphs are *launch-overhead dominated* (the effect behind paper
Table 3's 1K-row reversal), so a single power law fitted at feasible
sizes would extrapolate almost flat.  The projection therefore
decomposes the simulated time into its two cost-model components and
fits each separately:

* ``launches(E)`` — kernel-launch count, scaling weakly with size
  (sweeps × kernels per batch; roughly the iteration structure);
* ``work(E)`` — the roofline term (compute/bandwidth), scaling ≈
  linearly with the edge count.

``t(E) = launches(E)·overhead + work(E)`` then transitions naturally
from the overhead-dominated to the throughput-dominated regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import SBPConfig
from ..core.partitioner import GSAPPartitioner
from ..errors import ReproError
from ..graph.datasets import load_dataset
from ..graph.generators import default_average_degree
from ..gpusim.device import A4000, Device


@dataclass(frozen=True)
class PowerLawFit:
    """``y = coefficient · x^exponent`` fitted in log-log space."""

    coefficient: float
    exponent: float
    r_squared: float

    def predict(self, x: float) -> float:
        return float(self.coefficient * x**self.exponent)


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Least-squares power-law fit; requires >= 2 positive points."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2 or len(xs) != len(ys):
        raise ReproError("power-law fit needs >= 2 aligned points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ReproError("power-law fit needs positive data")
    lx, ly = np.log(xs), np.log(ys)
    exponent, intercept = np.polyfit(lx, ly, 1)
    predicted = exponent * lx + intercept
    ss_res = float(((ly - predicted) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(
        coefficient=float(np.exp(intercept)),
        exponent=float(exponent),
        r_squared=r2,
    )


@dataclass(frozen=True)
class MeasuredPoint:
    num_vertices: int
    num_edges: int
    sim_time_s: float
    wall_time_s: float
    num_launches: int
    work_time_s: float  # sim time minus launch overheads


@dataclass(frozen=True)
class GSAPProjection:
    """Fitted two-component scaling of GSAP's simulated device time."""

    category: str
    points: Tuple[MeasuredPoint, ...]
    launch_fit: PowerLawFit
    work_fit: PowerLawFit
    launch_overhead_s: float

    def predict_sim_time(self, num_vertices: int) -> float:
        edges = default_average_degree(num_vertices) * num_vertices
        return (
            self.launch_fit.predict(edges) * self.launch_overhead_s
            + self.work_fit.predict(edges)
        )


def measure_scaling(
    category: str = "low_low",
    sizes: Sequence[int] = (500, 1_000, 2_000),
    config: Optional[SBPConfig] = None,
    seed: int = 0,
) -> GSAPProjection:
    """Run GSAP at *sizes* and fit the two-component scaling model."""
    config = config or SBPConfig(
        max_num_nodal_itr=30,
        delta_entropy_threshold1=5e-3,
        delta_entropy_threshold2=1e-3,
        seed=seed,
    )
    overhead = A4000.kernel_launch_overhead_s
    points: List[MeasuredPoint] = []
    for size in sizes:
        graph, _ = load_dataset(category, size)
        device = Device(A4000)
        result = GSAPPartitioner(config, device=device).partition(graph)
        launches = device.profiler.launch_count()
        work = max(result.sim_time_s - launches * overhead, 1e-9)
        points.append(
            MeasuredPoint(
                num_vertices=size,
                num_edges=graph.num_edges,
                sim_time_s=result.sim_time_s,
                wall_time_s=result.total_time_s,
                num_launches=launches,
                work_time_s=work,
            )
        )
    edges = [p.num_edges for p in points]
    return GSAPProjection(
        category=category,
        points=tuple(points),
        launch_fit=fit_power_law(edges, [p.num_launches for p in points]),
        work_fit=fit_power_law(edges, [p.work_time_s for p in points]),
        launch_overhead_s=overhead,
    )


def projection_markdown(
    projection: GSAPProjection,
    target_sizes: Sequence[int] = (1_000, 5_000, 20_000, 50_000, 200_000, 1_000_000),
) -> str:
    """Render measured points plus projected Table 1 sizes."""
    lines = [
        f"### Projection — GSAP simulated A4000 time ({projection.category})",
        "",
        f"launches ≈ {projection.launch_fit.coefficient:.3g} · "
        f"E^{projection.launch_fit.exponent:.2f} "
        f"(R² = {projection.launch_fit.r_squared:.3f}); "
        f"work ≈ {projection.work_fit.coefficient:.3g} · "
        f"E^{projection.work_fit.exponent:.2f} s "
        f"(R² = {projection.work_fit.r_squared:.3f})",
        "",
        "| V | E | sim time | kind |",
        "|---|---|---|---|",
    ]
    for p in projection.points:
        lines.append(
            f"| {p.num_vertices:,} | {p.num_edges:,} | "
            f"{p.sim_time_s:.3f} s | measured |"
        )
    for size in target_sizes:
        edges = int(default_average_degree(size) * size)
        predicted = projection.predict_sim_time(size)
        shown = (
            f"{predicted:.1f} s" if predicted < 120
            else f"{predicted / 60:.1f} min"
        )
        lines.append(f"| {size:,} | {edges:,} | {shown} | projected |")
    return "\n".join(lines)
