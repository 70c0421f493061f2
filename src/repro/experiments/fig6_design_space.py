"""Experiment E-F6: reproduce Fig. 6 (architecture design-space exploration).

Fig. 6 is a scatterplot of average FPS vs average energy-per-bit vs area over
configurations of the (N, K, n, m) architecture geometry.  The paper selects
the configuration with the highest FPS/EPB -- (20, 150, 100, 60) -- which is
also the highest-FPS configuration, at a higher (but still comparable) area
than the alternatives.

This driver sweeps the same geometry space with the Cross_opt_TED device/
tuning configuration, evaluates every point on the four Table-I workloads,
and reports the scatter together with the selected configuration.  The
selection is made among configurations that respect the paper's ~25 mm^2
area envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.arch.accelerator import CrossLightAccelerator
from repro.arch.config import CrossLightConfig, design_space_geometries
from repro.nn.zoo import build_all_models
from repro.sim.simulator import simulate_models
from repro.sim.results import format_table
from repro.sim.sweep import SweepExecutor, run_sweep
from repro.study import RunContext, StudyConfig, experiment

#: Area envelope applied when selecting the best configuration (mm^2).
DEFAULT_AREA_BUDGET_MM2 = 25.0


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated geometry of the design-space exploration."""

    conv_vector_size: int
    fc_vector_size: int
    n_conv_units: int
    n_fc_units: int
    avg_fps: float
    avg_epb_pj_per_bit: float
    area_mm2: float
    power_w: float

    @property
    def geometry(self) -> tuple[int, int, int, int]:
        """The (N, K, n, m) tuple of this design point."""
        return (
            self.conv_vector_size,
            self.fc_vector_size,
            self.n_conv_units,
            self.n_fc_units,
        )

    @property
    def fps_per_epb(self) -> float:
        """Selection metric used by the paper (higher is better)."""
        return self.avg_fps / self.avg_epb_pj_per_bit


@dataclass(frozen=True)
class Fig6Result:
    """All evaluated design points plus the selected configuration."""

    points: tuple[DesignPoint, ...]
    area_budget_mm2: float

    @property
    def feasible_points(self) -> tuple[DesignPoint, ...]:
        """Design points within the area envelope."""
        return tuple(p for p in self.points if p.area_mm2 <= self.area_budget_mm2)

    @property
    def best(self) -> DesignPoint:
        """Feasible point with the highest FPS/EPB."""
        feasible = self.feasible_points
        if not feasible:
            raise RuntimeError("no design point satisfies the area budget")
        return max(feasible, key=lambda p: p.fps_per_epb)

    def point_for(self, geometry: tuple[int, int, int, int]) -> DesignPoint:
        """The evaluated point with the given (N, K, n, m) geometry."""
        for point in self.points:
            if point.geometry == geometry:
                return point
        raise KeyError(f"geometry {geometry} was not part of the sweep")


def _evaluate_geometry(geometry, base: CrossLightConfig, models) -> DesignPoint:
    """Evaluate one (N, K, n, m) geometry on the Table-I workloads.

    Module-level so that :func:`run` can fan geometries out to a process
    pool (``n_workers > 1``) via the sweep engine.
    """
    n_size, k_size, n_units, m_units = geometry
    config = base.with_geometry(n_size, k_size, n_units, m_units)
    accelerator = CrossLightAccelerator(config=config)
    aggregate = simulate_models(accelerator, models)
    return DesignPoint(
        conv_vector_size=n_size,
        fc_vector_size=k_size,
        n_conv_units=n_units,
        n_fc_units=m_units,
        avg_fps=aggregate.avg_fps,
        avg_epb_pj_per_bit=aggregate.avg_epb_pj_per_bit,
        area_mm2=accelerator.area_mm2(),
        power_w=accelerator.total_power_w,
    )


def run(
    geometries=None,
    area_budget_mm2: float = DEFAULT_AREA_BUDGET_MM2,
    models=None,
    n_workers: int | None = None,
    executor: SweepExecutor | None = None,
) -> Fig6Result:
    """Evaluate every geometry of the sweep on the Table-I workloads.

    Parameters
    ----------
    geometries:
        (N, K, n, m) tuples to evaluate; defaults to the full paper sweep.
    area_budget_mm2:
        Area envelope applied when selecting the best configuration.
    models:
        Workload models; defaults to the four full-size Table-I models.
    n_workers:
        Passed to the sweep engine: ``> 1`` evaluates the (independent)
        geometries on a process pool, ``None``/``0``/``1`` run serially.
    executor:
        Optional warm :class:`SweepExecutor` (takes precedence over
        ``n_workers``), so a multi-study session reuses one pool.
    """
    geometries = list(geometries) if geometries is not None else list(design_space_geometries())
    models = models or build_all_models()
    base = CrossLightConfig.cross_opt_ted()
    sweep = run_sweep(
        partial(_evaluate_geometry, base=base, models=models),
        [{"geometry": tuple(geometry)} for geometry in geometries],
        n_workers=n_workers,
        executor=executor,
    )
    return Fig6Result(points=tuple(sweep.values), area_budget_mm2=area_budget_mm2)


def _render(result: Fig6Result, max_rows: int = 20) -> str:
    """Render the Fig. 6 scatter (top configurations by FPS/EPB) as text."""
    ranked = sorted(result.feasible_points, key=lambda p: p.fps_per_epb, reverse=True)
    rows = [
        [
            str(p.geometry),
            p.avg_fps,
            p.avg_epb_pj_per_bit,
            p.area_mm2,
            p.power_w,
            p.fps_per_epb,
        ]
        for p in ranked[:max_rows]
    ]
    table = format_table(
        ["(N, K, n, m)", "avg FPS", "avg EPB (pJ/b)", "area (mm2)", "power (W)", "FPS/EPB"],
        rows,
    )
    best = result.best
    paper_point = result.point_for((20, 150, 100, 60))
    header = (
        "Fig. 6 reproduction - design-space exploration (Cross_opt_TED devices)\n"
        f"Selected configuration: {best.geometry} "
        f"(FPS/EPB = {best.fps_per_epb:.1f}); "
        f"paper configuration (20, 150, 100, 60) achieves "
        f"{paper_point.fps_per_epb:.1f} ({100 * paper_point.fps_per_epb / best.fps_per_epb:.0f}% of best) "
        f"and the highest avg FPS of the sweep ({paper_point.avg_fps:.0f}).\n"
    )
    return header + table


@dataclass(frozen=True)
class Fig6Config(StudyConfig):
    """Run-config of the Fig. 6 design-space exploration."""

    area_budget_mm2: float = field(
        default=DEFAULT_AREA_BUDGET_MM2,
        metadata={"help": "area envelope for the selection (mm^2)", "min": 0.1},
    )
    max_rows: int = field(
        default=20, metadata={"help": "top configurations shown in the report", "min": 1}
    )
    geometries: tuple[int, ...] | None = field(
        default=None,
        metadata={
            "help": "flat (N K n m) quadruples overriding the full paper sweep, "
            "e.g. --geometries 20 150 100 60 10 100 50 30"
        },
    )

    def check(self) -> None:
        if self.geometries is not None and len(self.geometries) % 4 != 0:
            raise ValueError(
                "geometries must hold whole (N, K, n, m) quadruples; "
                f"got {len(self.geometries)} values"
            )


@experiment(
    "fig6",
    config=Fig6Config,
    title="Fig. 6 - FPS vs EPB vs area design-space exploration",
    artefact="Fig. 6",
)
def _study(config: Fig6Config, ctx: RunContext) -> tuple[Fig6Result, str]:
    """Reproduce Fig. 6: sweep the (N, K, n, m) geometry space on Table-I workloads."""
    geometries = None
    if config.geometries is not None:
        flat = config.geometries
        geometries = [tuple(flat[i:i + 4]) for i in range(0, len(flat), 4)]
    result = run(
        geometries=geometries,
        area_budget_mm2=config.area_budget_mm2,
        n_workers=ctx.n_workers,
        executor=ctx.executor,
    )
    return result, _render(result, max_rows=config.max_rows)
