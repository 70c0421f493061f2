"""Experiment E-T3: reproduce Table III (average EPB and kFPS/W).

Table III lists the average energy-per-bit (pJ/bit) and performance-per-watt
(kFPS/W) of every platform in the comparison: the six electronic platforms
(published reference values), the two prior photonic accelerators, and the
four CrossLight variants.  The headline claims:

* Cross_opt_TED achieves 9.5x lower EPB and 15.9x higher kFPS/W than
  HolyLight, the stronger of the two photonic baselines;
* the CrossLight variants improve monotonically with each added
  optimization (base -> base_TED -> opt -> opt_TED).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.electronic import ELECTRONIC_PLATFORMS, PAPER_PHOTONIC_REFERENCE
from repro.sim.simulator import compare_accelerators
from repro.sim.results import format_table
from repro.study import RunContext, StudyConfig, experiment


@dataclass(frozen=True)
class Table3Row:
    """One row of the reproduced Table III."""

    name: str
    avg_epb_pj_per_bit: float
    avg_kfps_per_watt: float
    source: str
    paper_epb_pj_per_bit: float | None = None
    paper_kfps_per_watt: float | None = None


@dataclass(frozen=True)
class Table3Result:
    """The reproduced Table III."""

    rows: tuple[Table3Row, ...]

    def row_for(self, name: str) -> Table3Row:
        """Row with the given platform name."""
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(f"no Table III row for {name!r}")

    def epb_improvement_over_holylight(self) -> float:
        """EPB ratio HolyLight / Cross_opt_TED (paper: 9.5x)."""
        return (
            self.row_for("Holylight").avg_epb_pj_per_bit
            / self.row_for("Cross_opt_TED").avg_epb_pj_per_bit
        )

    def perf_per_watt_improvement_over_holylight(self) -> float:
        """kFPS/W ratio Cross_opt_TED / HolyLight (paper: 15.9x)."""
        return (
            self.row_for("Cross_opt_TED").avg_kfps_per_watt
            / self.row_for("Holylight").avg_kfps_per_watt
        )

    def epb_improvement_over_deap(self) -> float:
        """EPB ratio DEAP-CNN / Cross_opt_TED (paper: 1544x)."""
        return (
            self.row_for("DEAP_CNN").avg_epb_pj_per_bit
            / self.row_for("Cross_opt_TED").avg_epb_pj_per_bit
        )


def run(models=None) -> Table3Result:
    """Simulate the photonic accelerators and assemble the full Table III."""
    rows: list[Table3Row] = [
        Table3Row(
            name=platform.name,
            avg_epb_pj_per_bit=platform.avg_epb_pj_per_bit,
            avg_kfps_per_watt=platform.avg_kfps_per_watt,
            source="published reference",
        )
        for platform in ELECTRONIC_PLATFORMS
    ]
    comparison = compare_accelerators(models=models)
    for aggregate in comparison.aggregates:
        reference = PAPER_PHOTONIC_REFERENCE.get(aggregate.accelerator, {})
        rows.append(
            Table3Row(
                name=aggregate.accelerator,
                avg_epb_pj_per_bit=aggregate.avg_epb_pj_per_bit,
                avg_kfps_per_watt=aggregate.avg_kfps_per_watt,
                source="simulated",
                paper_epb_pj_per_bit=reference.get("avg_epb_pj_per_bit"),
                paper_kfps_per_watt=reference.get("avg_kfps_per_watt"),
            )
        )
    return Table3Result(rows=tuple(rows))


def _render(result: Table3Result) -> str:
    """Render the reproduced Table III as text."""
    rows = []
    for row in result.rows:
        rows.append(
            [
                row.name,
                row.avg_epb_pj_per_bit,
                row.avg_kfps_per_watt,
                row.paper_epb_pj_per_bit if row.paper_epb_pj_per_bit is not None else "-",
                row.paper_kfps_per_watt if row.paper_kfps_per_watt is not None else "-",
                row.source,
            ]
        )
    table = format_table(
        ["Platform", "EPB (pJ/bit)", "kFPS/W", "Paper EPB", "Paper kFPS/W", "Source"],
        rows,
    )
    header = (
        "Table III reproduction - average EPB and performance-per-watt\n"
        f"Cross_opt_TED vs Holylight: {result.epb_improvement_over_holylight():.1f}x lower EPB "
        f"(paper 9.5x), {result.perf_per_watt_improvement_over_holylight():.1f}x higher kFPS/W "
        f"(paper 15.9x); vs DEAP-CNN: {result.epb_improvement_over_deap():.0f}x lower EPB "
        f"(paper 1544x).\n"
    )
    return header + table


@dataclass(frozen=True)
class Table3Config(StudyConfig):
    """Run-config of the Table III reproduction (no tunable settings)."""


@experiment(
    "table3_summary",
    config=Table3Config,
    title="Table III - average EPB and kFPS/W of all platforms",
    artefact="Table III",
)
def _study(config: Table3Config, ctx: RunContext) -> tuple[Table3Result, str]:
    """Reproduce Table III: average EPB and kFPS/W across all platforms."""
    result = run()
    return result, _render(result)
