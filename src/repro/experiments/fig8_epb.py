"""Experiment E-F8: reproduce Fig. 8 (energy-per-bit of photonic accelerators).

Fig. 8 plots the energy-per-bit (EPB) of each photonic accelerator --
DEAP-CNN, HolyLight, and the four CrossLight variants -- separately for each
of the four DNN models.  The qualitative claims to reproduce:

* the CrossLight variants improve monotonically from Cross_base to
  Cross_opt_TED on every model;
* Cross_opt_TED achieves roughly an order of magnitude lower EPB than
  HolyLight (9.5x on average in the paper) and several orders of magnitude
  lower EPB than DEAP-CNN (1544x on average in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.metrics import InferenceReport
from repro.nn.zoo import build_all_models
from repro.sim.simulator import default_accelerators, simulate_model
from repro.sim.results import format_table
from repro.study import RunContext, StudyConfig, experiment


@dataclass(frozen=True)
class Fig8Result:
    """Per-model EPB of every photonic accelerator."""

    reports: tuple[InferenceReport, ...]

    @property
    def accelerators(self) -> tuple[str, ...]:
        """Accelerator names in simulation order (deduplicated)."""
        seen: list[str] = []
        for report in self.reports:
            if report.accelerator not in seen:
                seen.append(report.accelerator)
        return tuple(seen)

    @property
    def models(self) -> tuple[str, ...]:
        """Model names in simulation order (deduplicated)."""
        seen: list[str] = []
        for report in self.reports:
            if report.model not in seen:
                seen.append(report.model)
        return tuple(seen)

    def epb(self, accelerator: str, model: str) -> float:
        """EPB (pJ/bit) of one accelerator on one model."""
        for report in self.reports:
            if report.accelerator == accelerator and report.model == model:
                return report.epb_pj_per_bit
        raise KeyError(f"no report for {accelerator!r} on {model!r}")

    def average_epb(self, accelerator: str) -> float:
        """Average EPB of an accelerator across all models."""
        values = [
            report.epb_pj_per_bit
            for report in self.reports
            if report.accelerator == accelerator
        ]
        if not values:
            raise KeyError(f"no reports for accelerator {accelerator!r}")
        return sum(values) / len(values)


def run(models=None) -> Fig8Result:
    """Simulate every photonic accelerator on every Table-I model."""
    models = models or build_all_models()
    reports = []
    for accelerator in default_accelerators():
        for _, model in sorted(models.items()):
            reports.append(simulate_model(accelerator, model))
    return Fig8Result(reports=tuple(reports))


def _render(result: Fig8Result) -> str:
    """Render the Fig. 8 EPB comparison as a text table."""
    headers = ["Accelerator"] + [m for m in result.models] + ["Average"]
    rows = []
    for accelerator in result.accelerators:
        row = [accelerator]
        row.extend(result.epb(accelerator, model) for model in result.models)
        row.append(result.average_epb(accelerator))
        rows.append(row)
    table = format_table(headers, rows)
    return "Fig. 8 reproduction - energy per bit (pJ/bit) per model\n" + table


@dataclass(frozen=True)
class Fig8Config(StudyConfig):
    """Run-config of the Fig. 8 reproduction (no tunable settings)."""


@experiment(
    "fig8",
    config=Fig8Config,
    title="Fig. 8 - energy-per-bit per model, photonic accelerators",
    artefact="Fig. 8",
)
def _study(config: Fig8Config, ctx: RunContext) -> tuple[Fig8Result, str]:
    """Reproduce Fig. 8: per-model EPB of every photonic accelerator."""
    result = run()
    return result, _render(result)
