"""Experiment E-T1: reproduce Table I (evaluation models and datasets).

Builds the four full-size zoo models and reports, for each, the CONV/FC
layer counts and parameter totals next to the values Table I lists, plus the
synthetic stand-in dataset used in place of the paper's dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.model import SiameseModel
from repro.nn.zoo import MODEL_SPECS, build_model
from repro.sim.results import format_table
from repro.study import RunContext, StudyConfig, experiment


@dataclass(frozen=True)
class ModelRow:
    """One row of the reproduced Table I."""

    index: int
    name: str
    conv_layers: int
    fc_layers: int
    parameters: int
    paper_conv_layers: int
    paper_fc_layers: int
    paper_parameters: int
    dataset: str

    @property
    def parameter_error_percent(self) -> float:
        """Relative deviation of the reproduced parameter count from Table I."""
        return 100.0 * abs(self.parameters - self.paper_parameters) / self.paper_parameters


def run() -> list[ModelRow]:
    """Build all four models and compare their structure against Table I."""
    rows = []
    for spec in MODEL_SPECS:
        model = build_model(spec.index)
        conv = model.count_layers("conv")
        fc = model.count_layers("fc")
        if isinstance(model, SiameseModel):
            # The paper counts both twin branches of the Siamese network.
            conv *= 2
            fc *= 2
        rows.append(
            ModelRow(
                index=spec.index,
                name=spec.name,
                conv_layers=conv,
                fc_layers=fc,
                parameters=model.n_parameters,
                paper_conv_layers=spec.conv_layers,
                paper_fc_layers=spec.fc_layers,
                paper_parameters=spec.paper_parameters,
                dataset=spec.dataset.name,
            )
        )
    return rows


def _render(rows: list[ModelRow]) -> str:
    """Render the reproduced Table I as text."""
    table = format_table(
        ["Model", "CONV", "FC", "Params", "Paper params", "Err %", "Dataset (synthetic)"],
        [
            [
                f"{r.index}: {r.name}",
                r.conv_layers,
                r.fc_layers,
                r.parameters,
                r.paper_parameters,
                r.parameter_error_percent,
                r.dataset,
            ]
            for r in rows
        ],
    )
    return "Table I reproduction - evaluation models\n" + table


@dataclass(frozen=True)
class Table1Config(StudyConfig):
    """Run-config of the Table I reproduction (no tunable settings)."""


@experiment(
    "table1_models",
    config=Table1Config,
    title="Table I - evaluation models and datasets",
    artefact="Table I",
)
def _study(config: Table1Config, ctx: RunContext) -> tuple[list[ModelRow], str]:
    """Reproduce Table I: model structure vs the paper's layer/param counts."""
    rows = run()
    return rows, _render(rows)
