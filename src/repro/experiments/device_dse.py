"""Experiment E-DEV: reproduce the Section IV.A device design-space exploration.

The paper fabricates MRs with varying input/ring waveguide widths and finds
that the 400 nm (input) / 800 nm (ring) design reduces FPV-induced resonance
drift from 7.1 nm to 2.1 nm -- a 70 % reduction -- while keeping insertion
loss and Q-factor acceptable.  This driver reruns the exploration through the
calibrated FPV sensitivity model and reports the drift landscape, the
selected design, and the drift reduction relative to the conventional design.
The width grid is evaluated on the unified sweep engine via
:func:`repro.variations.design_space.explore_design_space`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.devices.constants import CONVENTIONAL_MR, OPTIMIZED_MR
from repro.variations.design_space import (
    MRDesignCandidate,
    best_design,
    drift_reduction_percent,
    explore_design_space,
)
from repro.variations.fpv import expected_fpv_drift_nm
from repro.sim.results import format_table
from repro.study import RunContext, StudyConfig, experiment


@dataclass(frozen=True)
class DeviceDSEResult:
    """Outcome of the MR device design-space exploration."""

    candidates: tuple[MRDesignCandidate, ...]
    best: MRDesignCandidate
    conventional_drift_nm: float
    optimized_drift_nm: float

    @property
    def drift_reduction_percent(self) -> float:
        """Reduction in FPV drift going from conventional to optimized MRs."""
        return 100.0 * (1.0 - self.optimized_drift_nm / self.conventional_drift_nm)


def run() -> DeviceDSEResult:
    """Run the waveguide-width exploration and collect the headline numbers."""
    candidates = tuple(explore_design_space())
    winner = best_design(candidates)
    return DeviceDSEResult(
        candidates=candidates,
        best=winner,
        conventional_drift_nm=expected_fpv_drift_nm(CONVENTIONAL_MR),
        optimized_drift_nm=expected_fpv_drift_nm(OPTIMIZED_MR),
    )


def paper_drift_reduction_percent() -> float:
    """The paper's reported reduction (7.1 nm -> 2.1 nm, ~70 %)."""
    return drift_reduction_percent()


def _render(result: DeviceDSEResult, max_rows: int = 12) -> str:
    """Render the exploration results as a text table."""
    rows = [
        [
            f"{c.input_waveguide_width_nm:.0f}/{c.ring_waveguide_width_nm:.0f}",
            c.fpv_drift_nm,
            c.insertion_loss_db,
            c.quality_factor,
            c.figure_of_merit,
        ]
        for c in result.candidates[:max_rows]
    ]
    table = format_table(
        ["Widths in/ring (nm)", "FPV drift (nm)", "Loss (dB)", "Q", "FoM"],
        rows,
    )
    header = (
        "Section IV.A reproduction - MR device design-space exploration\n"
        f"Selected design: {result.best.input_waveguide_width_nm:.0f} nm input / "
        f"{result.best.ring_waveguide_width_nm:.0f} nm ring waveguide; "
        f"drift {result.conventional_drift_nm:.1f} nm -> {result.optimized_drift_nm:.1f} nm "
        f"({result.drift_reduction_percent:.0f}% reduction, paper reports 70%).\n"
    )
    return header + table


@dataclass(frozen=True)
class DeviceDSEConfig(StudyConfig):
    """Run-config of the Section IV.A device exploration."""

    max_rows: int = field(
        default=12, metadata={"help": "candidate designs shown in the report", "min": 1}
    )


@experiment(
    "device_dse",
    config=DeviceDSEConfig,
    title="Section IV.A - MR waveguide-width design exploration",
    artefact="Section IV.A",
)
def _study(config: DeviceDSEConfig, ctx: RunContext) -> tuple[DeviceDSEResult, str]:
    """Reproduce Section IV.A: the waveguide-width FPV-drift exploration."""
    result = run()
    return result, _render(result, max_rows=config.max_rows)
