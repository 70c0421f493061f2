"""Ablation studies of CrossLight's individual design choices.

The paper evaluates its optimizations jointly through the four variants; this
driver isolates them one at a time, which DESIGN.md calls out as the natural
extension of the evaluation:

* **Wavelength reuse** (Section IV.C.3) -- compare the per-unit laser power
  of an FC-sized VDP unit with reuse (15 wavelengths shared across arms)
  against a hypothetical unit that dedicates one wavelength per vector
  element on a single waveguide.
* **MRs per bank** (Section IV.C.2) -- sweep the bank size and report the
  three quantities it trades off: crosstalk-limited resolution, per-unit
  laser power, and bank area.
* **Hybrid tuning latency** (Section IV.B) -- per-operation cycle time with
  EO-based weight imprinting versus thermo-optic imprinting.
* **Residual-drift accuracy** -- inference accuracy of a trained compact
  model as a function of the uncompensated resonance drift (running through
  the default two-channel noise stack of :mod:`repro.sim.noise`), connecting
  the device/circuit optimizations to model accuracy.
* **FPV Monte-Carlo accuracy** -- the same model under seeded wafer draws of
  the FPV drift channel, comparing compensated against uncompensated
  process variation (the accuracy-side view of the paper's tuning claim).

Both accuracy studies run on the ensemble-vectorized inference path: the
drift sweep evaluates all drift points as one fused ensemble, and each
Monte-Carlo study stacks its wafer draws along the ensemble axis
(:class:`repro.sim.photonic_inference.EnsembleInferenceEngine`), with
``n_workers > 1`` still available to spread seed chunks over a process pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.vdp import VDPUnit
from repro.crosstalk.resolution import crosslight_bank_resolution
from repro.devices.constants import EO_TUNING, TO_TUNING
from repro.nn.backend import resolve_precision, use_backend
from repro.nn.datasets import sign_mnist_synthetic
from repro.nn.zoo import build_model
from repro.sim.noise import FPVDriftChannel, NoiseStack, QuantizationChannel
from repro.sim.photonic_inference import (
    MonteCarloAccuracy,
    PhotonicInferenceResult,
    accuracy_vs_residual_drift,
    ideal_model_accuracy,
    monte_carlo_accuracy,
)
from repro.sim.results import format_table
from repro.sim.sweep import run_sweep
from repro.study import (
    RunContext,
    StudyConfig,
    backend_field,
    experiment,
    precision_field,
)


@dataclass(frozen=True)
class WavelengthReuseAblation:
    """Laser power with and without the wavelength-reuse organisation."""

    vector_size: int
    reuse_laser_power_w: float
    no_reuse_laser_power_w: float

    @property
    def saving_ratio(self) -> float:
        """Laser power saved by wavelength reuse (>1 means reuse wins)."""
        return self.no_reuse_laser_power_w / self.reuse_laser_power_w


@dataclass(frozen=True)
class BankSizeAblationPoint:
    """One point of the MRs-per-bank sweep."""

    mrs_per_bank: int
    resolution_bits: int
    laser_power_w: float
    bank_area_mm2: float


@dataclass(frozen=True)
class TuningLatencyAblation:
    """Per-operation cycle time with EO vs TO weight imprinting."""

    eo_cycle_time_s: float
    to_cycle_time_s: float

    @property
    def speedup(self) -> float:
        """Cycle-time ratio TO / EO (the latency benefit of hybrid tuning)."""
        return self.to_cycle_time_s / self.eo_cycle_time_s


@dataclass(frozen=True)
class FPVMonteCarloAblation:
    """Monte-Carlo accuracy with uncompensated vs tuning-compensated FPV."""

    uncompensated: MonteCarloAccuracy
    compensated: MonteCarloAccuracy

    @property
    def accuracy_recovered(self) -> float:
        """Mean accuracy the tuning loop wins back from raw FPV drift."""
        return self.compensated.mean_accuracy - self.uncompensated.mean_accuracy


@dataclass(frozen=True)
class AblationResult:
    """All ablation studies bundled together."""

    wavelength_reuse: WavelengthReuseAblation
    bank_size_sweep: tuple[BankSizeAblationPoint, ...]
    tuning_latency: TuningLatencyAblation
    drift_accuracy: tuple[PhotonicInferenceResult, ...]
    fpv_monte_carlo: FPVMonteCarloAblation | None = None


def wavelength_reuse_ablation(vector_size: int = 150) -> WavelengthReuseAblation:
    """Compare per-unit laser power with and without wavelength reuse."""
    with_reuse = VDPUnit(vector_size=vector_size, mrs_per_bank=15, mr_pitch_um=5.0)
    # Without reuse every element needs its own wavelength on one waveguide,
    # i.e. a single arm whose bank holds the full vector.
    without_reuse = VDPUnit(
        vector_size=vector_size, mrs_per_bank=vector_size, mr_pitch_um=5.0
    )
    return WavelengthReuseAblation(
        vector_size=vector_size,
        reuse_laser_power_w=with_reuse.laser_power_w(),
        no_reuse_laser_power_w=without_reuse.laser_power_w(),
    )


def _bank_size_point(mrs_per_bank: int) -> BankSizeAblationPoint:
    """Evaluate one bank size of the MRs-per-bank ablation."""
    unit = VDPUnit(
        vector_size=mrs_per_bank, mrs_per_bank=mrs_per_bank, mr_pitch_um=5.0
    )
    resolution = crosslight_bank_resolution(n_mrs_per_bank=mrs_per_bank)
    return BankSizeAblationPoint(
        mrs_per_bank=mrs_per_bank,
        resolution_bits=resolution.resolution_bits,
        laser_power_w=unit.laser_power_w(),
        bank_area_mm2=unit.area_mm2(),
    )


def bank_size_ablation(sizes=(5, 10, 15, 20, 25, 30)) -> tuple[BankSizeAblationPoint, ...]:
    """Sweep MRs per bank: resolution vs laser power vs bank area."""
    sweep = run_sweep(_bank_size_point, [{"mrs_per_bank": int(size)} for size in sizes])
    return tuple(sweep.values)


def tuning_latency_ablation(vector_size: int = 20) -> TuningLatencyAblation:
    """Cycle time with EO-based vs TO-based weight imprinting."""
    unit = VDPUnit(vector_size=vector_size, mrs_per_bank=15, mr_pitch_um=5.0)
    return TuningLatencyAblation(
        eo_cycle_time_s=unit.operation_latency_s(EO_TUNING.latency_s),
        to_cycle_time_s=unit.operation_latency_s(TO_TUNING.latency_s),
    )


def _trained_compact_model(epochs, n_train, n_test, policy, backend):
    """Train the compact LeNet-5 on Sign-MNIST under a compute policy."""
    train_x, train_y, test_x, test_y = sign_mnist_synthetic(n_train=n_train, n_test=n_test)
    model = build_model(1, compact=True)
    if not policy.exact:
        model.astype(policy.dtype)
        train_x = train_x.astype(policy.dtype, copy=False)
        test_x = test_x.astype(policy.dtype, copy=False)
    with use_backend(backend):
        model.fit(train_x, train_y, epochs=epochs, batch_size=32, seed=0)
    return model, test_x, test_y


def drift_accuracy_ablation(
    drifts_nm=(0.0, 0.05, 0.2, 0.5, 1.0, 2.1),
    epochs: int = 6,
    n_train: int = 300,
    n_test: int = 120,
    precision=None,
    backend=None,
) -> tuple[PhotonicInferenceResult, ...]:
    """Accuracy of a trained compact model vs uncompensated drift.

    ``precision`` / ``backend`` select the compute policy and kernel backend
    for both the training run and the fused drift sweep.
    """
    policy = resolve_precision(precision)
    model, test_x, test_y = _trained_compact_model(epochs, n_train, n_test, policy, backend)
    return tuple(
        accuracy_vs_residual_drift(
            model, test_x, test_y, drifts_nm, resolution_bits=16,
            precision=policy, backend=backend,
        )
    )


def fpv_monte_carlo_ablation(
    seeds=8,
    resolution_bits: int = 16,
    compensated_residual_fraction: float = 0.01,
    epochs: int = 6,
    n_train: int = 300,
    n_test: int = 120,
    n_workers: int | None = None,
    precision=None,
    backend=None,
) -> FPVMonteCarloAblation:
    """Monte-Carlo FPV accuracy with and without tuning compensation.

    Composes the quantization channel with the FPV drift channel at two
    compensation levels: fully uncompensated wafer drift (no tuning) and the
    small residual fraction a locked TED/hybrid tuning loop leaves behind.
    Each stack is evaluated over ``seeds`` independent wafer draws through
    :func:`repro.sim.photonic_inference.monte_carlo_accuracy`, which stacks
    the draws along the ensemble axis and runs fused forward passes (pass
    ``n_workers > 1`` to additionally spread seed chunks over a process
    pool).  ``precision`` / ``backend`` select the compute policy and kernel
    backend end to end, including inside worker processes.
    """
    policy = resolve_precision(precision)
    model, test_x, test_y = _trained_compact_model(epochs, n_train, n_test, policy, backend)

    def stack(residual_fraction: float) -> NoiseStack:
        return NoiseStack(
            [
                QuantizationChannel(bits=resolution_bits),
                FPVDriftChannel(residual_fraction=residual_fraction),
            ]
        )

    with use_backend(backend):
        ideal = ideal_model_accuracy(model, test_x, test_y)
    uncompensated = monte_carlo_accuracy(
        model, test_x, test_y, stack(1.0),
        seeds=seeds, activation_bits=resolution_bits, n_workers=n_workers,
        precision=policy, backend=backend, ideal_accuracy=ideal,
    )
    compensated = monte_carlo_accuracy(
        model, test_x, test_y, stack(compensated_residual_fraction),
        seeds=seeds, activation_bits=resolution_bits, n_workers=n_workers,
        precision=policy, backend=backend, ideal_accuracy=ideal,
    )
    return FPVMonteCarloAblation(uncompensated=uncompensated, compensated=compensated)


def run(
    include_drift_accuracy: bool = True,
    include_fpv_monte_carlo: bool = False,
    n_workers: int | None = None,
    precision=None,
    backend=None,
) -> AblationResult:
    """Run every ablation study (the accuracy ones train a model)."""
    drift_accuracy: tuple[PhotonicInferenceResult, ...] = ()
    if include_drift_accuracy:
        drift_accuracy = drift_accuracy_ablation(precision=precision, backend=backend)
    fpv_monte_carlo = None
    if include_fpv_monte_carlo:
        fpv_monte_carlo = fpv_monte_carlo_ablation(
            n_workers=n_workers, precision=precision, backend=backend
        )
    return AblationResult(
        wavelength_reuse=wavelength_reuse_ablation(),
        bank_size_sweep=bank_size_ablation(),
        tuning_latency=tuning_latency_ablation(),
        drift_accuracy=drift_accuracy,
        fpv_monte_carlo=fpv_monte_carlo,
    )


def format_fpv_monte_carlo(fpv: FPVMonteCarloAblation) -> str:
    """Render the FPV Monte-Carlo ablation as a text table."""
    return (
        "Ablation 5 - FPV Monte-Carlo accuracy "
        f"({len(fpv.uncompensated.seeds)} wafer draws)\n"
        + format_table(
            ["FPV compensation", "Mean accuracy", "Std", "Noise stack"],
            [
                [
                    "none (raw wafer drift)",
                    fpv.uncompensated.mean_accuracy,
                    fpv.uncompensated.std_accuracy,
                    fpv.uncompensated.noise,
                ],
                [
                    "TED/hybrid tuning",
                    fpv.compensated.mean_accuracy,
                    fpv.compensated.std_accuracy,
                    fpv.compensated.noise,
                ],
            ],
            float_format="{:.3f}",
        )
        + f"\nAccuracy recovered by tuning: {fpv.accuracy_recovered:.3f}"
    )


def _render(result: AblationResult) -> str:
    """Render all ablation studies as text tables."""
    sections = []

    reuse = result.wavelength_reuse
    sections.append(
        "Ablation 1 - wavelength reuse (K=150 FC unit)\n"
        + format_table(
            ["Organisation", "Laser power (mW)"],
            [
                ["with reuse (15 wavelengths, 10 arms)", reuse.reuse_laser_power_w * 1e3],
                ["no reuse (150 wavelengths, 1 arm)", reuse.no_reuse_laser_power_w * 1e3],
            ],
        )
        + f"\nLaser power saving from reuse: {reuse.saving_ratio:.1f}x"
    )

    sections.append(
        "Ablation 2 - MRs per bank\n"
        + format_table(
            ["MRs/bank", "Resolution (bits)", "Laser power (mW)", "Bank area (mm2)"],
            [
                [p.mrs_per_bank, p.resolution_bits, p.laser_power_w * 1e3, p.bank_area_mm2]
                for p in result.bank_size_sweep
            ],
            float_format="{:.3f}",
        )
    )

    latency = result.tuning_latency
    sections.append(
        "Ablation 3 - weight-imprint mechanism\n"
        + format_table(
            ["Mechanism", "Cycle time (ns)"],
            [
                ["EO (hybrid tuning)", latency.eo_cycle_time_s * 1e9],
                ["TO (conventional)", latency.to_cycle_time_s * 1e9],
            ],
        )
        + f"\nHybrid tuning cycle-time advantage: {latency.speedup:.0f}x"
    )

    if result.drift_accuracy:
        sections.append(
            "Ablation 4 - accuracy vs uncompensated resonance drift (compact LeNet-5)\n"
            + format_table(
                ["Residual drift (nm)", "Accuracy", "Ideal accuracy"],
                [
                    [r.residual_drift_nm, r.accuracy, r.ideal_accuracy]
                    for r in result.drift_accuracy
                ],
                float_format="{:.3f}",
            )
        )

    if result.fpv_monte_carlo is not None:
        sections.append(format_fpv_monte_carlo(result.fpv_monte_carlo))

    return "\n\n".join(sections)


@dataclass(frozen=True)
class AblationConfig(StudyConfig):
    """Run-config of the ablation studies."""

    include_drift_accuracy: bool = field(
        default=True,
        metadata={"help": "run the accuracy-vs-residual-drift study (trains a model)"},
    )
    include_fpv_monte_carlo: bool = field(
        default=False,
        metadata={"help": "run the FPV Monte-Carlo study (trains a model, "
                          "two 8-seed Monte-Carlo sweeps)"},
    )
    precision: str = precision_field()
    backend: str | None = backend_field()


@experiment(
    "ablation",
    config=AblationConfig,
    title="Ablations - wavelength reuse, bank size, tuning latency, drift accuracy",
    artefact="ablations",
)
def _study(config: AblationConfig, ctx: RunContext) -> tuple[AblationResult, str]:
    """Isolate CrossLight's design choices one at a time (paper Section IV).

    The accuracy studies run on the selected compute backend under the
    selected precision policy (``--backend`` / ``--precision``).
    """
    result = run(
        include_drift_accuracy=config.include_drift_accuracy,
        include_fpv_monte_carlo=config.include_fpv_monte_carlo,
        n_workers=ctx.n_workers,
        precision=config.precision,
        backend=config.backend,
    )
    return result, _render(result)
