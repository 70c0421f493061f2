"""Composable noise channels for photonic inference.

The paper's core claim is that cross-layer co-design suppresses a *stack* of
non-idealities -- finite resolution, FPV resonance drift, thermal and
inter-channel crosstalk -- yet a closed inference engine can only ever model
the subset hard-wired into its constructor.  This module turns every
non-ideality into a pluggable **noise channel**: a small object that perturbs
a weight tensor the way the corresponding physical effect perturbs the
transmissions an MR bank imprints.

* :class:`NoiseChannel` -- the protocol: ``apply(weights, rng) -> ndarray``
  plus a ``describe()`` string for reports;
* :class:`QuantizationChannel` -- finite DAC/crosstalk-limited resolution;
* :class:`ResidualDriftChannel` -- uniform uncompensated resonance drift via
  the vectorized Lorentzian of
  :meth:`repro.devices.mr.MicroringResonator.transmission_error_from_drift`;
* :class:`FPVDriftChannel` -- Monte-Carlo fabrication-process-variation
  drift sampled per ring (bank-correlated) from a
  :class:`repro.variations.fpv.ProcessVariationModel`;
* :class:`InterChannelCrosstalkChannel` -- spectral (Eq. 8-10) crosstalk
  mixing weights within an MR bank through the Lorentzian phi-matrix of
  :mod:`repro.crosstalk.interchannel`;
* :class:`ThermalCrosstalkChannel` -- heater-induced phase leakage between
  neighbouring rings, reusing the memoized crosstalk matrices of
  :mod:`repro.variations.thermal`;
* :class:`NoiseStack` -- an ordered composition of channels that is itself a
  channel, consumed by
  :class:`repro.sim.photonic_inference.PhotonicInferenceEngine`.

All channels are array-first (one vectorized evaluation per weight tensor),
stateless between calls (randomness comes from the generator passed to
``apply``, so a seeded engine is reproducible), and picklable (plain frozen
dataclasses), which lets Monte-Carlo sweeps fan them out across a process
pool via :func:`repro.sim.sweep.run_sweep`.

They are also **ensemble-aware**: ``apply_many(weights, rngs)`` returns an
``(E, *weights.shape)`` stack whose member ``e`` is elementwise identical to
``apply(weights, rngs[e])``.  Each built-in channel's ``apply_fanout``
evaluates the member-independent work once on the shared base tensor --
deterministic channels (quantization, crosstalk mixing) stay shared, the
drift channels compute their normalised magnitudes and Lorentzian profiles
once and draw per member -- and after a :class:`NoiseStack` forks into
per-member tensors every later channel runs its own ``apply`` once per
member (:func:`ensemble_apply`), which is also how third-party channels
that only implement ``apply`` compose.

Conventions
-----------
Channels receive the raw (signed) weight tensor.  Device-physics channels
normalise magnitudes by the tensor's dynamic range -- exactly what the DAC
does when programming an MR bank -- perturb the resulting transmissions in
[0, 1], and scale back.  Channels that model *banked* effects (crosstalk,
bank-correlated FPV) flatten the tensor and group consecutive elements into
banks of ``mrs_per_bank`` rings, matching how the decomposed vectors map
onto the accelerator's MR banks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.crosstalk.interchannel import bank_crosstalk_matrix
from repro.devices.constants import OPTIMIZED_MR, MRDesignParameters
from repro.devices.mr import MicroringResonator
from repro.nn.quantization import quantize_array
from repro.utils.validation import check_non_negative, check_positive, check_positive_int
from repro.variations.fpv import (
    ProcessVariationModel,
    expected_fpv_drift_nm,
    sample_banked_drifts,
)
from repro.variations.thermal import ThermalCrosstalkModel

__all__ = [
    "FPVDriftChannel",
    "InterChannelCrosstalkChannel",
    "NoiseChannel",
    "NoiseStack",
    "QuantizationChannel",
    "ResidualDriftChannel",
    "ThermalCrosstalkChannel",
    "default_noise_stack",
    "ensemble_apply",
]


@runtime_checkable
class NoiseChannel(Protocol):
    """One weight-perturbing non-ideality of the photonic substrate.

    Implementations must not mutate the input tensor, must be no-ops at zero
    magnitude (so ablations can switch effects off without restructuring the
    stack), and must draw any randomness from the generator passed to
    :meth:`apply` (so a seeded engine replays identically).
    """

    def apply(self, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return the perturbed weight tensor (same shape as ``weights``)."""
        ...

    def describe(self) -> str:
        """One-line human-readable summary for reports and result records."""
        ...


def ensemble_apply(
    channel: NoiseChannel,
    stacked: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Apply ``channel`` to every member of a stacked ensemble.

    ``stacked`` has shape ``(E, *shape)`` with ``E == len(rngs)``: member
    ``e``'s weight tensor is ``stacked[e]`` and is perturbed with ``rngs[e]``
    through ``channel.apply`` -- the same call, weights and random draws the
    member would see on its own.
    """
    return np.stack(
        [np.asarray(channel.apply(stacked[e], rngs[e]), dtype=float) for e in range(len(rngs))]
    )


class _EnsembleChannelMixin:
    """Many-seed evaluation shared by the built-in channels.

    :meth:`apply_many` perturbs one shared base tensor under ``E``
    independent generators (the Monte-Carlo "many wafer draws of one trained
    model" shape) through :meth:`apply_fanout`.

    :meth:`apply_fanout` receives the still-shared base tensor and may return
    either a *base-shaped* array (the channel is deterministic and its output
    remains common to every member -- quantization and the crosstalk mixers
    do this, so one evaluation serves all E members) or an ``(E, *shape)``
    stack (the channel consumes randomness and forks the ensemble; the drift
    channels do this while still computing their member-independent device
    physics -- normalised magnitudes, Lorentzian error profiles -- exactly
    once).  A channel must only return a base-shaped array if ``apply``
    ignores the generator entirely; the default forks immediately into one
    ``apply`` per member, which is always correct.
    """

    def apply_fanout(
        self, base: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Apply to a shared base tensor; may stay shared (see class docs)."""
        return ensemble_apply(self, np.broadcast_to(base, (len(rngs), *base.shape)), rngs)

    def apply_many(
        self, weights: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Perturb ``weights`` once per generator; returns ``(E, *shape)``.

        Member ``e`` of the result is elementwise identical to
        ``self.apply(weights, rngs[e])``.
        """
        rngs = list(rngs)
        if not rngs:
            raise ValueError("apply_many requires at least one generator")
        base = np.asarray(weights, dtype=float)
        out = np.asarray(self.apply_fanout(base, rngs), dtype=float)
        if out.ndim == base.ndim:
            # Fully deterministic: every member shares one evaluation.
            stacked = np.empty((len(rngs), *base.shape), dtype=float)
            stacked[...] = out
            return stacked
        if np.may_share_memory(out, base):
            out = np.array(out, dtype=float)
        return out


# ---------------------------------------------------------------------- #
# Shared helpers
# ---------------------------------------------------------------------- #
def _tensor_magnitudes(weights: np.ndarray) -> tuple[np.ndarray, float]:
    """The tensor's dynamic range and normalised magnitudes (flat)."""
    max_abs = float(np.max(np.abs(weights))) if weights.size else 0.0
    if max_abs == 0.0:
        return np.zeros(weights.size), 0.0
    return np.abs(weights).ravel() / max_abs, max_abs


def _to_banks(flat: np.ndarray, bank_size: int) -> np.ndarray:
    """Pad a flat magnitude vector and fold it into ``(n_banks, bank_size)``.

    Padding rings carry zero weight (parked, no optical power), so they do
    not contribute crosstalk and are discarded by :func:`_from_banks`.
    """
    n_banks = -(-flat.size // bank_size)
    padded = np.zeros(n_banks * bank_size)
    padded[: flat.size] = flat
    return padded.reshape(n_banks, bank_size)


def _from_banks(banked: np.ndarray, n: int) -> np.ndarray:
    """Unfold a banked array back into the first ``n`` flat elements."""
    return banked.reshape(-1)[:n]


def _recompose(weights: np.ndarray, magnitudes: np.ndarray, max_abs: float) -> np.ndarray:
    """Rebuild a signed weight tensor from perturbed magnitudes.

    Zero weights keep their parked rings dark (sign 0), so leakage into
    unused channels is intentionally not re-imprinted as weight.
    """
    return (np.sign(weights).ravel() * magnitudes * max_abs).reshape(weights.shape)


# ---------------------------------------------------------------------- #
# Concrete channels
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class QuantizationChannel(_EnsembleChannelMixin):
    """Finite weight resolution of the crosstalk-limited MR banks.

    ``bits=None`` models an ideal (infinite-resolution) DAC and is an exact
    no-op, which is this channel's zero-magnitude configuration.
    """

    bits: int | None = 16

    def __post_init__(self) -> None:
        if self.bits is not None:
            check_positive_int("bits", self.bits)

    def apply(self, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        if self.bits is None:
            return weights
        return quantize_array(weights, self.bits)

    def apply_fanout(
        self, base: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Deterministic: one quantization serves every ensemble member."""
        return self.apply(base, rngs[0])

    def describe(self) -> str:
        if self.bits is None:
            return "quantization(off)"
        return f"quantization({self.bits} bit)"


@dataclass(frozen=True)
class ResidualDriftChannel(_EnsembleChannelMixin):
    """Uniform uncompensated resonance drift (what survives the tuning loop).

    Every ring is assumed to sit ``residual_drift_nm`` away from its
    calibrated resonance; the per-weight error magnitude follows the ring's
    Lorentzian sensitivity at that drift, and the error sign is random per
    ring (a given ring drifts towards or away from its target).
    :func:`default_noise_stack` pairs it with a quantization channel.
    """

    residual_drift_nm: float = 0.0
    mr: MicroringResonator = field(default_factory=MicroringResonator.optimized)

    def __post_init__(self) -> None:
        check_non_negative("residual_drift_nm", self.residual_drift_nm)

    def apply(self, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        if self.residual_drift_nm <= 0.0:
            return weights
        max_abs = float(np.max(np.abs(weights))) if weights.size else 0.0
        if max_abs == 0.0:
            return weights
        normalised = np.abs(weights) / max_abs
        errors = np.asarray(
            self.mr.transmission_error_from_drift(normalised, self.residual_drift_nm)
        )
        signs = rng.choice([-1.0, 1.0], size=errors.shape)
        return weights + signs * errors * max_abs

    def apply_fanout(
        self, base: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Shared-base fast path: one Lorentzian profile, per-member signs.

        The error *magnitudes* depend only on the (shared) normalised
        weights, so they are computed once; only the random sign field is
        per-member work.
        """
        base = np.asarray(base, dtype=float)
        if self.residual_drift_nm <= 0.0:
            return base
        max_abs = float(np.max(np.abs(base))) if base.size else 0.0
        if max_abs == 0.0:
            return base
        normalised = np.abs(base) / max_abs
        errors = np.asarray(
            self.mr.transmission_error_from_drift(normalised, self.residual_drift_nm)
        )
        signs = np.stack([rng.choice([-1.0, 1.0], size=base.shape) for rng in rngs])
        return base + signs * errors * max_abs

    def describe(self) -> str:
        return f"residual-drift({self.residual_drift_nm:g} nm)"


@dataclass(frozen=True)
class FPVDriftChannel(_EnsembleChannelMixin):
    """Monte-Carlo fabrication-process-variation resonance drift.

    Each ring draws a signed drift from the wafer statistics of a
    :class:`~repro.variations.fpv.ProcessVariationModel` (3-sigma magnitude
    calibrated to the paper's measured 7.1 / 2.1 nm figures for the
    conventional / optimized designs), with rings of one bank sharing a
    correlated systematic component.  The drift moves each weight along its
    ring's Lorentzian; the applied perturbation is the *change* in realised
    transmission, so a zero drift is an exact no-op.

    ``residual_fraction`` scales the sampled drifts: 1.0 models fully
    uncompensated FPV (no tuning), while a small fraction models what is
    left after the TED/hybrid tuning loop locks the bank.  Either
    ``residual_fraction=0`` or a zero-variance variation model makes the
    channel a no-op.
    """

    design: MRDesignParameters = field(default_factory=lambda: OPTIMIZED_MR)
    variation: ProcessVariationModel = field(default_factory=ProcessVariationModel)
    mrs_per_bank: int = 15
    bank_correlation: float = 0.8
    residual_fraction: float = 1.0

    def __post_init__(self) -> None:
        check_positive_int("mrs_per_bank", self.mrs_per_bank)
        check_non_negative("residual_fraction", self.residual_fraction)
        if not 0.0 <= self.bank_correlation <= 1.0:
            raise ValueError("bank_correlation must be in [0, 1]")

    @property
    def sigma_nm(self) -> float:
        """Per-ring residual drift standard deviation this channel applies."""
        return self.residual_fraction * expected_fpv_drift_nm(self.design, self.variation) / 3.0

    def apply(self, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        sigma = self.sigma_nm
        if sigma <= 0.0 or weights.size == 0:
            return weights
        magnitudes, max_abs = _tensor_magnitudes(weights)
        if max_abs == 0.0:
            return weights
        drifts = sample_banked_drifts(
            rng,
            magnitudes.size,
            sigma,
            bank_size=self.mrs_per_bank,
            bank_correlation=self.bank_correlation,
        )
        mr = MicroringResonator(design=self.design)
        realised = np.asarray(mr.realised_transmission(magnitudes, drifts))
        ideal = np.asarray(mr.realised_transmission(magnitudes, 0.0))
        perturbed = np.clip(magnitudes + (realised - ideal), 0.0, 1.0)
        return _recompose(weights, perturbed, max_abs)

    def apply_fanout(
        self, base: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Shared-base fast path: shared magnitudes/ideal, per-member drifts.

        The normalised magnitudes and the zero-drift (ideal) transmissions
        depend only on the shared base tensor and are evaluated once; each
        member contributes its wafer draw and one row of the fused
        realised-transmission Lorentzian.
        """
        base = np.asarray(base, dtype=float)
        sigma = self.sigma_nm
        if sigma <= 0.0 or base.size == 0:
            return base
        magnitudes, max_abs = _tensor_magnitudes(base)
        if max_abs == 0.0:
            return base
        drifts = np.stack(
            [
                sample_banked_drifts(
                    rng,
                    magnitudes.size,
                    sigma,
                    bank_size=self.mrs_per_bank,
                    bank_correlation=self.bank_correlation,
                )
                for rng in rngs
            ]
        )
        mr = MicroringResonator(design=self.design)
        realised = np.asarray(mr.realised_transmission(magnitudes, drifts))
        ideal = np.asarray(mr.realised_transmission(magnitudes, 0.0))
        perturbed = np.clip(magnitudes + (realised - ideal), 0.0, 1.0)
        signs = np.sign(base).ravel()
        return (signs * perturbed * max_abs).reshape(len(rngs), *base.shape)

    def describe(self) -> str:
        return (
            f"fpv-drift({self.design.name}, sigma={self.sigma_nm:.3g} nm, "
            f"{self.mrs_per_bank} MRs/bank)"
        )


@dataclass(frozen=True)
class InterChannelCrosstalkChannel(_EnsembleChannelMixin):
    """Spectral crosstalk between the WDM channels of an MR bank (Eq. 8-10).

    Consecutive weights share a bank of ``mrs_per_bank`` rings spread across
    one FSR; each channel's readout picks up the Lorentzian tails of every
    other channel in the bank, so the imprinted magnitudes mix through the
    phi-matrix of :func:`repro.crosstalk.interchannel.bank_crosstalk_matrix`.
    CrossLight calibrates the static interference offline;
    ``calibration_rejection_db`` models the residual uncompensated fraction
    (0 dB = no compensation, ``inf`` = perfect compensation and an exact
    no-op -- the zero-magnitude configuration).
    """

    mrs_per_bank: int = 15
    quality_factor: float = 8000.0
    fsr_nm: float = 18.0
    calibration_rejection_db: float = 32.0

    def __post_init__(self) -> None:
        check_positive_int("mrs_per_bank", self.mrs_per_bank)
        check_positive("quality_factor", self.quality_factor)
        check_positive("fsr_nm", self.fsr_nm)
        # inf is a valid value (perfect calibration, exact no-op), so the
        # finiteness-enforcing check_non_negative does not apply here.
        rejection_db = float(self.calibration_rejection_db)
        if np.isnan(rejection_db) or rejection_db < 0.0:
            raise ValueError(
                "calibration_rejection_db must be >= 0 (inf allowed), "
                f"got {self.calibration_rejection_db!r}"
            )

    @property
    def channel_spacing_nm(self) -> float:
        """Spectral spacing of the bank's channels across the FSR."""
        return self.fsr_nm / self.mrs_per_bank

    def apply(self, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        rejection = 10.0 ** (-self.calibration_rejection_db / 10.0)
        if rejection == 0.0 or weights.size == 0:
            return weights
        magnitudes, max_abs = _tensor_magnitudes(weights)
        if max_abs == 0.0:
            return weights
        phi = bank_crosstalk_matrix(
            self.mrs_per_bank, self.channel_spacing_nm, self.quality_factor
        )
        banks = _to_banks(magnitudes, self.mrs_per_bank)
        # Eq. 9: channel i accumulates phi(i, j)-weighted power from every
        # other channel j of its bank (phi is symmetric, diagonal zeroed).
        noise = rejection * (banks @ phi)
        perturbed = np.clip(banks + noise, 0.0, 1.0)
        return _recompose(weights, _from_banks(perturbed, magnitudes.size), max_abs)

    def apply_fanout(
        self, base: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Deterministic: one phi-matrix mixing serves every member."""
        return self.apply(base, rngs[0])

    def describe(self) -> str:
        return (
            f"interchannel-crosstalk({self.mrs_per_bank} ch, "
            f"Q={self.quality_factor:g}, {self.calibration_rejection_db:g} dB rejection)"
        )


@dataclass(frozen=True)
class ThermalCrosstalkChannel(_EnsembleChannelMixin):
    """Heater phase leakage between neighbouring rings of a bank (Fig. 4).

    Imprinting a weight detunes its ring by a heater-driven resonance shift;
    a fraction of that shift leaks to every other ring of the bank with the
    exponential distance decay of
    :class:`repro.variations.thermal.ThermalCrosstalkModel` (whose memoized
    ``(n_rings, pitch)`` crosstalk matrices this channel reuses).  The
    leaked shift moves each victim ring's operating point along its
    Lorentzian exactly like a resonance drift.

    ``coupling_scale`` scales the leaked shifts: 1.0 models raw thermo-optic
    imprinting with no collective compensation, a small fraction models the
    residual error after TED-style collective tuning, and 0.0 is an exact
    no-op (the zero-magnitude configuration).
    """

    pitch_um: float = 5.0
    mrs_per_bank: int = 15
    model: ThermalCrosstalkModel = field(default_factory=ThermalCrosstalkModel)
    coupling_scale: float = 1.0
    mr: MicroringResonator = field(default_factory=MicroringResonator.optimized)

    def __post_init__(self) -> None:
        check_positive("pitch_um", self.pitch_um)
        check_positive_int("mrs_per_bank", self.mrs_per_bank)
        check_non_negative("coupling_scale", self.coupling_scale)

    def apply(self, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        if self.coupling_scale <= 0.0 or weights.size == 0:
            return weights
        magnitudes, max_abs = _tensor_magnitudes(weights)
        if max_abs == 0.0:
            return weights
        coupling = self.model.crosstalk_matrix(self.mrs_per_bank, self.pitch_um)
        off_diagonal = coupling - np.eye(self.mrs_per_bank)
        banks = _to_banks(magnitudes, self.mrs_per_bank)
        detunings = np.asarray(self.mr.detuning_for_transmission(banks))
        leaked_nm = self.coupling_scale * (detunings @ off_diagonal)
        realised = np.asarray(self.mr.realised_transmission(banks, leaked_nm))
        ideal = np.asarray(self.mr.realised_transmission(banks, 0.0))
        perturbed = np.clip(banks + (realised - ideal), 0.0, 1.0)
        return _recompose(weights, _from_banks(perturbed, magnitudes.size), max_abs)

    def apply_fanout(
        self, base: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Deterministic: one heater-leakage evaluation serves every member."""
        return self.apply(base, rngs[0])

    def describe(self) -> str:
        return (
            f"thermal-crosstalk(pitch={self.pitch_um:g} um, "
            f"{self.mrs_per_bank} MRs/bank, scale={self.coupling_scale:g})"
        )


# ---------------------------------------------------------------------- #
# Composition
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, init=False)
class NoiseStack(_EnsembleChannelMixin):
    """Ordered composition of noise channels; itself a :class:`NoiseChannel`.

    Channels are applied left to right, each seeing the previous channel's
    output -- the physical pipeline order (e.g. quantize the programmed
    value first, then perturb the imprinted transmission).  An empty stack
    is the ideal (noiseless) substrate.
    """

    channels: tuple[NoiseChannel, ...]

    def __init__(self, channels: tuple[NoiseChannel, ...] | list[NoiseChannel] = ()) -> None:
        channels = tuple(channels)
        for channel in channels:
            if not (callable(getattr(channel, "apply", None)) and callable(getattr(channel, "describe", None))):
                raise TypeError(
                    f"noise channels must provide apply() and describe(), got {channel!r}"
                )
        object.__setattr__(self, "channels", channels)

    def __len__(self) -> int:
        return len(self.channels)

    def __iter__(self):
        return iter(self.channels)

    def with_channel(self, channel: NoiseChannel) -> "NoiseStack":
        """A new stack with ``channel`` appended (stacks are immutable)."""
        return NoiseStack((*self.channels, channel))

    def apply(self, weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Run ``weights`` through every channel in order.

        Always returns a fresh array: individual no-op channels may hand
        their input through by reference, but callers of a stack (e.g. the
        inference engine perturbing live model weights) must be free to
        mutate the result without corrupting the tensor they passed in.
        """
        source = np.asarray(weights, dtype=float)
        out = source
        for channel in self.channels:
            out = channel.apply(out, rng)
        if np.may_share_memory(out, source):
            out = np.array(out, dtype=float)
        return out

    def apply_fanout(
        self, base: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Thread a shared base tensor, forking at the first stochastic channel.

        The deterministic prefix of the stack (quantization, crosstalk
        mixing) runs *once* on the shared tensor instead of once per member;
        the ensemble forks to an ``(E, ...)`` stack at the first channel
        whose fanout returns per-member output (or at the first third-party
        channel without a fanout, which must be assumed stochastic), and
        every remaining channel runs its ``apply`` once per member.
        """
        rngs = list(rngs)
        out = np.asarray(base, dtype=float)
        forked_ndim = out.ndim + 1
        for channel in self.channels:
            fanout = getattr(channel, "apply_fanout", None)
            if out.ndim == forked_ndim:
                out = ensemble_apply(channel, out, rngs)
            elif fanout is None:
                out = ensemble_apply(channel, np.broadcast_to(out, (len(rngs), *out.shape)), rngs)
            else:
                out = np.asarray(fanout(out, rngs), dtype=float)
        return out

    def describe(self) -> str:
        if not self.channels:
            return "ideal"
        return " -> ".join(channel.describe() for channel in self.channels)


def default_noise_stack(
    resolution_bits: int = 16,
    residual_drift_nm: float = 0.0,
    mr: MicroringResonator | None = None,
) -> NoiseStack:
    """The two-channel stack of the drift studies: quantize, then drift.

    Pair it with ``activation_bits=resolution_bits`` on
    :class:`repro.sim.photonic_inference.PhotonicInferenceEngine` to model an
    accelerator whose weights and activations share one resolution and whose
    rings sit ``residual_drift_nm`` off resonance.
    """
    check_positive_int("resolution_bits", resolution_bits)
    check_non_negative("residual_drift_nm", residual_drift_nm)
    return NoiseStack(
        (
            QuantizationChannel(bits=resolution_bits),
            ResidualDriftChannel(
                residual_drift_nm=residual_drift_nm,
                mr=mr if mr is not None else MicroringResonator.optimized(),
            ),
        )
    )
