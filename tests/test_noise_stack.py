"""Tests for the composable noise-channel stack (:mod:`repro.sim.noise`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.mr import MicroringResonator
from repro.nn.quantization import quantize_array
from repro.sim import (
    FPVDriftChannel,
    InterChannelCrosstalkChannel,
    NoiseChannel,
    NoiseStack,
    PhotonicInferenceEngine,
    QuantizationChannel,
    ResidualDriftChannel,
    ThermalCrosstalkChannel,
    default_noise_stack,
    monte_carlo_accuracy,
)


def _legacy_perturbed_weights(
    weights: np.ndarray, resolution_bits: int, residual_drift_nm: float, seed: int
) -> np.ndarray:
    """The PR-1 engine's weight perturbation, reimplemented verbatim."""
    rng = np.random.default_rng(seed)
    quantized = quantize_array(weights, resolution_bits)
    if residual_drift_nm <= 0.0:
        return quantized
    max_abs = float(np.max(np.abs(quantized)))
    if max_abs == 0.0:
        return quantized
    normalised = np.abs(quantized) / max_abs
    mr = MicroringResonator.optimized()
    errors = np.asarray(mr.transmission_error_from_drift(normalised, residual_drift_nm))
    signs = rng.choice([-1.0, 1.0], size=errors.shape)
    return quantized + signs * errors * max_abs


ALL_ZERO_MAGNITUDE_CHANNELS = [
    QuantizationChannel(bits=None),
    ResidualDriftChannel(residual_drift_nm=0.0),
    FPVDriftChannel(residual_fraction=0.0),
    InterChannelCrosstalkChannel(calibration_rejection_db=np.inf),
    ThermalCrosstalkChannel(coupling_scale=0.0),
]


class TestLegacyEquivalence:
    """The default two-channel stack is the PR-1 engine, elementwise."""

    @settings(max_examples=25, deadline=None)
    @given(
        data_seed=st.integers(min_value=0, max_value=2**16),
        bits=st.sampled_from([2, 4, 8, 16]),
        drift_nm=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        sign_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_stack_matches_legacy_engine_elementwise(
        self, data_seed, bits, drift_nm, sign_seed
    ):
        weights = np.random.default_rng(data_seed).normal(size=(7, 5))
        engine = PhotonicInferenceEngine(
            default_noise_stack(bits, drift_nm), activation_bits=bits, seed=sign_seed
        )
        expected = _legacy_perturbed_weights(weights, bits, drift_nm, sign_seed)
        np.testing.assert_array_equal(engine.perturbed_weights(weights), expected)


class TestChannelNoOps:
    @pytest.mark.parametrize(
        "channel", ALL_ZERO_MAGNITUDE_CHANNELS, ids=lambda c: type(c).__name__
    )
    def test_zero_magnitude_channel_is_identity(self, channel, rng):
        weights = rng.normal(size=(6, 4, 2))
        out = np.asarray(channel.apply(weights, np.random.default_rng(0)))
        np.testing.assert_array_equal(out, weights)

    @pytest.mark.parametrize(
        "channel", ALL_ZERO_MAGNITUDE_CHANNELS, ids=lambda c: type(c).__name__
    )
    def test_zero_magnitude_channel_consumes_no_randomness(self, channel, rng):
        weights = rng.normal(size=(5, 5))
        consumed = np.random.default_rng(42)
        channel.apply(weights, consumed)
        untouched = np.random.default_rng(42)
        assert consumed.bit_generator.state == untouched.bit_generator.state

    def test_zero_variance_fpv_model_is_identity(self, rng):
        from repro.variations.fpv import ProcessVariationModel

        channel = FPVDriftChannel(
            variation=ProcessVariationModel(width_sigma_nm=0.0, thickness_sigma_nm=0.0)
        )
        weights = rng.normal(size=(4, 4))
        np.testing.assert_array_equal(channel.apply(weights, np.random.default_rng(0)), weights)

    def test_empty_stack_is_identity(self, rng):
        weights = rng.normal(size=(3, 3))
        stack = NoiseStack()
        np.testing.assert_array_equal(stack.apply(weights, np.random.default_rng(0)), weights)
        assert stack.describe() == "ideal"

    def test_stack_never_aliases_the_input(self, rng):
        # Even an all-no-op stack must hand back a fresh array, so callers
        # can mutate the result without corrupting live model weights.
        weights = rng.normal(size=(4, 4))
        for stack in (NoiseStack(), NoiseStack([QuantizationChannel(bits=None)])):
            out = stack.apply(weights, np.random.default_rng(0))
            assert not np.may_share_memory(out, weights)
            out[...] = 0.0
            assert not np.allclose(weights, 0.0)


class TestChannelBehaviour:
    def test_all_channels_satisfy_protocol(self):
        for channel in ALL_ZERO_MAGNITUDE_CHANNELS + [NoiseStack()]:
            assert isinstance(channel, NoiseChannel)

    def test_fpv_channel_perturbs_and_is_seed_reproducible(self, rng):
        weights = rng.normal(size=(8, 8))
        channel = FPVDriftChannel()
        out_a = channel.apply(weights, np.random.default_rng(5))
        out_b = channel.apply(weights, np.random.default_rng(5))
        out_c = channel.apply(weights, np.random.default_rng(6))
        np.testing.assert_array_equal(out_a, out_b)
        assert not np.array_equal(out_a, out_c)
        assert not np.array_equal(out_a, weights)
        assert out_a.shape == weights.shape

    def test_interchannel_crosstalk_adds_power(self, rng):
        weights = np.abs(rng.normal(size=45)) + 0.05
        channel = InterChannelCrosstalkChannel(calibration_rejection_db=10.0)
        out = channel.apply(weights, np.random.default_rng(0))
        # Crosstalk only ever couples power *into* a channel, so magnitudes
        # grow (up to the unit-transmission clip) and signs are preserved.
        assert np.all(out >= weights - 1e-12)
        assert not np.array_equal(out, weights)

    def test_stronger_calibration_means_less_crosstalk(self, rng):
        weights = rng.normal(size=(10, 6))
        weak = InterChannelCrosstalkChannel(calibration_rejection_db=5.0)
        strong = InterChannelCrosstalkChannel(calibration_rejection_db=40.0)
        base = np.abs(weights)
        weak_delta = np.abs(np.abs(weak.apply(weights, np.random.default_rng(0))) - base).sum()
        strong_delta = np.abs(
            np.abs(strong.apply(weights, np.random.default_rng(0))) - base
        ).sum()
        assert weak_delta > strong_delta

    def test_thermal_crosstalk_decays_with_pitch(self, rng):
        weights = rng.normal(size=(9, 5))
        near = ThermalCrosstalkChannel(pitch_um=5.0)
        far = ThermalCrosstalkChannel(pitch_um=100.0)
        near_delta = np.abs(near.apply(weights, np.random.default_rng(0)) - weights).sum()
        far_delta = np.abs(far.apply(weights, np.random.default_rng(0)) - weights).sum()
        assert near_delta > far_delta
        # At 100 um the exponential coupling is ~6e-7; the summed residual
        # perturbation is orders of magnitude below the 5 um case.
        assert far_delta < 1e-2 * near_delta

    def test_channels_do_not_mutate_input(self, rng):
        weights = rng.normal(size=(6, 6))
        original = weights.copy()
        stack = NoiseStack(
            [QuantizationChannel(4), FPVDriftChannel(), InterChannelCrosstalkChannel()]
        )
        stack.apply(weights, np.random.default_rng(0))
        np.testing.assert_array_equal(weights, original)

    def test_stack_composition_and_describe(self):
        stack = NoiseStack([QuantizationChannel(8)])
        longer = stack.with_channel(FPVDriftChannel())
        assert len(stack) == 1 and len(longer) == 2
        assert "quantization(8 bit)" in longer.describe()
        assert "fpv-drift" in longer.describe()

    def test_stack_rejects_non_channels(self):
        with pytest.raises(TypeError):
            NoiseStack([object()])

    def test_invalid_channel_parameters_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            QuantizationChannel(bits=0)
        with pytest.raises(ValueError):
            ResidualDriftChannel(residual_drift_nm=-0.5)
        with pytest.raises(ValueError):
            FPVDriftChannel(bank_correlation=1.5)
        with pytest.raises(ValueError):
            InterChannelCrosstalkChannel(calibration_rejection_db=-1.0)
        with pytest.raises(ValueError):
            ThermalCrosstalkChannel(pitch_um=0.0)


class TestMonteCarloAccuracy:
    @pytest.fixture(scope="class")
    def fpv_stack(self):
        return NoiseStack([QuantizationChannel(8), FPVDriftChannel()])

    def test_seeded_runs_are_deterministic(self, trained_compact_lenet, fpv_stack):
        model, test_x, test_y = trained_compact_lenet
        first = monte_carlo_accuracy(
            model, test_x, test_y, fpv_stack, seeds=8, activation_bits=8
        )
        second = monte_carlo_accuracy(
            model, test_x, test_y, fpv_stack, seeds=8, activation_bits=8
        )
        assert first.seeds == tuple(range(8))
        assert first.accuracies == second.accuracies
        assert len(first.records) == 8
        assert all(0.0 <= a <= 1.0 for a in first.accuracies)
        assert first.mean_accuracy == pytest.approx(float(np.mean(first.accuracies)))
        assert first.std_accuracy == pytest.approx(float(np.std(first.accuracies)))
        assert "fpv-drift" in first.noise

    def test_parallel_run_matches_serial(self, trained_compact_lenet, fpv_stack):
        model, test_x, test_y = trained_compact_lenet
        serial = monte_carlo_accuracy(
            model, test_x, test_y, fpv_stack, seeds=8, activation_bits=8
        )
        parallel = monte_carlo_accuracy(
            model, test_x, test_y, fpv_stack, seeds=8, activation_bits=8, n_workers=2
        )
        assert parallel.accuracies == serial.accuracies
        assert parallel.seeds == serial.seeds

    def test_explicit_seed_list_and_validation(self, trained_compact_lenet, fpv_stack):
        model, test_x, test_y = trained_compact_lenet
        result = monte_carlo_accuracy(
            model, test_x, test_y, fpv_stack, seeds=(3, 11), activation_bits=8
        )
        assert result.seeds == (3, 11)
        with pytest.raises(ValueError):
            monte_carlo_accuracy(model, test_x, test_y, fpv_stack, seeds=())

    def test_result_records_noise_description(self, trained_compact_lenet):
        model, test_x, test_y = trained_compact_lenet
        engine = PhotonicInferenceEngine(default_noise_stack(8, 0.3), activation_bits=8)
        result = engine.evaluate(model, test_x[:32], test_y[:32])
        assert "quantization(8 bit)" in result.noise
        assert "residual-drift(0.3 nm)" in result.noise
