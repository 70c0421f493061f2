"""Tests for the functional photonic-inference engine and the ablation studies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ablation
from repro.sim import (
    NoiseStack,
    PhotonicInferenceEngine,
    accuracy_vs_residual_drift,
    default_noise_stack,
)


def _engine(resolution_bits=16, residual_drift_nm=0.0):
    """Quantize-then-drift engine with matching activation resolution."""
    return PhotonicInferenceEngine(
        default_noise_stack(resolution_bits, residual_drift_nm),
        activation_bits=resolution_bits,
    )


class TestPhotonicInferenceEngine:
    def test_zero_drift_high_resolution_matches_float_inference(self, trained_compact_lenet):
        model, test_x, test_y = trained_compact_lenet
        engine = _engine(resolution_bits=16, residual_drift_nm=0.0)
        result = engine.evaluate(model, test_x, test_y)
        assert result.accuracy == pytest.approx(result.ideal_accuracy, abs=0.05)
        assert result.accuracy_loss <= 0.05

    def test_weights_restored_after_prediction(self, trained_compact_lenet):
        model, test_x, _ = trained_compact_lenet
        before = [p.copy() for layer in model.layers for p in layer.parameters().values()]
        engine = _engine(resolution_bits=4, residual_drift_nm=0.5)
        engine.predict(model, test_x[:8])
        after = [p for layer in model.layers for p in layer.parameters().values()]
        for original, restored in zip(before, after):
            np.testing.assert_allclose(original, restored)

    def test_large_drift_degrades_accuracy(self, trained_compact_lenet):
        model, test_x, test_y = trained_compact_lenet
        clean = _engine(residual_drift_nm=0.0).evaluate(model, test_x, test_y)
        drifted = _engine(residual_drift_nm=2.1).evaluate(model, test_x, test_y)
        assert drifted.accuracy <= clean.accuracy

    def test_perturbed_weights_quantized_without_drift(self, rng):
        engine = _engine(resolution_bits=3, residual_drift_nm=0.0)
        weights = rng.normal(size=(6, 6))
        perturbed = engine.perturbed_weights(weights)
        assert len(np.unique(np.round(perturbed, 9))) <= 8

    def test_perturbed_weights_change_with_drift(self, rng):
        weights = rng.normal(size=(5, 5))
        clean = _engine(residual_drift_nm=0.0).perturbed_weights(weights)
        drifted = _engine(residual_drift_nm=1.0).perturbed_weights(weights)
        assert not np.allclose(clean, drifted)

    def test_zero_weights_unchanged(self):
        engine = _engine(residual_drift_nm=1.0)
        np.testing.assert_allclose(engine.perturbed_weights(np.zeros((3, 3))), 0.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            default_noise_stack(resolution_bits=0)
        with pytest.raises(ValueError):
            default_noise_stack(residual_drift_nm=-1.0)
        with pytest.raises(ValueError):
            PhotonicInferenceEngine(NoiseStack(), activation_bits=0)

    def test_drift_sweep_returns_one_result_per_point(self, trained_compact_lenet):
        model, test_x, test_y = trained_compact_lenet
        results = accuracy_vs_residual_drift(model, test_x, test_y, (0.0, 0.5))
        assert [r.residual_drift_nm for r in results] == [0.0, 0.5]
        assert all(0.0 <= r.accuracy <= 1.0 for r in results)


class TestAblationStudies:
    def test_wavelength_reuse_saves_laser_power(self):
        result = ablation.wavelength_reuse_ablation(vector_size=150)
        assert result.reuse_laser_power_w < result.no_reuse_laser_power_w
        assert result.saving_ratio > 1.5

    def test_bank_size_sweep_tradeoff(self):
        points = ablation.bank_size_ablation(sizes=(5, 15, 30))
        by_size = {p.mrs_per_bank: p for p in points}
        # Larger banks cost resolution but those larger banks carry more
        # wavelengths (more laser power) and more area.
        assert by_size[30].resolution_bits < by_size[5].resolution_bits
        assert by_size[30].laser_power_w > by_size[5].laser_power_w
        assert by_size[30].bank_area_mm2 > by_size[5].bank_area_mm2
        # The paper's 15-MR choice still delivers 16 bits.
        assert by_size[15].resolution_bits >= 16

    def test_tuning_latency_ablation_speedup(self):
        result = ablation.tuning_latency_ablation()
        assert result.to_cycle_time_s > result.eo_cycle_time_s
        assert result.speedup > 50.0

    def test_run_without_training_is_fast_and_complete(self):
        result = ablation.run(include_drift_accuracy=False)
        assert result.drift_accuracy == ()
        assert result.fpv_monte_carlo is None
        assert result.wavelength_reuse.saving_ratio > 1.0
        assert len(result.bank_size_sweep) == 6

    def test_fpv_monte_carlo_ablation_and_rendering(self):
        # Reduced scale: the barely-trained model cannot show the accuracy
        # recovery, but the plumbing (two Monte-Carlo sweeps, stats,
        # rendering) is exercised end to end.
        result = ablation.fpv_monte_carlo_ablation(
            seeds=2, epochs=2, n_train=80, n_test=40
        )
        assert result.uncompensated.seeds == (0, 1)
        assert result.compensated.seeds == (0, 1)
        for study in (result.uncompensated, result.compensated):
            assert 0.0 <= study.mean_accuracy <= 1.0
            assert study.std_accuracy >= 0.0
            assert "fpv-drift" in study.noise
        # The compensated stack applies a much smaller residual drift.
        uncompensated_channel = result.uncompensated.noise
        compensated_channel = result.compensated.noise
        assert uncompensated_channel != compensated_channel
        rendered = ablation.format_fpv_monte_carlo(result)
        assert "Ablation 5" in rendered
        assert "TED/hybrid tuning" in rendered
        assert "Accuracy recovered" in rendered
