"""Tests for ensemble-vectorized inference.

The contract under test: evaluating E perturbed realisations of a model
through the fused ensemble path -- shared-base weight perturbation
(``apply_many``/``apply_fanout``), stacked layer forwards, chunking over
members and batches -- is **elementwise identical** at float64 to running E
sequential :class:`repro.sim.photonic_inference.PhotonicInferenceEngine`
evaluations, for every built-in noise channel and for composed stacks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import AvgPool2D, BatchNorm, Conv2D, Dense, Dropout, Flatten, ReLU
from repro.nn.model import Sequential
from repro.nn.quantization import quantize_array, quantize_array_stack
from repro.sim import (
    EnsembleInferenceEngine,
    FPVDriftChannel,
    InterChannelCrosstalkChannel,
    NoiseStack,
    PhotonicInferenceEngine,
    QuantizationChannel,
    ResidualDriftChannel,
    ThermalCrosstalkChannel,
    default_noise_stack,
    evaluate_ensemble,
    monte_carlo_accuracy,
)
from repro.sim.noise import ensemble_apply
from repro.sim.sweep import SweepExecutor, plan_chunks, run_sweep

#: Every built-in channel at a non-trivial operating point, plus stacks.
CHANNELS = [
    QuantizationChannel(bits=6),
    QuantizationChannel(bits=1),
    QuantizationChannel(bits=None),
    ResidualDriftChannel(residual_drift_nm=0.8),
    FPVDriftChannel(),
    InterChannelCrosstalkChannel(calibration_rejection_db=20.0),
    ThermalCrosstalkChannel(coupling_scale=0.05),
    default_noise_stack(resolution_bits=8, residual_drift_nm=0.5),
    NoiseStack(
        [
            QuantizationChannel(bits=8),
            FPVDriftChannel(),
            InterChannelCrosstalkChannel(calibration_rejection_db=25.0),
            ThermalCrosstalkChannel(coupling_scale=0.03),
        ]
    ),
]


def _member_ids(value):
    return value.describe() if hasattr(value, "describe") else repr(value)


# ---------------------------------------------------------------------- #
# Channel-level identity
# ---------------------------------------------------------------------- #
class TestApplyManyIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        data_seed=st.integers(min_value=0, max_value=2**16),
        n_members=st.integers(min_value=1, max_value=7),
        seed0=st.integers(min_value=0, max_value=2**16),
        channel_index=st.integers(min_value=0, max_value=len(CHANNELS) - 1),
        shape=st.sampled_from([(9,), (7, 5), (4, 3, 3, 3)]),
    )
    def test_apply_many_matches_sequential_loop(
        self, data_seed, n_members, seed0, channel_index, shape
    ):
        """apply_many == stacking E sequential apply calls, elementwise."""
        channel = CHANNELS[channel_index]
        weights = np.random.default_rng(data_seed).normal(size=shape)
        seeds = [seed0 + member for member in range(n_members)]
        fused = channel.apply_many(weights, [np.random.default_rng(s) for s in seeds])
        reference = np.stack(
            [
                np.asarray(channel.apply(weights, np.random.default_rng(s)), dtype=float)
                for s in seeds
            ]
        )
        np.testing.assert_array_equal(fused, reference)
        assert fused.shape == (n_members, *shape)
        assert fused.flags.writeable

    @pytest.mark.parametrize("channel", CHANNELS, ids=_member_ids)
    def test_apply_stacked_on_diverged_members(self, channel, rng):
        """ensemble_apply treats each member independently (own dynamic range)."""
        members = np.stack(
            [rng.normal(size=(6, 5)), np.zeros((6, 5)), 3.0 * rng.normal(size=(6, 5))]
        )
        rngs = [np.random.default_rng(seed) for seed in (11, 12, 13)]
        fused = ensemble_apply(channel, members, rngs)
        reference = np.stack(
            [
                np.asarray(
                    channel.apply(members[e], np.random.default_rng(11 + e)), dtype=float
                )
                for e in range(3)
            ]
        )
        np.testing.assert_array_equal(fused, reference)

    @pytest.mark.parametrize("channel", CHANNELS, ids=_member_ids)
    def test_apply_many_zero_tensor_is_identity(self, channel):
        fused = channel.apply_many(
            np.zeros((4, 3)), [np.random.default_rng(s) for s in range(3)]
        )
        np.testing.assert_array_equal(fused, np.zeros((3, 4, 3)))

    def test_third_party_channel_falls_back_to_loop(self, rng):
        """Channels without apply_fanout compose via the per-member loop."""

        class JitterChannel:
            def apply(self, weights, rng):
                return weights + rng.normal(scale=1e-3, size=weights.shape)

            def describe(self):
                return "jitter"

        stack = NoiseStack([QuantizationChannel(bits=8), JitterChannel()])
        weights = rng.normal(size=(5, 4))
        fused = stack.apply_many(weights, [np.random.default_rng(s) for s in range(4)])
        reference = np.stack(
            [stack.apply(weights, np.random.default_rng(s)) for s in range(4)]
        )
        np.testing.assert_array_equal(fused, reference)

    def test_apply_many_requires_generators(self):
        with pytest.raises(ValueError):
            QuantizationChannel(bits=8).apply_many(np.ones((2, 2)), [])


class TestQuantizeArrayStack:
    @settings(max_examples=15, deadline=None)
    @given(
        data_seed=st.integers(min_value=0, max_value=2**16),
        bits=st.sampled_from([1, 2, 6, 16]),
        n_members=st.integers(min_value=1, max_value=5),
    )
    def test_matches_per_member_quantize_array(self, data_seed, bits, n_members):
        values = np.random.default_rng(data_seed).normal(size=(n_members, 4, 6))
        values[0] *= 10.0  # distinct per-member dynamic ranges
        fused = quantize_array_stack(values, bits)
        reference = np.stack([quantize_array(values[e], bits) for e in range(n_members)])
        np.testing.assert_array_equal(fused, reference)

    def test_strided_input_and_zero_members(self, rng):
        values = np.transpose(rng.normal(size=(3, 5, 4)))  # non-contiguous
        fused = quantize_array_stack(values, 8)
        reference = np.stack([quantize_array(values[e], 8) for e in range(4)])
        np.testing.assert_array_equal(fused, reference)
        zeros = np.zeros((2, 3, 3))
        np.testing.assert_array_equal(quantize_array_stack(zeros, 8), zeros)

    def test_preserves_float32(self, rng):
        values = rng.normal(size=(2, 8)).astype(np.float32)
        assert quantize_array_stack(values, 8).dtype == np.float32


# ---------------------------------------------------------------------- #
# Engine-level identity
# ---------------------------------------------------------------------- #
def _sequential_logits(model, inputs, stack, seeds, activation_bits, batch_size=64):
    return np.stack(
        [
            PhotonicInferenceEngine(
                stack, activation_bits=activation_bits, seed=seed
            ).predict(model, inputs, batch_size=batch_size)
            for seed in seeds
        ]
    )


@pytest.fixture(scope="module")
def fpv_stack():
    return NoiseStack([QuantizationChannel(bits=8), FPVDriftChannel()])


class TestEnsembleEngineIdentity:
    def test_logits_match_per_seed_engines(self, trained_compact_lenet, fpv_stack):
        model, test_x, _ = trained_compact_lenet
        seeds = list(range(5))
        engine = EnsembleInferenceEngine(fpv_stack, seeds, activation_bits=8)
        fused = engine.predict(model, test_x)
        reference = _sequential_logits(model, test_x, fpv_stack, seeds, 8)
        np.testing.assert_array_equal(fused, reference)

    def test_monte_carlo_matches_per_seed_loop(self, trained_compact_lenet, fpv_stack):
        model, test_x, test_y = trained_compact_lenet
        result = monte_carlo_accuracy(
            model, test_x, test_y, fpv_stack, seeds=6, activation_bits=8
        )
        for seed, record in zip(result.seeds, result.records):
            engine = PhotonicInferenceEngine(
                fpv_stack, activation_bits=8, seed=seed
            )
            reference = engine.evaluate(model, test_x, test_y)
            assert record.accuracy == reference.accuracy
            assert record.noise == reference.noise

    def test_drift_sweep_matches_per_point_engines(self, trained_compact_lenet):
        from repro.sim import accuracy_vs_residual_drift

        model, test_x, test_y = trained_compact_lenet
        drifts = (0.0, 0.1, 0.5, 1.5)
        records = accuracy_vs_residual_drift(
            model, test_x, test_y, drifts, resolution_bits=8, seed=3
        )
        for drift, record in zip(drifts, records):
            engine = PhotonicInferenceEngine(
                default_noise_stack(8, drift), activation_bits=8, seed=3
            )
            reference = engine.evaluate(model, test_x, test_y)
            assert record.accuracy == reference.accuracy
            assert record.residual_drift_nm == reference.residual_drift_nm

    def test_heterogeneous_activation_bits_match_sequential(self, trained_compact_lenet):
        """The fig5 shape: one member per resolution, per-member activations."""
        model, test_x, test_y = trained_compact_lenet
        bits_sweep = (2, 4, 8, 16)
        records = evaluate_ensemble(
            model,
            test_x,
            test_y,
            [NoiseStack([QuantizationChannel(bits=b)]) for b in bits_sweep],
            seeds=[0] * len(bits_sweep),
            activation_bits=list(bits_sweep),
        )
        for bits, record in zip(bits_sweep, records):
            engine = PhotonicInferenceEngine(
                NoiseStack([QuantizationChannel(bits=bits)]), activation_bits=bits, seed=0
            )
            assert record.accuracy == engine.evaluate(model, test_x, test_y).accuracy
            assert record.resolution_bits == bits

    def test_returning_resolution_reuses_its_prefix(
        self, trained_compact_lenet, fpv_stack, monkeypatch
    ):
        """[8, 4, 8] in chunks of one: the 8-bit prefix outlives the 4-bit chunk.

        Each resolution's first-conv patch matrix is lowered once per batch
        and freed only after that resolution's last chunk, so a prefix freed
        early shows up as an extra lowering.
        """
        model, test_x, _ = trained_compact_lenet
        lowered = []
        original_lower = Conv2D.lower

        def counting_lower(layer, inputs):
            lowered.append(inputs.shape[0])
            return original_lower(layer, inputs)

        bits = [8, 4, 8]
        seeds = [0, 1, 2]
        batch_size = 64
        monkeypatch.setattr(Conv2D, "lower", counting_lower)
        engine = EnsembleInferenceEngine(
            fpv_stack, seeds, activation_bits=bits, member_chunk=1
        )
        fused = engine.predict(model, test_x, batch_size=batch_size)
        monkeypatch.undo()
        n_batches = -(-test_x.shape[0] // batch_size)
        assert len(lowered) == 2 * n_batches
        reference = np.stack(
            [
                PhotonicInferenceEngine(
                    fpv_stack, activation_bits=member_bits, seed=seed
                ).predict(model, test_x, batch_size=batch_size)
                for member_bits, seed in zip(bits, seeds)
            ]
        )
        np.testing.assert_array_equal(fused, reference)

    def test_covers_all_layer_kinds(self, rng):
        """BatchNorm/pool/dropout/flatten layers run identically in ensembles."""
        model = Sequential(
            [
                Conv2D(1, 3, kernel_size=3, rng=rng),
                BatchNorm(3),
                ReLU(),
                AvgPool2D(pool_size=2),
                Flatten(),
                Dropout(rate=0.3),
                Dense(3 * 5 * 5, 7, rng=rng),
            ],
            input_shape=(1, 12, 12),
            name="mixed",
        )
        inputs = rng.normal(size=(9, 1, 12, 12))
        model.train()
        model.forward(inputs)  # populate BatchNorm running statistics
        stack = default_noise_stack(resolution_bits=6, residual_drift_nm=0.4)
        seeds = [3, 5, 8]
        engine = EnsembleInferenceEngine(stack, seeds, activation_bits=6)
        fused = engine.predict(model, inputs, batch_size=4)
        reference = _sequential_logits(model, inputs, stack, seeds, 6, batch_size=4)
        np.testing.assert_array_equal(fused, reference)


class TestChunkingAndDtype:
    @pytest.mark.parametrize("member_chunk", [1, 2, 4])
    def test_member_chunking_is_exact(
        self, trained_compact_lenet, fpv_stack, member_chunk
    ):
        model, test_x, _ = trained_compact_lenet
        seeds = list(range(5))
        unchunked = EnsembleInferenceEngine(fpv_stack, seeds, activation_bits=8)
        chunked = EnsembleInferenceEngine(
            fpv_stack, seeds, activation_bits=8, member_chunk=member_chunk
        )
        np.testing.assert_array_equal(
            chunked.predict(model, test_x), unchunked.predict(model, test_x)
        )

    def test_batch_chunking_is_exact(self, trained_compact_lenet, fpv_stack):
        """Splitting the batch axis must not change any member's logits.

        (The *activation quantization ranges* are per forward batch, so the
        comparison fixes batch_size and only varies member chunking; here we
        check that the engine's own batching loop stitches batches exactly.)
        """
        model, test_x, _ = trained_compact_lenet
        engine = EnsembleInferenceEngine(fpv_stack, [0, 1, 2], activation_bits=8)
        reference = _sequential_logits(
            model, test_x, fpv_stack, [0, 1, 2], 8, batch_size=17
        )
        np.testing.assert_array_equal(
            engine.predict(model, test_x, batch_size=17), reference
        )

    def test_float32_mode_is_close(self, trained_compact_lenet, fpv_stack):
        model, test_x, test_y = trained_compact_lenet
        exact = monte_carlo_accuracy(
            model, test_x, test_y, fpv_stack, seeds=4, activation_bits=None
        )
        lean = monte_carlo_accuracy(
            model, test_x, test_y, fpv_stack, seeds=4, activation_bits=None,
            precision="float32",
        )
        np.testing.assert_allclose(lean.accuracies, exact.accuracies, atol=0.05)
        engine = EnsembleInferenceEngine(
            fpv_stack, [0, 1], activation_bits=None, precision="float32"
        )
        logits = engine.predict(model, test_x)
        assert logits.dtype == np.float32
        reference = EnsembleInferenceEngine(
            fpv_stack, [0, 1], activation_bits=None
        ).predict(model, test_x)
        np.testing.assert_allclose(logits, reference, rtol=1e-3, atol=1e-3)

    def test_array_fingerprint_has_no_cheap_collisions(self):
        """Regression: sum/ramp statistics aliased distinct label vectors."""
        from repro.sim.photonic_inference import _array_fingerprint

        first = np.array([1, 0, 1])
        second = np.array([0, 2, 0])  # same shape, sum, |sum|, and ramp-dot
        assert _array_fingerprint(first) != _array_fingerprint(second)

    def test_default_member_chunk_bounds_residency(self, fpv_stack):
        from repro.sim.photonic_inference import DEFAULT_MEMBER_CHUNK

        engine = EnsembleInferenceEngine(fpv_stack, seeds=3 * DEFAULT_MEMBER_CHUNK)
        chunks = engine._member_chunks()
        assert max(len(chunk) for chunk in chunks) == DEFAULT_MEMBER_CHUNK
        assert [i for chunk in chunks for i in chunk] == list(range(engine.n_members))

    def test_float32_bias_does_not_upcast(self, rng):
        """Biased layer ensembles stay in float32 (the mode's memory story)."""
        dense = Dense(6, 4, rng=rng)
        out = dense.forward_ensemble(
            rng.normal(size=(3, 6)).astype(np.float32),
            rng.normal(size=(2, 6, 4)).astype(np.float32),
        )
        assert out.dtype == np.float32
        conv = Conv2D(1, 2, kernel_size=3, rng=rng)
        out = conv.forward_ensemble(
            rng.normal(size=(3, 1, 8, 8)).astype(np.float32),
            rng.normal(size=(2, 2, 1, 3, 3)).astype(np.float32),
        )
        assert out.dtype == np.float32

    def test_monte_carlo_rejects_invalid_n_workers(self, trained_compact_lenet, fpv_stack):
        model, test_x, test_y = trained_compact_lenet
        with pytest.raises(ValueError):
            monte_carlo_accuracy(
                model, test_x, test_y, fpv_stack, seeds=2, n_workers=-4
            )
        with pytest.raises(TypeError):
            monte_carlo_accuracy(
                model, test_x, test_y, fpv_stack, seeds=2, n_workers=2.5
            )

    def test_parallel_seed_chunks_match_serial(self, trained_compact_lenet, fpv_stack):
        model, test_x, test_y = trained_compact_lenet
        serial = monte_carlo_accuracy(
            model, test_x, test_y, fpv_stack, seeds=5, activation_bits=8
        )
        parallel = monte_carlo_accuracy(
            model, test_x, test_y, fpv_stack, seeds=5, activation_bits=8, n_workers=2
        )
        assert serial.accuracies == parallel.accuracies


class TestEngineValidation:
    def test_stack_and_seed_counts_must_match(self, fpv_stack):
        with pytest.raises(ValueError):
            EnsembleInferenceEngine([fpv_stack, fpv_stack], seeds=[1, 2, 3])

    def test_mixed_stacks_and_channels_rejected(self, fpv_stack):
        with pytest.raises(TypeError):
            EnsembleInferenceEngine([fpv_stack, QuantizationChannel(8)], seeds=2)

    def test_channel_iterable_builds_shared_stack(self, trained_compact_lenet):
        model, test_x, _ = trained_compact_lenet
        engine = EnsembleInferenceEngine(
            [QuantizationChannel(bits=8)], seeds=2, activation_bits=8
        )
        assert engine.n_members == 2
        assert engine.noise_stacks[0] is engine.noise_stacks[1]

    def test_monte_carlo_accepts_channel_iterable(self, trained_compact_lenet, fpv_stack):
        model, test_x, test_y = trained_compact_lenet
        from_channels = monte_carlo_accuracy(
            model, test_x, test_y, list(fpv_stack), seeds=2, activation_bits=8
        )
        via_stack = monte_carlo_accuracy(
            model, test_x, test_y, fpv_stack, seeds=2, activation_bits=8
        )
        assert from_channels == via_stack
        assert from_channels.noise == fpv_stack.describe()

    def test_rejects_bad_dtype_and_empty_seeds(self, fpv_stack):
        with pytest.raises(ValueError):
            EnsembleInferenceEngine(fpv_stack, seeds=[])
        with pytest.raises(ValueError):
            EnsembleInferenceEngine(fpv_stack, seeds=2, precision=np.int32)

    def test_layer_ensemble_shape_validation(self, rng):
        dense = Dense(4, 3, rng=rng)
        with pytest.raises(ValueError):
            dense.forward_ensemble(rng.normal(size=(2, 4)), rng.normal(size=(5, 3, 3)))
        conv = Conv2D(2, 3, kernel_size=3, rng=rng)
        with pytest.raises(ValueError):
            conv.forward_ensemble(
                rng.normal(size=(1, 2, 8, 8)), rng.normal(size=(4, 3, 9))
            )


# ---------------------------------------------------------------------- #
# Sweep-layer additions
# ---------------------------------------------------------------------- #
class TestPlanChunks:
    def test_n_chunks_balanced_cover(self):
        chunks = plan_chunks(10, n_chunks=3)
        assert [list(chunk) for chunk in chunks] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_chunk_size_cover(self):
        chunks = plan_chunks(7, chunk_size=3)
        assert [list(chunk) for chunk in chunks] == [[0, 1, 2], [3, 4, 5], [6]]

    def test_degenerate_and_invalid(self):
        assert plan_chunks(0, n_chunks=4) == []
        assert [list(c) for c in plan_chunks(2, n_chunks=8)] == [[0], [1]]
        with pytest.raises(ValueError):
            plan_chunks(4, n_chunks=2, chunk_size=2)
        with pytest.raises(ValueError):
            plan_chunks(4)
        with pytest.raises(ValueError):
            plan_chunks(4, chunk_size=0)


def _square(x):
    return x * x


class TestSweepExecutor:
    def test_reused_across_sweeps_and_matches_serial(self):
        points = [{"x": value} for value in range(9)]
        serial = run_sweep(_square, points)
        with SweepExecutor(n_workers=2) as executor:
            first = run_sweep(_square, points, executor=executor)
            second = run_sweep(_square, points, executor=executor)
        assert first.values == serial.values
        assert second.values == serial.values

    def test_single_point_runs_inline(self):
        executor = SweepExecutor(n_workers=2)
        result = run_sweep(_square, [{"x": 3}], executor=executor)
        assert result.values == (9,)
        assert executor._pool is None  # never had to spin up workers
        executor.shutdown()

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepExecutor(n_workers=0)
        with pytest.raises(TypeError):
            SweepExecutor(n_workers=True)
