"""Hot-path benchmarks: vectorized perturbation, ensembles, TED pitch sweeps.

These cases track the hot paths the perf refactors optimised, so the
speedups stay visible in the ``BENCH_*.json`` artefacts going forward
(``benchmarks/compare.py`` guards them against regression in CI):

* :meth:`repro.sim.photonic_inference.PhotonicInferenceEngine.\
perturbed_weights` on a Conv2D-sized weight tensor -- formerly one Python
  Lorentzian call per weight element, now a single vectorized evaluation
  (PR 1 acceptance: >= 20x over the seed per-element loop, elementwise
  identical);
* :meth:`repro.sim.noise.NoiseStack.apply_many` -- 16 Monte-Carlo weight
  realisations sampled in one fused pass (PR 3): deterministic channels run
  once for all members, drift channels share their member-independent
  Lorentzian profiles;
* :func:`repro.sim.photonic_inference.monte_carlo_accuracy` -- 16 seeds on
  the fig5 CNN through the ensemble-vectorized inference engine versus the
  historical one-engine-per-seed loop, with per-seed accuracies
  elementwise identical at float64;
* :func:`repro.tuning.ted.tuning_power_vs_pitch` -- the Fig. 4 sweep on the
  unified sweep engine with memoized crosstalk matrices and TED
  eigendecompositions.

A note on the ensemble speedup targets: the per-member forward/physics math
is identical on both paths (that is the elementwise-identity guarantee), so
on a single CPU core the fused path wins exactly what fusion can win --
shared prefixes, one perturbation pass instead of E, and E-fold fewer
Python/numpy dispatches -- which measures ~1.5-2x in the request-serving
shape (small batch, many concurrent noise scenarios) and approaches parity
when one member's dataset already saturates memory bandwidth.  The asserted
floors below are set with CI headroom under those measurements.
"""

from __future__ import annotations

import time

import numpy as np

from repro.nn.datasets import sign_mnist_synthetic
from repro.nn.quantization import quantize_array
from repro.nn.zoo import build_model
from repro.sim.noise import (
    FPVDriftChannel,
    NoiseStack,
    QuantizationChannel,
    default_noise_stack,
)
from repro.sim.photonic_inference import (
    PhotonicInferenceEngine,
    ideal_model_accuracy,
    monte_carlo_accuracy,
)
from repro.tuning.ted import tuning_power_vs_pitch

#: Conv2D-sized weight tensor (64 output channels, 32 input channels, 3x3).
CONV2D_SHAPE = (64, 32, 3, 3)
RESIDUAL_DRIFT_NM = 0.5


def _drift_engine() -> PhotonicInferenceEngine:
    """16-bit quantize-then-drift engine at the benchmark's residual drift."""
    return PhotonicInferenceEngine(
        default_noise_stack(16, RESIDUAL_DRIFT_NM), activation_bits=16, seed=0
    )


def _seed_perturbed_weights(engine: PhotonicInferenceEngine, weights: np.ndarray) -> np.ndarray:
    """The seed (pre-vectorization) implementation: one MR call per element."""
    quantization, drift = engine.noise_stack.channels
    quantized = quantize_array(weights, quantization.bits)
    max_abs = float(np.max(np.abs(quantized)))
    normalised = np.abs(quantized) / max_abs
    errors = np.array(
        [
            drift.mr.transmission_error_from_drift(float(v), drift.residual_drift_nm)
            for v in normalised.reshape(-1)
        ]
    ).reshape(normalised.shape)
    signs = engine._rng.choice([-1.0, 1.0], size=errors.shape)
    return quantized + signs * errors * max_abs


def test_perturbed_weights_conv2d_tensor(benchmark):
    rng = np.random.default_rng(0)
    weights = rng.normal(size=CONV2D_SHAPE)

    engine = _drift_engine()
    result = benchmark(engine.perturbed_weights, weights)
    assert result.shape == CONV2D_SHAPE

    # Elementwise identity with the seed implementation (same seed, so the
    # random error signs are drawn identically).
    vec_engine = _drift_engine()
    ref_engine = _drift_engine()
    np.testing.assert_array_equal(
        vec_engine.perturbed_weights(weights), _seed_perturbed_weights(ref_engine, weights)
    )

    # Acceptance criterion: >= 20x faster than the seed per-element loop.
    # (Measured directly rather than via benchmark fixtures so both sides use
    # the same clock; the observed speedup is two to three orders of
    # magnitude, so the margin over 20x is wide.)
    best_vectorized = min(
        _timed(lambda: engine.perturbed_weights(weights)) for _ in range(5)
    )
    seed_elapsed = _timed(lambda: _seed_perturbed_weights(engine, weights))
    speedup = seed_elapsed / best_vectorized
    print(
        f"\nperturbed_weights {CONV2D_SHAPE}: vectorized {best_vectorized * 1e3:.2f} ms, "
        f"seed loop {seed_elapsed * 1e3:.1f} ms, speedup {speedup:.0f}x"
    )
    assert speedup >= 20.0


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_of(fn, repeats: int = 5) -> float:
    return min(_timed(fn) for _ in range(repeats))


# ---------------------------------------------------------------------- #
# Ensemble-vectorized inference (PR 3)
# ---------------------------------------------------------------------- #
MONTE_CARLO_SEEDS = 16
#: The serving shape the ensemble path targets: one request-sized batch of
#: inputs evaluated under many concurrent noise scenarios.
REQUEST_BATCH = 24


def _fig5_cnn():
    """The fig5 CNN (compact LeNet-5) trained briefly, plus a request batch."""
    train_x, train_y, test_x, test_y = sign_mnist_synthetic(n_train=200, n_test=REQUEST_BATCH)
    model = build_model(1, compact=True)
    model.fit(train_x, train_y, epochs=3, batch_size=32, seed=0)
    return model, test_x, test_y


def test_noise_stack_apply_many(benchmark):
    """Fused 16-seed weight perturbation vs the per-seed apply loop."""
    stack = NoiseStack([QuantizationChannel(bits=16), FPVDriftChannel()])
    rng = np.random.default_rng(0)
    tensors = [
        rng.normal(size=shape)
        for shape in [(6, 1, 5, 5), (16, 6, 5, 5), (256, 120), (120, 84), (84, 26)]
    ]
    seeds = range(MONTE_CARLO_SEEDS)

    def fused():
        rngs = [np.random.default_rng(seed) for seed in seeds]
        return [stack.apply_many(weights, rngs) for weights in tensors]

    def per_seed_loop():
        out = []
        for seed in seeds:
            rng_seed = np.random.default_rng(seed)
            out.append([stack.apply(weights, rng_seed) for weights in tensors])
        return out

    stacks = benchmark(fused)

    # Elementwise identity with the sequential loop.
    reference = per_seed_loop()
    for tensor_index, stacked in enumerate(stacks):
        for member in range(MONTE_CARLO_SEEDS):
            np.testing.assert_array_equal(
                stacked[member], reference[member][tensor_index]
            )

    fused_s = _best_of(fused)
    loop_s = _best_of(per_seed_loop)
    speedup = loop_s / fused_s
    benchmark.extra_info["per_seed_loop_ms"] = loop_s * 1e3
    benchmark.extra_info["speedup_vs_per_seed_loop"] = speedup
    print(
        f"\napply_many 16 seeds: fused {fused_s * 1e3:.2f} ms, "
        f"per-seed loop {loop_s * 1e3:.2f} ms, speedup {speedup:.2f}x"
    )
    assert speedup >= 1.2


def test_monte_carlo_accuracy_ensemble(benchmark):
    """16-seed Monte-Carlo accuracy on the fig5 CNN: ensemble vs seed loop."""
    model, test_x, test_y = _fig5_cnn()
    stack = NoiseStack([QuantizationChannel(bits=16), FPVDriftChannel()])
    ideal = ideal_model_accuracy(model, test_x, test_y)

    def ensemble():
        return monte_carlo_accuracy(
            model, test_x, test_y, stack,
            seeds=MONTE_CARLO_SEEDS, activation_bits=16, ideal_accuracy=ideal,
        )

    def per_seed_loop():
        records = []
        for seed in range(MONTE_CARLO_SEEDS):
            engine = PhotonicInferenceEngine(stack, activation_bits=16, seed=seed)
            records.append(
                engine.evaluate(model, test_x, test_y, ideal_accuracy=ideal)
            )
        return records

    result = benchmark(ensemble)

    # Per-seed accuracies elementwise identical to the sequential loop.
    reference = per_seed_loop()
    assert result.accuracies == tuple(record.accuracy for record in reference)

    ensemble_s = _best_of(ensemble)
    loop_s = _best_of(per_seed_loop)
    speedup = loop_s / ensemble_s
    benchmark.extra_info["per_seed_loop_ms"] = loop_s * 1e3
    benchmark.extra_info["speedup_vs_per_seed_loop"] = speedup
    benchmark.extra_info["request_batch"] = REQUEST_BATCH
    benchmark.extra_info["n_seeds"] = MONTE_CARLO_SEEDS
    print(
        f"\nmonte_carlo_accuracy 16 seeds x {REQUEST_BATCH} inputs: "
        f"ensemble {ensemble_s * 1e3:.1f} ms, per-seed loop {loop_s * 1e3:.1f} ms, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= 1.2


def test_ted_pitch_sweep(benchmark):
    pitches = np.concatenate([np.arange(1.0, 10.5, 0.5), np.arange(12.0, 52.0, 2.0)])
    sweep = benchmark(tuning_power_vs_pitch, pitches, n_rings=10)

    ted_power = sweep["ted_power_per_mr_w"]
    naive_power = sweep["naive_power_per_mr_w"]
    assert ted_power.shape == pitches.shape
    # The TED minimum sits at the paper's ~5 um operating point.
    optimal = float(pitches[int(np.argmin(ted_power))])
    assert 3.0 <= optimal <= 8.0
    # Collective tuning never costs more than naive tuning.
    assert np.all(naive_power >= ted_power - 1e-12)
