"""Functional photonic inference: accuracy under device non-idealities.

The performance simulator (:mod:`repro.sim.simulator`) answers "how fast and
how efficient"; this module answers "how *accurate*": it executes a trained
model's Conv2D/Dense layers through the same decomposition the VDP units use,
while injecting the device-level non-idealities the paper's cross-layer
optimizations exist to suppress.

The non-idealities themselves live in :mod:`repro.sim.noise` as composable
:class:`~repro.sim.noise.NoiseChannel` objects -- quantization, residual
Lorentzian drift, Monte-Carlo FPV drift, spectral and thermal crosstalk --
assembled into an ordered :class:`~repro.sim.noise.NoiseStack`.  The engine
here runs a model's weights through a stack (and optionally quantizes the
activations flowing between layers), so any combination of effects can be
evaluated without touching the engine:

* :class:`PhotonicInferenceEngine` runs one seeded realisation of any
  stack (:func:`repro.sim.noise.default_noise_stack` is the quantize-then-
  drift pair the drift studies use);
* :class:`EnsembleInferenceEngine` / :func:`evaluate_ensemble` evaluate E
  perturbed realisations of one model *in fused forward passes*: weight
  stacks are sampled through the vectorized
  :meth:`~repro.sim.noise.NoiseStack.apply_many`, every Dense/Conv2D layer
  runs one stacked GEMM over the ``(E, ...)`` weight axis, and im2col patch
  matrices are computed once per input batch and shared across members --
  with chunking over the member and batch axes to bound peak memory and an
  opt-in float32 ``precision``.  At float64 the ensemble is elementwise
  identical to evaluating the members one engine at a time;
* :func:`monte_carlo_accuracy` runs seeded FPV/crosstalk trials on the
  ensemble path (``n_workers > 1`` spreads contiguous *seed chunks*, each
  itself ensemble-vectorized, over a process pool) and reports mean/std
  accuracy, as does :func:`accuracy_vs_residual_drift` for drift sweeps.

This closes the loop of the paper's argument: the optimized MR design and the
TED hybrid tuning keep the residual drift small, which keeps the imprinted
weights accurate, which keeps inference accuracy at its quantization-limited
value.  The ablation experiment (:mod:`repro.experiments.ablation`) sweeps
the residual drift to show exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import hashlib
from collections import OrderedDict
from collections.abc import Iterable, Sequence as SequenceABC
from functools import partial

from repro.nn.backend import active_backend, get_backend, resolve_precision, use_backend
from repro.nn.layers import BatchNorm, Conv2D, Dropout, Flatten, ReLU, Sigmoid, Tanh
from repro.nn.model import Sequential
from repro.nn.quantization import (
    capture_parameters,
    quantize_array,
    quantize_array_stack,
    swapped_parameters,
)
from repro.sim.noise import (
    NoiseStack,
    QuantizationChannel,
    ResidualDriftChannel,
    default_noise_stack,
)
from repro.sim.sweep import plan_chunks, run_sweep
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class PhotonicInferenceResult:
    """Accuracy of a model executed on the (non-ideal) photonic substrate.

    ``resolution_bits`` / ``residual_drift_nm`` summarise the corresponding
    channels of the engine's noise stack when present; a stack without a
    quantization channel reports ``resolution_bits = 0`` (unquantized /
    float weights), and ``noise`` always carries the full stack description.
    """

    model: str
    resolution_bits: int
    residual_drift_nm: float
    accuracy: float
    ideal_accuracy: float
    noise: str = ""

    @property
    def accuracy_loss(self) -> float:
        """Accuracy lost relative to ideal (float, noiseless) inference."""
        return self.ideal_accuracy - self.accuracy


def _stack_result(
    model: Sequential, stack: NoiseStack, accuracy: float, ideal_accuracy: float
) -> PhotonicInferenceResult:
    """The record of ``model`` evaluated under ``stack``.

    A stack without weight quantization reports ``resolution_bits = 0``, the
    documented "unquantized / float weights" sentinel (activation resolution
    is tracked separately and does not quantize the imprinted weights).
    """
    bits = next(
        (
            channel.bits
            for channel in stack
            if isinstance(channel, QuantizationChannel) and channel.bits is not None
        ),
        0,
    )
    return PhotonicInferenceResult(
        model=model.name,
        resolution_bits=bits,
        residual_drift_nm=sum(
            channel.residual_drift_nm
            for channel in stack
            if isinstance(channel, ResidualDriftChannel)
        ),
        accuracy=float(accuracy),
        ideal_accuracy=float(ideal_accuracy),
        noise=stack.describe(),
    )


class PhotonicInferenceEngine:
    """Execute a trained model through a stack of photonic noise channels.

    The engine owns a seeded random generator, threads it through the noise
    stack when perturbing each layer's weights, and (optionally) quantizes
    the activations flowing between layers to the modulator/ADC resolution.

    Parameters
    ----------
    noise_stack:
        The :class:`~repro.sim.noise.NoiseStack` (or iterable of channels)
        every layer's weights run through; weight resolution is a
        :class:`~repro.sim.noise.QuantizationChannel` in it.
    activation_bits:
        Resolution of inter-layer activations; ``None`` keeps activations in
        float.
    seed:
        Seed of the engine's random generator (drift error signs, FPV
        draws); a fixed seed replays an identical trial.
    """

    def __init__(
        self,
        noise_stack: NoiseStack,
        activation_bits: int | None = None,
        seed: int = 0,
    ) -> None:
        if not isinstance(noise_stack, NoiseStack):
            noise_stack = NoiseStack(tuple(noise_stack))
        if activation_bits is not None:
            check_positive_int("activation_bits", activation_bits)
        self.noise_stack = noise_stack
        self.activation_bits = activation_bits
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    # Weight perturbation
    # ------------------------------------------------------------------ #
    def perturbed_weights(self, weights: np.ndarray) -> np.ndarray:
        """Run ``weights`` through the noise stack (consumes engine RNG).

        For the default stack: magnitudes are normalised to the tensor's
        dynamic range (as a DAC would program them), quantized, and each
        element receives an error whose magnitude follows the Lorentzian
        sensitivity of its ring at the configured residual drift and whose
        sign is random per ring.
        """
        return self.noise_stack.apply(weights, self._rng)

    # ------------------------------------------------------------------ #
    # Model execution
    # ------------------------------------------------------------------ #
    def _quantize_activation(self, values: np.ndarray) -> np.ndarray:
        if self.activation_bits is None:
            return values
        return quantize_array(values, self.activation_bits)

    def predict(self, model: Sequential, inputs: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Forward pass with perturbed weights and quantized activations."""
        with swapped_parameters(model, self.perturbed_weights, param_names=("weight",)):
            model.eval()
            outputs = []
            for start in range(0, inputs.shape[0], batch_size):
                out = self._quantize_activation(inputs[start : start + batch_size])
                for layer in model.layers:
                    out = layer.forward(out)
                    out = self._quantize_activation(out)
                outputs.append(out)
            return np.concatenate(outputs, axis=0)

    def evaluate(
        self,
        model: Sequential,
        inputs: np.ndarray,
        labels: np.ndarray,
        batch_size: int = 64,
        ideal_accuracy: float | None = None,
    ) -> PhotonicInferenceResult:
        """Accuracy of ``model`` on a labelled dataset under this engine.

        The drift-independent ideal (float, noiseless) accuracy is computed
        at most once per ``(model, inputs, labels, batch_size)`` combination
        and reused from a module-level cache on subsequent calls -- during a
        drift sweep every point shares the same baseline.  Pass
        ``ideal_accuracy`` to supply a precomputed baseline and bypass the
        cache entirely.
        """
        logits = self.predict(model, inputs, batch_size=batch_size)
        predictions = np.argmax(logits, axis=1)
        accuracy = float(np.mean(predictions == np.asarray(labels, dtype=int)))
        if ideal_accuracy is None:
            ideal_accuracy = ideal_model_accuracy(model, inputs, labels, batch_size=batch_size)
        return _stack_result(model, self.noise_stack, accuracy, ideal_accuracy)


# ---------------------------------------------------------------------- #
# Ensemble-vectorized inference
# ---------------------------------------------------------------------- #
#: Stateless layers whose forward pass is shape-agnostic in inference mode,
#: so the ensemble engine can apply them to an (E, N, ...) stack without
#: merging the leading axes first (Dropout is an inference-mode no-op).
_ELEMENTWISE_LAYERS = (ReLU, Sigmoid, Tanh, Dropout)

#: Members evaluated simultaneously when ``member_chunk`` is not given.
#: Bounding the default keeps peak activation memory flat in the ensemble
#: size (the old per-seed loop was constant-memory; an unbounded default
#: would make ``seeds=512`` allocate 512x activations), while one chunk of
#: this size already captures the fusion win of the benchmark workloads.
DEFAULT_MEMBER_CHUNK = 16


class EnsembleInferenceEngine:
    """Evaluate E perturbed realisations of one model in fused passes.

    Monte-Carlo noise studies and drift sweeps all reduce to running *many
    perturbed copies of the same model* over *the same dataset*.  Doing that
    one :class:`PhotonicInferenceEngine` at a time pays E full forward passes
    and recomputes identical im2col patch matrices E times; this engine
    instead stacks the E weight realisations along a leading ensemble axis
    and evaluates them together:

    * weight perturbation runs through the vectorized
      :meth:`~repro.sim.noise.NoiseStack.apply_many` when all members share
      one stack (heterogeneous per-member stacks fall back to a per-member
      loop for the perturbation only -- the forward passes stay fused);
    * every Dense/Conv2D layer executes one stacked GEMM over the
      ``(E, ...)`` weight axis (:meth:`~repro.nn.layers.Dense.\
forward_ensemble` / :meth:`~repro.nn.layers.Conv2D.forward_ensemble`);
    * im2col patch matrices and all activations upstream of the first noisy
      layer are computed **once per input batch** and shared across members
      (when the members' activation resolutions agree);
    * non-parametric layers run stack-wise where that is free (elementwise
      activations apply to the whole ``(E, N, ...)`` stack in one ufunc
      pass; flatten is a reshape) and per member at batch size where a
      merged mega-batch measured cache-hostile (pooling and batch-norm
      gathers), each per-member call being the exact scalar forward.

    At ``precision="float64"`` (the default) every member's logits and
    accuracy are elementwise identical to a sequential per-seed
    :class:`PhotonicInferenceEngine` evaluation; ``precision="float32"`` is
    an opt-in compute mode that halves peak memory at a small numerical
    tolerance.  ``member_chunk`` bounds how many members are resident at
    once (peak activation memory scales with ``member_chunk * batch_size``).

    Parameters
    ----------
    noise_stacks:
        A single :class:`~repro.sim.noise.NoiseStack` (or iterable of noise
        channels) shared by every member, or a sequence of per-member
        ``NoiseStack`` objects (e.g. one per drift point of a sweep).
    seeds:
        Per-member generator seeds: an int E (seeds ``0..E-1``) or an
        explicit sequence.  With per-member stacks the length must match;
        repeating one seed across members replays the same random draws
        against each stack (the drift-sweep convention).
    activation_bits:
        Inter-layer activation resolution: one value for all members or a
        per-member sequence (``None`` keeps activations in float).
    precision:
        A :class:`~repro.nn.backend.PrecisionPolicy` (or its name,
        ``"float64"`` / ``"float32"``) selecting the compute precision and
        its documented tolerance contract.
    member_chunk:
        Maximum members evaluated simultaneously; defaults to
        :data:`DEFAULT_MEMBER_CHUNK` so peak activation memory stays flat
        in the ensemble size (results are chunk-invariant).
    backend:
        Compute backend the fused passes run on: a registered name
        (``"numpy"``, ``"numba"``, ``"auto"``), a
        :class:`~repro.nn.backend.ComputeBackend` instance, or ``None`` to
        use the process-wide active backend.
    """

    def __init__(
        self,
        noise_stacks,
        seeds,
        *,
        activation_bits=None,
        precision=None,
        member_chunk: int | None = None,
        backend=None,
    ) -> None:
        shared_stack, member_stacks = self._normalise_stacks(noise_stacks)
        if isinstance(seeds, (int, np.integer)):
            check_positive_int("seeds", int(seeds))
            seed_list = tuple(range(int(seeds)))
        else:
            seed_list = tuple(int(seed) for seed in seeds)
        if not seed_list:
            raise ValueError("seeds must not be empty")
        if member_stacks is not None and len(member_stacks) != len(seed_list):
            raise ValueError(
                f"got {len(member_stacks)} noise stacks for {len(seed_list)} seeds"
            )
        self._shared_stack = shared_stack
        self._member_stacks = member_stacks
        self.seeds = seed_list
        n_members = len(seed_list)

        if activation_bits is None or isinstance(activation_bits, (int, np.integer)):
            bits_list = (activation_bits if activation_bits is None else int(activation_bits),) * n_members
        else:
            bits_list = tuple(
                None if bits is None else int(bits) for bits in activation_bits
            )
            if len(bits_list) != n_members:
                raise ValueError(
                    f"got {len(bits_list)} activation_bits for {n_members} members"
                )
        for bits in bits_list:
            if bits is not None:
                check_positive_int("activation_bits", bits)
        self.activation_bits = bits_list

        self.precision = resolve_precision(precision)
        self._dtype = self.precision.dtype
        self._backend = backend
        if member_chunk is not None:
            check_positive_int("member_chunk", member_chunk)
        self._member_chunk = member_chunk if member_chunk is not None else DEFAULT_MEMBER_CHUNK

    @staticmethod
    def _normalise_stacks(noise_stacks):
        """Resolve the stack argument into (shared, per_member) form."""
        if isinstance(noise_stacks, NoiseStack):
            return noise_stacks, None
        if not isinstance(noise_stacks, (SequenceABC, Iterable)):
            raise TypeError(
                f"noise_stacks must be a NoiseStack or a sequence, got {noise_stacks!r}"
            )
        items = tuple(noise_stacks)
        if not items:
            raise ValueError("noise_stacks must not be empty")
        if all(isinstance(item, NoiseStack) for item in items):
            return None, items
        if any(isinstance(item, NoiseStack) for item in items):
            raise TypeError(
                "noise_stacks mixes NoiseStack objects with noise channels; "
                "pass either one stack (or channel iterable) or a sequence of stacks"
            )
        # An iterable of channels: one shared stack, like the scalar engine.
        return NoiseStack(items), None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_members(self) -> int:
        """Number of ensemble members (perturbed model realisations)."""
        return len(self.seeds)

    @property
    def noise_stacks(self) -> tuple[NoiseStack, ...]:
        """Per-member noise stacks (the shared stack repeated when shared)."""
        if self._member_stacks is not None:
            return self._member_stacks
        return (self._shared_stack,) * self.n_members

    def describe_compute(self) -> str:
        """One-line summary of the compute backend + precision policy."""
        backend = get_backend(self._backend) if self._backend is not None else active_backend()
        return f"backend={backend.name}, precision={self.precision.name}"

    # ------------------------------------------------------------------ #
    # Weight perturbation
    # ------------------------------------------------------------------ #
    def perturbed_weight_stacks(self, model: Sequential) -> dict[int, np.ndarray]:
        """Per-layer ``(E, *weight.shape)`` stacks of perturbed weights.

        Layers are perturbed in model order and member ``e`` consumes a
        fresh ``default_rng(seeds[e])`` stream exactly as a sequential
        engine constructed with that seed would, so the stacks are
        elementwise identical to E independent
        :meth:`PhotonicInferenceEngine.perturbed_weights` sweeps.
        """
        rngs = [np.random.default_rng(seed) for seed in self.seeds]
        base = capture_parameters(model, param_names=("weight",))
        stacks: dict[int, np.ndarray] = {}
        for index, params in base.items():
            weight = params["weight"]
            if self._shared_stack is not None:
                stacked = self._shared_stack.apply_many(weight, rngs)
            else:
                stacked = np.stack(
                    [
                        np.asarray(stack.apply(weight, rng), dtype=float)
                        for stack, rng in zip(self._member_stacks, rngs)
                    ]
                )
            stacks[index] = stacked.astype(self._dtype, copy=False)
        return stacks

    # ------------------------------------------------------------------ #
    # Fused forward passes
    # ------------------------------------------------------------------ #
    def _cast(self, values: np.ndarray) -> np.ndarray:
        return values.astype(self._dtype, copy=False)

    def _quantize_shared(self, values: np.ndarray, bits: int | None) -> np.ndarray:
        if bits is None:
            return values
        # The single-member stack quantizer preserves dtype and is
        # elementwise identical to quantize_array at float64.
        return quantize_array_stack(values[np.newaxis], bits)[0]

    def _quantize_stacked(self, values: np.ndarray, bits: int | None) -> np.ndarray:
        if bits is None:
            return values
        return quantize_array_stack(values, bits)

    def _member_chunks(self) -> list[range]:
        """Contiguous member chunks, split at activation-resolution changes.

        Keeping each chunk homogeneous in ``activation_bits`` lets
        :meth:`_forward_members` share the pre-divergence prefix (input
        quantization, patch matrices) within the chunk and cache it across
        chunks with the same resolution; a resolution sweep (the fig5 shape)
        thereby degenerates to one chunk per resolution rather than forcing
        the whole ensemble onto the fully-stacked path.  ``member_chunk``
        additionally bounds each chunk's size.
        """
        limit = self._member_chunk
        chunks: list[range] = []
        start = 0
        for member in range(1, self.n_members + 1):
            boundary = (
                member == self.n_members
                or self.activation_bits[member] != self.activation_bits[start]
            )
            if boundary:
                for chunk in plan_chunks(member - start, chunk_size=limit):
                    chunks.append(range(start + chunk.start, start + chunk.stop))
                start = member
        return chunks

    def _forward_members(
        self,
        model: Sequential,
        layer_stacks: dict[int, np.ndarray],
        batch: np.ndarray,
        members: range,
        cache: dict,
    ) -> np.ndarray:
        """Forward one member chunk over one input batch.

        Activations stay *shared* (one ``(N, ...)`` array) until the first
        noisy layer, then become *stacked* (``(E_chunk, N, ...)``).  Shared
        activations and im2col patch matrices are memoized in ``cache``
        across member chunks of the same batch, keyed by the chunk's
        activation resolution -- :meth:`_member_chunks` guarantees every
        chunk is homogeneous in ``activation_bits``.
        """
        bits = self.activation_bits[members.start]
        stacked = False
        key = ("in", bits)
        x = cache.get(key)
        if x is None:
            x = self._quantize_shared(self._cast(np.asarray(batch)), bits)
            cache[key] = x

        for index, layer in enumerate(model.layers):
            weight_stack = layer_stacks.get(index)
            if weight_stack is None:
                if stacked:
                    if isinstance(layer, _ELEMENTWISE_LAYERS):
                        # Shape-agnostic layers run on the (E, N, ...) stack
                        # directly (one ufunc pass for all members).
                        x = layer.forward(x)
                    elif isinstance(layer, Flatten):
                        x = x.reshape(x.shape[0], x.shape[1], -1)
                    else:
                        # Pooling / norm layers run per member at batch size:
                        # their im2col-style gathers thrash the cache on a
                        # merged (E*N, ...) mega-batch, and the per-member
                        # call is the exact scalar forward (bit-identical).
                        first = layer.forward(x[0])
                        if x.shape[0] == 1:
                            x = first[np.newaxis]
                        else:
                            out = np.empty((x.shape[0], *first.shape), dtype=first.dtype)
                            out[0] = first
                            for member in range(1, x.shape[0]):
                                out[member] = layer.forward(x[member])
                            x = out
                    x = self._cast(self._quantize_stacked(x, bits))
                else:
                    key = ("act", index, bits)
                    shared = cache.get(key)
                    if shared is None:
                        shared = self._cast(
                            self._quantize_shared(layer.forward(x), bits)
                        )
                        cache[key] = shared
                    x = shared
                continue

            chunk_weights = weight_stack[members.start : members.stop]
            if not stacked and isinstance(layer, Conv2D):
                key = ("cols", index, bits)
                cols = cache.get(key)
                if cols is None:
                    cols = layer.lower(x)
                    cache[key] = cols
                x = layer.forward_ensemble(x, chunk_weights, cols=cols)
            else:
                x = layer.forward_ensemble(x, chunk_weights)
            stacked = True
            x = self._cast(self._quantize_stacked(x, bits))

        if not stacked:
            x = np.broadcast_to(x, (len(members), *x.shape)).copy()
        return x

    def predict(
        self, model: Sequential, inputs: np.ndarray, batch_size: int = 64
    ) -> np.ndarray:
        """Logits of every ensemble member: shape ``(E, N, n_classes)``.

        Member ``e`` matches
        ``PhotonicInferenceEngine(stack_e, activation_bits_e,
        seed_e).predict(model, inputs, batch_size)`` elementwise at float64.
        """
        check_positive_int("batch_size", batch_size)
        with use_backend(self._backend):
            layer_stacks = self.perturbed_weight_stacks(model)
            model.eval()
            inputs = np.asarray(inputs)
            chunks = self._member_chunks()
            # A resolution's shared prefix is dropped after its last chunk,
            # so one resolution's activations and patch matrices are
            # resident at a time (unless resolutions interleave).
            last_chunk = {
                self.activation_bits[members.start]: i for i, members in enumerate(chunks)
            }
            outputs = []
            for start in range(0, inputs.shape[0], batch_size):
                batch = inputs[start : start + batch_size]
                cache: dict = {}
                parts = []
                for i, members in enumerate(chunks):
                    parts.append(
                        self._forward_members(model, layer_stacks, batch, members, cache)
                    )
                    bits = self.activation_bits[members.start]
                    if last_chunk[bits] == i:
                        for key in [key for key in cache if key[-1] == bits]:
                            del cache[key]
                outputs.append(
                    parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
                )
            return np.concatenate(outputs, axis=1)

    def evaluate(
        self,
        model: Sequential,
        inputs: np.ndarray,
        labels: np.ndarray,
        batch_size: int = 64,
        ideal_accuracy: float | None = None,
    ) -> tuple[PhotonicInferenceResult, ...]:
        """Per-member accuracies on a labelled dataset, in member order.

        Returns one :class:`PhotonicInferenceResult` per member (the same
        record a sequential engine produces for that member's stack), all
        sharing one cached ideal-accuracy baseline.
        """
        logits = self.predict(model, inputs, batch_size=batch_size)
        predictions = np.argmax(logits, axis=2)
        labels_array = np.asarray(labels, dtype=int)
        accuracies = np.mean(predictions == labels_array[np.newaxis, :], axis=1)
        if ideal_accuracy is None:
            ideal_accuracy = ideal_model_accuracy(model, inputs, labels, batch_size=batch_size)
        return tuple(
            _stack_result(model, stack, accuracies[member], ideal_accuracy)
            for member, stack in enumerate(self.noise_stacks)
        )


def evaluate_ensemble(
    model: Sequential,
    inputs: np.ndarray,
    labels: np.ndarray,
    noise_stacks,
    seeds,
    *,
    activation_bits=None,
    batch_size: int = 64,
    precision=None,
    member_chunk: int | None = None,
    backend=None,
    ideal_accuracy: float | None = None,
) -> tuple[PhotonicInferenceResult, ...]:
    """One-shot :class:`EnsembleInferenceEngine` evaluation.

    Builds the engine over ``noise_stacks``/``seeds`` and returns the
    per-member :class:`PhotonicInferenceResult` records.  This is the fused
    primitive :func:`monte_carlo_accuracy`,
    :func:`accuracy_vs_residual_drift`, and the experiment drivers run on.
    ``precision`` and ``backend`` select the compute policy and kernel
    backend exactly as on the engine constructor.
    """
    engine = EnsembleInferenceEngine(
        noise_stacks,
        seeds,
        activation_bits=activation_bits,
        precision=precision,
        member_chunk=member_chunk,
        backend=backend,
    )
    return engine.evaluate(
        model, inputs, labels, batch_size=batch_size, ideal_accuracy=ideal_accuracy
    )


def _array_fingerprint(array) -> tuple:
    """Content fingerprint of an array: shape, dtype, and a byte-level hash.

    Since the ideal-accuracy cache keys on fingerprints alone (no object
    identity), the fingerprint must be collision-free in practice -- cheap
    statistical summaries (sums, dot products) demonstrably alias distinct
    label vectors.  Hashing the raw bytes is the same O(n) cost as a
    reduction and orders of magnitude cheaper than the full-dataset model
    evaluation the cache guards.
    """
    contiguous = np.ascontiguousarray(array)
    return (
        np.shape(array),
        str(contiguous.dtype),
        hashlib.sha256(contiguous.tobytes()).hexdigest(),
    )


def _model_weight_fingerprint(model: Sequential) -> tuple:
    """Fingerprint of a model's prediction-affecting state.

    Covers the model's layer structure (type sequence and input shape),
    every layer's trainable parameters (the base ``Layer.parameters`` API,
    empty for stateless layers), and BatchNorm running statistics, so
    retraining a cached model in place -- including mutations that touch
    only normalisation state -- changes the fingerprint, while two models
    with identical structure and parameters (e.g. copies unpickled in sweep
    workers) share one.
    """
    parts: list = [
        model.input_shape,
        tuple(type(layer).__name__ for layer in model.layers),
    ]
    for index, layer in enumerate(model.layers):
        for name, param in layer.parameters().items():
            parts.append((index, name, _array_fingerprint(param)))
        if isinstance(layer, BatchNorm):
            parts.append((index, "running_mean", _array_fingerprint(layer.running_mean)))
            parts.append((index, "running_var", _array_fingerprint(layer.running_var)))
    return tuple(parts)


class _IdealAccuracyCache:
    """Content-keyed LRU cache of drift-independent ideal accuracies.

    Keys are content fingerprints of the model's prediction-affecting state
    (:func:`_model_weight_fingerprint`) and of the dataset arrays
    (:func:`_array_fingerprint`), plus the batch size.  Keying by content
    rather than object identity means logically-equal datasets and model
    copies -- ``test_x.copy()``, a model unpickled into a sweep worker, a
    rebuilt-and-identically-trained model -- all hit the same entry, and
    in-place mutation (retraining, renormalising a buffer, relabelling)
    naturally misses because the fingerprint changes.  No references to the
    keyed objects are retained, so the cache never extends dataset or model
    lifetimes.  It is small and bounded, matching its purpose: reusing the
    noiseless baseline across the points of a sweep.
    """

    def __init__(self, maxsize: int = 8) -> None:
        self._maxsize = maxsize
        self._entries: OrderedDict[tuple, float] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, model: Sequential, inputs, labels, batch_size: int) -> float:
        key = (
            _model_weight_fingerprint(model),
            _array_fingerprint(inputs),
            _array_fingerprint(labels),
            int(batch_size),
        )
        accuracy = self._entries.get(key)
        if accuracy is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return accuracy
        self.misses += 1
        accuracy = float(model.evaluate(inputs, labels, batch_size=batch_size))
        self._entries[key] = accuracy
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
        return accuracy

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


_IDEAL_ACCURACY_CACHE = _IdealAccuracyCache()


def ideal_model_accuracy(
    model: Sequential, inputs: np.ndarray, labels: np.ndarray, batch_size: int = 64
) -> float:
    """Noiseless accuracy of ``model``, cached across repeated evaluations."""
    return _IDEAL_ACCURACY_CACHE.get(model, inputs, labels, batch_size)


def clear_ideal_accuracy_cache() -> None:
    """Drop all cached ideal-accuracy baselines (e.g. after retraining)."""
    _IDEAL_ACCURACY_CACHE.clear()


def accuracy_vs_residual_drift(
    model: Sequential,
    inputs: np.ndarray,
    labels: np.ndarray,
    drifts_nm,
    resolution_bits: int = 16,
    seed: int = 0,
    member_chunk: int | None = None,
    precision=None,
    backend=None,
) -> list[PhotonicInferenceResult]:
    """Sweep the uncompensated drift and measure inference accuracy.

    This is the accuracy-side ablation of the paper's tuning contribution:
    small residual drifts (what the hybrid TED circuit achieves) leave
    accuracy at its quantization-limited value, while letting the full
    FPV drift go uncompensated destroys it.

    All drift points evaluate as one ensemble (one member per drift value,
    each replaying the same ``seed``) through
    :class:`EnsembleInferenceEngine`, so the dataset's im2col patch matrices
    and the shared prefix of every forward pass are computed once per batch
    rather than once per drift point; per-point records are elementwise
    identical to the historical per-point engines.  The drift-independent
    ideal accuracy is likewise computed once and shared across all points.
    """
    ideal = ideal_model_accuracy(model, inputs, labels, batch_size=64)
    stacks = [default_noise_stack(resolution_bits, float(drift)) for drift in drifts_nm]
    records = evaluate_ensemble(
        model,
        inputs,
        labels,
        stacks,
        seeds=[int(seed)] * len(stacks),
        activation_bits=resolution_bits,
        batch_size=64,
        precision=precision,
        member_chunk=member_chunk,
        backend=backend,
        ideal_accuracy=ideal,
    )
    return list(records)


# ---------------------------------------------------------------------- #
# Monte-Carlo accuracy over noise-stack seeds
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class MonteCarloAccuracy:
    """Accuracy statistics of repeated seeded trials of one noise stack."""

    model: str
    noise: str
    seeds: tuple[int, ...]
    records: tuple[PhotonicInferenceResult, ...]
    ideal_accuracy: float

    @property
    def accuracies(self) -> tuple[float, ...]:
        """Per-seed accuracies, in seed order."""
        return tuple(record.accuracy for record in self.records)

    @property
    def mean_accuracy(self) -> float:
        """Mean accuracy across the Monte-Carlo trials."""
        return float(np.mean(self.accuracies))

    @property
    def std_accuracy(self) -> float:
        """Population standard deviation of accuracy across the trials."""
        return float(np.std(self.accuracies))

    @property
    def mean_accuracy_loss(self) -> float:
        """Mean accuracy lost relative to ideal (float, noiseless) inference."""
        return self.ideal_accuracy - self.mean_accuracy


def _evaluate_seed_chunk(
    seeds: tuple[int, ...],
    model: Sequential,
    inputs: np.ndarray,
    labels: np.ndarray,
    noise_stack: NoiseStack,
    activation_bits: int | None,
    batch_size: int,
    ideal_accuracy: float,
    member_chunk: int | None,
    precision: str,
    backend: str | None,
) -> tuple[PhotonicInferenceResult, ...]:
    """One contiguous seed chunk, ensemble-evaluated (picklable for pools)."""
    return evaluate_ensemble(
        model,
        inputs,
        labels,
        noise_stack,
        seeds=seeds,
        activation_bits=activation_bits,
        batch_size=batch_size,
        precision=precision,
        member_chunk=member_chunk,
        backend=backend,
        ideal_accuracy=ideal_accuracy,
    )


def monte_carlo_accuracy(
    model: Sequential,
    inputs: np.ndarray,
    labels: np.ndarray,
    noise_stack: NoiseStack,
    seeds=8,
    activation_bits: int | None = None,
    batch_size: int = 64,
    n_workers: int | None = None,
    ideal_accuracy: float | None = None,
    member_chunk: int | None = None,
    precision=None,
    backend=None,
) -> MonteCarloAccuracy:
    """Accuracy distribution of a noise stack over seeded Monte-Carlo trials.

    Each seed drives one independent trial: the engine's generator is seeded
    with it, so stochastic channels (FPV wafer draws, drift error signs)
    sample a fresh but reproducible realisation, while deterministic
    channels (quantization, crosstalk mixing) repeat exactly.

    All trials evaluate together through :class:`EnsembleInferenceEngine`
    -- one fused forward pass per input batch with the weight realisations
    stacked along the ensemble axis -- instead of one engine per seed; at
    float64 the per-seed records are elementwise identical to the historical
    per-seed loop.  ``n_workers > 1`` splits the seed list into contiguous
    chunks and spreads the chunks (each itself ensemble-vectorized) over a
    process pool; the pool remains the right tool for fanning out across
    *datasets or models*, while within one dataset the ensemble axis does
    the heavy lifting.

    Parameters
    ----------
    model, inputs, labels:
        Trained model and labelled evaluation set.
    noise_stack:
        The :class:`~repro.sim.noise.NoiseStack` (or iterable of channels)
        each trial applies to the weights.
    seeds:
        Either the number of trials (seeds ``0..n-1``) or an iterable of
        explicit seeds.
    activation_bits:
        Inter-layer activation resolution (``None`` keeps activations in
        float; weight quantization belongs in the stack).
    batch_size:
        Forward-pass batch size.
    n_workers:
        Process-pool width for the seed-chunk fan-out (``None``/``0``/``1``
        keep everything in-process on the ensemble path).
    ideal_accuracy:
        Precomputed noiseless baseline shared across the trials (mirrors
        :meth:`PhotonicInferenceEngine.evaluate`); computed once via
        :func:`ideal_model_accuracy` when omitted.
    member_chunk:
        Maximum seeds evaluated simultaneously per process (bounds peak
        memory; defaults to :data:`DEFAULT_MEMBER_CHUNK`).
    precision:
        :class:`~repro.nn.backend.PrecisionPolicy` (or name) selecting the
        compute precision (``"float32"`` is memory-lean at a small numerical
        tolerance).
    backend:
        Compute backend name (``"numpy"``/``"numba"``/``"auto"``) or
        instance; ``None`` uses the process-wide active backend.  Worker
        processes resolve the name independently, so pass a *name* (not an
        instance) together with ``n_workers > 1``.

    Returns
    -------
    MonteCarloAccuracy
        Per-seed records plus mean/std accuracy; deterministic for a fixed
        seed list regardless of ``n_workers`` or ``member_chunk``.
    """
    if not isinstance(noise_stack, NoiseStack):
        noise_stack = NoiseStack(tuple(noise_stack))
    if n_workers is not None:
        if isinstance(n_workers, bool) or not isinstance(n_workers, int):
            raise TypeError(f"n_workers must be an int or None, got {n_workers!r}")
        if n_workers < 0:
            raise ValueError(f"n_workers must be >= 0, got {n_workers}")
    if isinstance(seeds, (int, np.integer)):
        check_positive_int("seeds", int(seeds))
        seed_list = tuple(range(int(seeds)))
    else:
        seed_list = tuple(int(seed) for seed in seeds)
        if not seed_list:
            raise ValueError("seeds must not be empty")
    policy = resolve_precision(precision)
    ideal = (
        float(ideal_accuracy)
        if ideal_accuracy is not None
        else ideal_model_accuracy(model, inputs, labels, batch_size=batch_size)
    )
    if n_workers is not None and n_workers > 1 and len(seed_list) > 1:
        # Backend instances are process-local; ship the name to workers.
        backend_name = backend if backend is None or isinstance(backend, str) else backend.name
        chunks = plan_chunks(len(seed_list), n_chunks=n_workers)
        sweep = run_sweep(
            partial(
                _evaluate_seed_chunk,
                model=model,
                inputs=inputs,
                labels=labels,
                noise_stack=noise_stack,
                activation_bits=activation_bits,
                batch_size=batch_size,
                ideal_accuracy=ideal,
                member_chunk=member_chunk,
                precision=policy.name,
                backend=backend_name,
            ),
            [{"seeds": tuple(seed_list[i] for i in chunk)} for chunk in chunks],
            n_workers=n_workers,
        )
        records = tuple(record for chunk_records in sweep.values for record in chunk_records)
    else:
        records = evaluate_ensemble(
            model,
            inputs,
            labels,
            noise_stack,
            seeds=seed_list,
            activation_bits=activation_bits,
            batch_size=batch_size,
            precision=policy,
            member_chunk=member_chunk,
            backend=backend,
            ideal_accuracy=ideal,
        )
    return MonteCarloAccuracy(
        model=model.name,
        noise=noise_stack.describe(),
        seeds=seed_list,
        records=records,
        ideal_accuracy=ideal,
    )
