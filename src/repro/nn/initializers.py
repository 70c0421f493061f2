"""Weight initializers for the pure-NumPy DNN substrate.

Small, deterministic (seedable) initializers sufficient for training the
Table-I evaluation models from scratch: Glorot/Xavier and He schemes for
dense and convolutional kernels, and zeros for biases.  :class:`DeferredInit`
postpones a model's draws until a parameter is first read, so models that
are only walked for their geometry never allocate their weights.
"""

from __future__ import annotations

import numpy as np


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization.

    Fan-in and fan-out are computed from the first two dimensions for dense
    kernels, and include the receptive-field size for convolution kernels of
    shape ``(out_channels, in_channels, kh, kw)``.
    """
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_normal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He (Kaiming) normal initialization, appropriate for ReLU networks."""
    fan_in, _ = _fans(shape)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def zeros(shape: tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    """All-zeros initializer (biases)."""
    return np.zeros(shape, dtype=float)


class DeferredInit:
    """A seeded generator whose layer initialisation waits for a first read.

    Pass one as the ``rng`` of every :class:`~repro.nn.layers.Dense` /
    :class:`~repro.nn.layers.Conv2D` of a model: each layer registers itself
    instead of drawing in ``__init__``.  The first read of any registered
    layer's ``weight``/``bias``/gradient buffers calls :meth:`draw`, which
    initialises every pending layer in registration order from one
    ``default_rng(seed)`` stream -- the same bytes an eager build with
    ``default_rng(seed)`` gives.  A model that is only asked for its
    workloads, layer counts or parameter count is never drawn.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._pending: list = []

    def defer(self, layer) -> None:
        """Queue ``layer`` for the next :meth:`draw`."""
        self._pending.append(layer)

    def draw(self) -> None:
        """Initialise every pending layer, in the order they were deferred."""
        pending, self._pending = self._pending, []
        for layer in pending:
            layer.draw(self._rng)


def _fans(shape: tuple[int, ...]) -> tuple[float, float]:
    """Fan-in / fan-out of a kernel shape."""
    if len(shape) == 2:  # dense: (in, out)
        return float(shape[0]), float(shape[1])
    if len(shape) == 4:  # conv: (out_c, in_c, kh, kw)
        receptive = shape[2] * shape[3]
        return float(shape[1] * receptive), float(shape[0] * receptive)
    size = float(np.prod(shape))
    return size, size
