"""Pluggable compute backends and the precision policy for the DNN substrate.

Every GEMM, im2col lowering, and elementwise activation in the repository
funnels through a single narrow interface, :class:`ComputeBackend`, so the
numerical kernels can be swapped without touching the layers, the ensemble
inference engine, or the experiment drivers:

* :class:`NumpyBackend` -- the always-available reference backend.  Its
  kernels are *bit-identical* to the pre-backend implementations at every
  dtype (the im2col lowering is a pure gather, the GEMMs issue the exact
  same BLAS calls, and col2im accumulates in the exact same slice order),
  so the float64 results of every experiment are unchanged by the refactor.
  It is nevertheless substantially faster than the historical kernels: the
  im2col/col2im patch geometry is compiled once per layer geometry into a
  cached gather index and applied with one fused :func:`numpy.take` per
  call instead of a python loop plus a 6-D transpose copy.
* :class:`NumbaBackend` -- an optional accelerated backend using
  numba-jitted patch kernels.  It is auto-detected and *gracefully absent*:
  when numba is not installed the backend reports itself unavailable,
  ``get_backend("auto")`` falls back to numpy, and requesting it by name
  raises a clear error.  Like the reference backend it performs gathers and
  ordered accumulations, so it inherits the bit-identity contract.

Backend selection is process-wide: :func:`set_backend` /
:func:`use_backend` switch the active backend (initialised from the
``REPRO_BACKEND`` environment variable, default ``"numpy"``), and
:func:`active_backend` is what :mod:`repro.nn.functional` consults on every
kernel call.

Orthogonal to *which kernels run* is *at what precision they run*:
:class:`PrecisionPolicy` names the two supported compute modes,

* ``float64`` (:data:`FLOAT64_EXACT`) -- the default.  Results are
  bit-identical to the historical float64 path; this is the reproducibility
  contract every experiment's committed reference numbers rest on.
* ``float32`` (:data:`FLOAT32_FAST`) -- single-precision GEMMs and
  activations.  Halves memory traffic and roughly doubles BLAS throughput;
  bit-identity is explicitly relaxed to the documented tolerance
  (:attr:`PrecisionPolicy.rtol` / :attr:`PrecisionPolicy.atol` on logits;
  accuracies of the evaluation models move by at most a few counts on a
  ~100-sample test set).

The policy threads through :class:`~repro.sim.photonic_inference.\
EnsembleInferenceEngine`, the ensemble chunking helpers, and the
fig5/resolution/ablation study configs as a CLI-visible ``--precision``
flag; :func:`resolve_precision` is the single coercion point.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PrecisionPolicy",
    "FLOAT64_EXACT",
    "FLOAT32_FAST",
    "resolve_precision",
    "ComputeBackend",
    "NumpyBackend",
    "NumbaBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "active_backend",
]


# --------------------------------------------------------------------------- #
# Precision policy
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PrecisionPolicy:
    """A named compute-precision contract.

    Attributes
    ----------
    name:
        ``"float64"`` or ``"float32"`` -- the value accepted by config
        fields and CLI flags.
    dtype:
        The numpy dtype all GEMMs, activations, and ensemble stacks run in.
    rtol, atol:
        The documented tolerance of this policy's *logits* against the
        float64-exact reference (``0`` for the exact policy: bit-identity).
        Model accuracies derived from the logits may shift by a few counts
        where logit gaps are smaller than the tolerance.
    description:
        One-line human-readable contract, surfaced by ``repro describe``.
    """

    name: str
    dtype: np.dtype
    rtol: float
    atol: float
    description: str

    @property
    def exact(self) -> bool:
        """Whether this policy guarantees bit-identity to the reference."""
        return self.rtol == 0.0 and self.atol == 0.0

    def describe(self) -> str:
        """Human-readable one-line summary of the precision contract."""
        return f"{self.name}: {self.description}"


FLOAT64_EXACT = PrecisionPolicy(
    name="float64",
    dtype=np.dtype(np.float64),
    rtol=0.0,
    atol=0.0,
    description="double-precision compute, bit-identical to the reference path",
)

FLOAT32_FAST = PrecisionPolicy(
    name="float32",
    dtype=np.dtype(np.float32),
    rtol=1e-4,
    atol=1e-6,
    description=(
        "single-precision compute; logits within rtol=1e-4/atol=1e-6 of the "
        "float64 reference, accuracies within a few counts"
    ),
)

_POLICIES = {policy.name: policy for policy in (FLOAT64_EXACT, FLOAT32_FAST)}


def resolve_precision(spec) -> PrecisionPolicy:
    """Coerce a policy spec (policy, name, or dtype) into a PrecisionPolicy.

    Accepts a :class:`PrecisionPolicy`, a policy name (``"float64"`` /
    ``"float32"``), a numpy dtype (``numpy.float32`` names the float32
    policy), or ``None`` (the exact default).
    """
    if spec is None:
        return FLOAT64_EXACT
    if isinstance(spec, PrecisionPolicy):
        return spec
    if isinstance(spec, str) and spec in _POLICIES:
        return _POLICIES[spec]
    try:
        dtype = np.dtype(spec)
    except TypeError:
        dtype = None
    if dtype is not None:
        for policy in _POLICIES.values():
            if policy.dtype == dtype:
                return policy
    raise ValueError(
        f"precision must be one of {sorted(_POLICIES)} (or a matching dtype), "
        f"got {spec!r}"
    )


# --------------------------------------------------------------------------- #
# Backend interface
# --------------------------------------------------------------------------- #
class ComputeBackend(ABC):
    """Narrow kernel interface behind the pure-NumPy DNN substrate.

    A backend supplies exactly the operations the hot paths spend their
    time in: 2-D GEMM, batched (ensemble) GEMM, the im2col/col2im patch
    lowering pair, and the elementwise activation ufuncs.  Everything else
    (bias adds, reshapes, quantization) stays dtype-generic numpy in the
    callers.

    The reference semantics every backend must honour:

    * ``im2col``/``col2im`` are pure gathers / ordered scatter-adds --
      results are bit-identical to :class:`NumpyBackend` at every dtype;
    * ``matmul``/``batched_matmul`` follow :func:`numpy.matmul` semantics
      (accelerated backends may substitute kernels that relax bit-identity
      only under a non-exact :class:`PrecisionPolicy`);
    * activations preserve floating input dtypes (a float32 array in gives
      a float32 array out) -- the float32 policy relies on this.
    """

    #: Registry name (``"numpy"``, ``"numba"``); also the CLI spelling.
    name: str = "abstract"
    #: Whether this backend counts as an accelerated (non-reference) one.
    accelerated: bool = False

    @classmethod
    def is_available(cls) -> bool:
        """Whether the backend can run in this environment."""
        return True

    # -- GEMM ----------------------------------------------------------- #
    @abstractmethod
    def matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """2-D matrix product ``a @ b`` (optionally into ``out``)."""

    @abstractmethod
    def batched_matmul(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Broadcasting batched matmul with :func:`numpy.matmul` semantics."""

    # -- Convolution lowering ------------------------------------------- #
    @abstractmethod
    def im2col(
        self, images: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
    ) -> np.ndarray:
        """Unfold NCHW image patches into ``(N*oh*ow, C*kh*kw)`` columns."""

    @abstractmethod
    def col2im(
        self,
        cols: np.ndarray,
        input_shape: tuple[int, int, int, int],
        kernel_h: int,
        kernel_w: int,
        stride: int,
        padding: int,
    ) -> np.ndarray:
        """Fold columns back into images (adjoint of :meth:`im2col`)."""

    # -- Elementwise activations ---------------------------------------- #
    @abstractmethod
    def relu(self, x: np.ndarray) -> np.ndarray:
        """Rectified linear unit."""

    @abstractmethod
    def sigmoid(self, x: np.ndarray) -> np.ndarray:
        """Numerically stable logistic sigmoid, dtype-preserving."""

    @abstractmethod
    def tanh(self, x: np.ndarray) -> np.ndarray:
        """Hyperbolic tangent."""

    def describe(self) -> str:
        """One-line human-readable description of the backend."""
        kind = "accelerated" if self.accelerated else "reference"
        return f"{self.name} ({kind})"


# --------------------------------------------------------------------------- #
# Reference backend
# --------------------------------------------------------------------------- #
def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    if size + 2 * padding < kernel:
        raise ValueError(
            f"input size {size} with padding {padding} is smaller than kernel {kernel}"
        )
    return (size + 2 * padding - kernel) // stride + 1


class _PatchIndexCache:
    """Bounded cache of im2col gather indices, keyed by patch geometry.

    The gather index maps each ``(output position, kernel tap)`` pair of one
    padded sample to its flat offset; it depends only on the layer geometry
    ``(C, padded H, padded W, kh, kw, stride)``, so one index serves every
    batch, every epoch, and every ensemble member of a layer.  Entries are a
    few hundred KB at the model sizes here; the bound exists only to keep
    pathological sweeps over many geometries from accumulating.
    """

    def __init__(self, maxsize: int = 128) -> None:
        self._maxsize = maxsize
        self._entries: dict[tuple, np.ndarray] = {}

    def get(
        self, c: int, hp: int, wp: int, kh: int, kw: int, stride: int, out_h: int, out_w: int
    ) -> np.ndarray:
        key = (c, hp, wp, kh, kw, stride)
        index = self._entries.get(key)
        if index is None:
            taps = (
                np.arange(c)[:, None, None] * (hp * wp)
                + np.arange(kh)[None, :, None] * wp
                + np.arange(kw)[None, None, :]
            ).reshape(1, -1)
            positions = (
                np.arange(out_h)[:, None] * (stride * wp)
                + np.arange(out_w)[None, :] * stride
            ).reshape(-1, 1)
            index = positions + taps  # (out_h*out_w, c*kh*kw)
            if len(self._entries) >= self._maxsize:
                self._entries.clear()
            self._entries[key] = index
        return index


class NumpyBackend(ComputeBackend):
    """Reference backend: numpy kernels, bit-identical to the legacy path.

    The im2col lowering gathers every patch with one :func:`numpy.take`
    through a cached per-geometry index (measured 3-7x faster than the
    historical slice-loop plus 6-D transpose copy, with byte-identical
    output -- a gather moves values, it never re-computes them).  col2im
    keeps the historical ordered slice accumulation: the summation *order*
    of overlapping patches is part of the bit-identity contract of the
    float64 training path.
    """

    name = "numpy"
    accelerated = False

    def __init__(self) -> None:
        self._patch_index = _PatchIndexCache()

    # -- GEMM ----------------------------------------------------------- #
    def matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.matmul(a, b, out=out) if out is not None else np.matmul(a, b)

    def batched_matmul(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        return np.matmul(a, b, out=out) if out is not None else np.matmul(a, b)

    # -- Convolution lowering ------------------------------------------- #
    def im2col(
        self, images: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
    ) -> np.ndarray:
        if images.ndim != 4:
            raise ValueError(f"expected NCHW input, got shape {images.shape}")
        n, c, h, w = images.shape
        out_h = _conv_output_size(h, kernel_h, stride, padding)
        out_w = _conv_output_size(w, kernel_w, stride, padding)
        if padding:
            images = np.pad(
                images,
                ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                mode="constant",
            )
        hp, wp = h + 2 * padding, w + 2 * padding
        index = self._patch_index.get(c, hp, wp, kernel_h, kernel_w, stride, out_h, out_w)
        flat = np.ascontiguousarray(images).reshape(n, c * hp * wp)
        cols = np.take(flat, index, axis=1)
        return cols.reshape(n * out_h * out_w, c * kernel_h * kernel_w)

    def col2im(
        self,
        cols: np.ndarray,
        input_shape: tuple[int, int, int, int],
        kernel_h: int,
        kernel_w: int,
        stride: int,
        padding: int,
    ) -> np.ndarray:
        n, c, h, w = input_shape
        out_h = _conv_output_size(h, kernel_h, stride, padding)
        out_w = _conv_output_size(w, kernel_w, stride, padding)
        # Overlapping patches accumulate in (y, x) tap order; keeping that
        # order is what makes the float64 training path bit-identical to
        # the pre-backend implementation.  The single up-front transpose
        # into tap-major layout makes every per-tap addend a *contiguous*
        # (N, C, out_h, out_w) block -- same summands, same order, one
        # optimized copy instead of a strided gather per tap.
        moved = np.ascontiguousarray(
            cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(4, 5, 0, 3, 1, 2)
        )
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
        for y in range(kernel_h):
            y_max = y + stride * out_h
            for x in range(kernel_w):
                x_max = x + stride * out_w
                padded[:, :, y:y_max:stride, x:x_max:stride] += moved[y, x]
        if padding == 0:
            return padded
        return padded[:, :, padding:-padding, padding:-padding]

    # -- Elementwise activations ---------------------------------------- #
    def relu(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def sigmoid(self, x: np.ndarray) -> np.ndarray:
        dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.dtype(float)
        out = np.empty_like(x, dtype=dtype)
        positive = x >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
        exp_x = np.exp(x[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        return out

    def tanh(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)


# --------------------------------------------------------------------------- #
# Optional numba-accelerated backend
# --------------------------------------------------------------------------- #
def _numba_importable() -> bool:
    try:
        import importlib.util

        return importlib.util.find_spec("numba") is not None
    except (ImportError, ValueError):  # pragma: no cover - exotic importers
        return False


class NumbaBackend(NumpyBackend):
    """Optional accelerated backend with numba-jitted patch kernels.

    The BLAS-bound GEMMs are inherited from :class:`NumpyBackend` (numba
    cannot beat a tuned BLAS there); what gets jitted are the memory-bound
    patch kernels -- im2col's gather and col2im's ordered scatter-add --
    which fuse the padding, the gather, and the layout write into one pass
    with no large intermediate.  Both kernels visit elements in the same
    order as the reference backend, so bit-identity is preserved.

    The backend is *gracefully absent*: :meth:`is_available` is false when
    numba is not importable, ``get_backend("auto")`` then falls back to
    numpy, and requesting ``"numba"`` explicitly raises a clear error.
    Kernels compile lazily on first use (and cache on disk via numba's
    ``cache=True``), so importing this module never pays compilation cost.
    """

    name = "numba"
    accelerated = True

    def __init__(self) -> None:
        super().__init__()
        if not self.is_available():
            raise RuntimeError(
                "the numba backend requires the optional 'numba' package; "
                "install it or use the 'numpy' backend"
            )
        self._kernels = None

    @classmethod
    def is_available(cls) -> bool:
        return _numba_importable()

    def _compiled(self):
        """Lazily compile the patch kernels on first use."""
        if self._kernels is None:
            import numba

            @numba.njit(cache=True, fastmath=False)
            def im2col_kernel(images, kernel_h, kernel_w, stride, padding, out):
                n, c, h, w = images.shape
                out_h = (h + 2 * padding - kernel_h) // stride + 1
                out_w = (w + 2 * padding - kernel_w) // stride + 1
                for i in range(n):
                    for oy in range(out_h):
                        for ox in range(out_w):
                            row = (i * out_h + oy) * out_w + ox
                            col = 0
                            for ch in range(c):
                                for ky in range(kernel_h):
                                    y = oy * stride + ky - padding
                                    for kx in range(kernel_w):
                                        x = ox * stride + kx - padding
                                        if 0 <= y < h and 0 <= x < w:
                                            out[row, col] = images[i, ch, y, x]
                                        else:
                                            out[row, col] = 0.0
                                        col += 1
                return out

            @numba.njit(cache=True, fastmath=False)
            def col2im_kernel(cols, n, c, h, w, kernel_h, kernel_w, stride, padding, out):
                out_h = (h + 2 * padding - kernel_h) // stride + 1
                out_w = (w + 2 * padding - kernel_w) // stride + 1
                # Accumulate in tap (ky, kx) major order to mirror the
                # reference backend's slice-loop summation order exactly.
                for ky in range(kernel_h):
                    for kx in range(kernel_w):
                        for i in range(n):
                            for oy in range(out_h):
                                y = oy * stride + ky - padding
                                if y < 0 or y >= h:
                                    continue
                                for ox in range(out_w):
                                    x = ox * stride + kx - padding
                                    if x < 0 or x >= w:
                                        continue
                                    row = (i * out_h + oy) * out_w + ox
                                    for ch in range(c):
                                        col = (ch * kernel_h + ky) * kernel_w + kx
                                        out[i, ch, y, x] += cols[row, col]
                return out

            self._kernels = (im2col_kernel, col2im_kernel)
        return self._kernels

    def im2col(
        self, images: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
    ) -> np.ndarray:
        if images.ndim != 4:
            raise ValueError(f"expected NCHW input, got shape {images.shape}")
        n, c, h, w = images.shape
        out_h = _conv_output_size(h, kernel_h, stride, padding)
        out_w = _conv_output_size(w, kernel_w, stride, padding)
        im2col_kernel, _ = self._compiled()
        out = np.empty((n * out_h * out_w, c * kernel_h * kernel_w), dtype=images.dtype)
        return im2col_kernel(
            np.ascontiguousarray(images), kernel_h, kernel_w, stride, padding, out
        )

    def col2im(
        self,
        cols: np.ndarray,
        input_shape: tuple[int, int, int, int],
        kernel_h: int,
        kernel_w: int,
        stride: int,
        padding: int,
    ) -> np.ndarray:
        n, c, h, w = input_shape
        _, col2im_kernel = self._compiled()
        out = np.zeros((n, c, h, w), dtype=cols.dtype)
        return col2im_kernel(
            np.ascontiguousarray(cols), n, c, h, w, kernel_h, kernel_w, stride, padding, out
        )


# --------------------------------------------------------------------------- #
# Registry and active-backend selection
# --------------------------------------------------------------------------- #
_BACKEND_CLASSES: dict[str, type[ComputeBackend]] = {}
_BACKEND_INSTANCES: dict[str, ComputeBackend] = {}
_active: ComputeBackend | None = None


def register_backend(cls: type[ComputeBackend]) -> type[ComputeBackend]:
    """Register a backend class under its ``name`` (also usable as a decorator)."""
    if not cls.name or cls.name == "abstract":
        raise ValueError("backend classes must define a unique 'name'")
    _BACKEND_CLASSES[cls.name] = cls
    _BACKEND_INSTANCES.pop(cls.name, None)
    return cls


register_backend(NumpyBackend)
register_backend(NumbaBackend)


def available_backends() -> tuple[str, ...]:
    """Names of the registered backends available in this environment."""
    return tuple(
        name for name, cls in _BACKEND_CLASSES.items() if cls.is_available()
    )


def get_backend(spec=None) -> ComputeBackend:
    """Resolve a backend spec into a live backend instance.

    Accepts a :class:`ComputeBackend` instance (returned as-is), a
    registered name, ``"auto"`` (the fastest available backend: an
    accelerated one when present, the numpy reference otherwise), or
    ``None`` (the currently active backend).
    """
    if spec is None:
        return active_backend()
    if isinstance(spec, ComputeBackend):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"backend must be a name or ComputeBackend, got {spec!r}")
    if spec == "auto":
        for name, cls in _BACKEND_CLASSES.items():
            if cls.accelerated and cls.is_available():
                spec = name
                break
        else:
            spec = "numpy"
    cls = _BACKEND_CLASSES.get(spec)
    if cls is None:
        raise ValueError(
            f"unknown backend {spec!r}; registered: {sorted(_BACKEND_CLASSES)}"
        )
    if not cls.is_available():
        raise RuntimeError(
            f"backend {spec!r} is not available in this environment "
            f"(available: {list(available_backends())})"
        )
    instance = _BACKEND_INSTANCES.get(spec)
    if instance is None:
        instance = cls()
        _BACKEND_INSTANCES[spec] = instance
    return instance


def active_backend() -> ComputeBackend:
    """The process-wide backend all kernels currently route through."""
    global _active
    if _active is None:
        _active = get_backend(os.environ.get("REPRO_BACKEND", "numpy"))
    return _active


def set_backend(spec) -> ComputeBackend:
    """Switch the active backend; returns the new one."""
    global _active
    _active = get_backend(spec if spec is not None else "numpy")
    return _active


@contextmanager
def use_backend(spec):
    """Temporarily switch the active backend (``None`` is a no-op).

    ::

        with use_backend("numba"):
            engine.predict(model, inputs)
    """
    if spec is None:
        yield active_backend()
        return
    global _active
    previous = active_backend()
    _active = get_backend(spec)
    try:
        yield _active
    finally:
        _active = previous
