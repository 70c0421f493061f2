"""Unit tests for NN layers, including numerical gradient checks."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.nn import (
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)


class TestDense:
    def test_forward_matches_matmul(self, rng):
        layer = Dense(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        np.testing.assert_allclose(layer.forward(x), x @ layer.weight + layer.bias)

    def test_input_gradient_check(self, rng):
        layer = Dense(4, 3, rng=rng)
        x = rng.normal(size=(2, 4))
        upstream = rng.normal(size=(2, 3))
        layer.forward(x)
        grad_input = layer.backward(upstream)

        expected = np.zeros_like(x)
        eps = 1e-6
        for idx in np.ndindex(x.shape):
            original = x[idx]
            x[idx] = original + eps
            plus = float(np.sum(layer.forward(x) * upstream))
            x[idx] = original - eps
            minus = float(np.sum(layer.forward(x) * upstream))
            x[idx] = original
            expected[idx] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(grad_input, expected, rtol=1e-4, atol=1e-6)

    def test_weight_gradient_check(self, rng):
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        upstream = rng.normal(size=(4, 2))
        layer.forward(x)
        layer.backward(upstream)
        analytic = layer.gradients()["weight"]

        expected = np.zeros_like(layer.weight)
        eps = 1e-6
        for idx in np.ndindex(layer.weight.shape):
            original = layer.weight[idx]
            layer.weight[idx] = original + eps
            plus = float(np.sum(layer.forward(x) * upstream))
            layer.weight[idx] = original - eps
            minus = float(np.sum(layer.forward(x) * upstream))
            layer.weight[idx] = original
            expected[idx] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(analytic, expected, rtol=1e-4, atol=1e-6)

    def test_rejects_wrong_input_shape(self, rng):
        layer = Dense(4, 3)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(5, 7)))

    def test_workload_reports_fan_in_and_out(self):
        layer = Dense(256, 100)
        workload = layer.workload((256,))
        assert workload.kind == "fc"
        assert workload.dot_product_length == 256
        assert workload.n_dot_products == 100
        assert workload.macs == 25_600


class TestConv2D:
    def test_output_shape(self, rng):
        layer = Conv2D(3, 8, kernel_size=3, padding=1, rng=rng)
        x = rng.normal(size=(2, 3, 16, 16))
        assert layer.forward(x).shape == (2, 8, 16, 16)
        assert layer.output_shape((3, 16, 16)) == (8, 16, 16)

    def test_forward_matches_naive_convolution(self, rng):
        layer = Conv2D(2, 3, kernel_size=3, rng=rng)
        x = rng.normal(size=(1, 2, 5, 5))
        out = layer.forward(x)
        naive = np.zeros((1, 3, 3, 3))
        for f in range(3):
            for y in range(3):
                for xx in range(3):
                    patch = x[0, :, y : y + 3, xx : xx + 3]
                    naive[0, f, y, xx] = np.sum(patch * layer.weight[f]) + layer.bias[f]
        np.testing.assert_allclose(out, naive, rtol=1e-10)

    def test_input_gradient_check(self, rng):
        layer = Conv2D(1, 2, kernel_size=2, rng=rng)
        x = rng.normal(size=(1, 1, 4, 4))
        upstream = rng.normal(size=(1, 2, 3, 3))
        layer.forward(x)
        analytic = layer.backward(upstream)

        expected = np.zeros_like(x)
        eps = 1e-6
        for idx in np.ndindex(x.shape):
            original = x[idx]
            x[idx] = original + eps
            plus = float(np.sum(layer.forward(x) * upstream))
            x[idx] = original - eps
            minus = float(np.sum(layer.forward(x) * upstream))
            x[idx] = original
            expected[idx] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(analytic, expected, rtol=1e-4, atol=1e-6)

    def test_weight_gradient_check(self, rng):
        layer = Conv2D(1, 1, kernel_size=2, rng=rng)
        x = rng.normal(size=(2, 1, 3, 3))
        upstream = rng.normal(size=(2, 1, 2, 2))
        layer.forward(x)
        layer.backward(upstream)
        analytic = layer.gradients()["weight"]

        expected = np.zeros_like(layer.weight)
        eps = 1e-6
        for idx in np.ndindex(layer.weight.shape):
            original = layer.weight[idx]
            layer.weight[idx] = original + eps
            plus = float(np.sum(layer.forward(x) * upstream))
            layer.weight[idx] = original - eps
            minus = float(np.sum(layer.forward(x) * upstream))
            layer.weight[idx] = original
            expected[idx] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(analytic, expected, rtol=1e-4, atol=1e-6)

    def test_conv_workload_counts(self):
        layer = Conv2D(3, 16, kernel_size=3, padding=1)
        workload = layer.workload((3, 32, 32))
        assert workload.kind == "conv"
        assert workload.dot_product_length == 27
        assert workload.n_dot_products == 16 * 32 * 32


class TestPooling:
    def test_maxpool_selects_maximum(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2D(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_avgpool_averages(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = AvgPool2D(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_maxpool_backward_routes_gradient_to_argmax(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        pool = MaxPool2D(2)
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        assert grad.sum() == pytest.approx(4.0)
        assert grad[0, 0, 1, 1] == pytest.approx(1.0)  # position of 5
        assert grad[0, 0, 0, 0] == pytest.approx(0.0)

    def test_avgpool_backward_distributes_gradient(self):
        pool = AvgPool2D(2)
        x = np.ones((1, 1, 4, 4))
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        np.testing.assert_allclose(grad, 0.25)


class TestActivationsAndRegularizers:
    @pytest.mark.parametrize("layer_cls", [ReLU, Sigmoid, Tanh])
    def test_activation_gradient_check(self, layer_cls, rng):
        layer = layer_cls()
        x = rng.normal(size=(3, 5))
        upstream = rng.normal(size=(3, 5))
        layer.forward(x)
        analytic = layer.backward(upstream)
        expected = np.zeros_like(x)
        eps = 1e-6
        for idx in np.ndindex(x.shape):
            original = x[idx]
            x[idx] = original + eps
            plus = float(np.sum(layer.forward(x) * upstream))
            x[idx] = original - eps
            minus = float(np.sum(layer.forward(x) * upstream))
            x[idx] = original
            expected[idx] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(analytic, expected, rtol=1e-4, atol=1e-5)

    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 4))
        out = layer.forward(x)
        assert out.shape == (2, 48)
        back = layer.backward(out)
        np.testing.assert_allclose(back, x)

    def test_dropout_inference_is_identity(self, rng):
        layer = Dropout(0.5)
        layer.eval()
        x = rng.normal(size=(4, 6))
        np.testing.assert_allclose(layer.forward(x), x)

    def test_dropout_training_preserves_expectation(self, rng):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((200, 200))
        out = layer.forward(x)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_dropout_rejects_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_batchnorm_normalizes_training_batch(self, rng):
        layer = BatchNorm(6)
        x = rng.normal(loc=3.0, scale=2.0, size=(64, 6))
        out = layer.forward(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_batchnorm_conv_layout(self, rng):
        layer = BatchNorm(3)
        x = rng.normal(size=(8, 3, 5, 5))
        out = layer.forward(x)
        assert out.shape == x.shape
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)

    def test_batchnorm_eval_uses_running_stats(self, rng):
        layer = BatchNorm(4, momentum=0.5)
        for _ in range(10):
            layer.forward(rng.normal(loc=1.0, size=(32, 4)))
        layer.eval()
        out = layer.forward(np.ones((2, 4)))
        assert np.all(np.isfinite(out))


def _every_kind_model() -> Sequential:
    rng = np.random.default_rng(11)
    return Sequential(
        [
            Conv2D(2, 4, kernel_size=3, padding=1, rng=rng),
            BatchNorm(4),
            ReLU(),
            MaxPool2D(2),
            Conv2D(4, 4, kernel_size=3, rng=rng),
            Tanh(),
            AvgPool2D(2),
            Flatten(),
            Dense(4, 6, rng=rng),
            Sigmoid(),
            Dense(6, 3, rng=rng),
        ],
        (2, 8, 8),
        name="every-kind",
    )


def _backward_state(layer):
    return getattr(layer, "_cache", None), getattr(layer, "_last_input", None)


class TestBackwardCaches:
    def test_eval_forward_keeps_no_backward_cache(self):
        model = _every_kind_model()
        x = np.random.default_rng(5).normal(size=(5, 2, 8, 8))
        model.eval()
        model.forward(x)
        assert all(_backward_state(layer) == (None, None) for layer in model.layers)
        # A training forward caches; a later eval forward drops the cache.
        model.train()
        model.forward(x)
        assert any(_backward_state(layer) != (None, None) for layer in model.layers)
        model.eval()
        model.forward(x)
        assert all(_backward_state(layer) == (None, None) for layer in model.layers)
        with pytest.raises(RuntimeError, match="before forward"):
            model.layers[0].backward(np.ones((5, 4, 8, 8)))

    def test_training_forward_backward_bytes_pinned(self):
        # Digest of the logits, the input gradient and every parameter
        # gradient of one training step, recorded before backward caches
        # became training-only.
        model = _every_kind_model()
        x = np.random.default_rng(5).normal(size=(5, 2, 8, 8))
        grad = np.random.default_rng(6).normal(size=(5, 3))
        digest = hashlib.sha256(model.forward(x).tobytes())
        digest.update(model.backward(grad).tobytes())
        for layer in model.layers:
            for value in layer.gradients().values():
                digest.update(value.tobytes())
        assert digest.hexdigest() == (
            "d3e484d076ee728689f559bbad8e20b249a132c52d42da4c16635884ac46c48d"
        )
