"""Tests for losses, optimizers, model training, datasets, and the model zoo."""

from __future__ import annotations

import copy
import hashlib
import pickle

import numpy as np
import pytest

from repro.nn import (
    Adam,
    ContrastiveLoss,
    Dense,
    MODEL_SPECS,
    MeanSquaredError,
    ReLU,
    SGD,
    Sequential,
    SiameseModel,
    SoftmaxCrossEntropy,
    accuracy,
    build_model,
    cifar10_synthetic,
    dataset_for_model,
    make_classification_dataset,
    model_spec,
    omniglot_synthetic_pairs,
    pair_accuracy,
    sign_mnist_synthetic,
    stl10_synthetic,
)
from repro.nn.datasets import SIGN_MNIST_SPEC, STL10_SPEC
from repro.nn.layers import Conv2D
from repro.sim import simulate_model


class TestLosses:
    def test_cross_entropy_perfect_prediction_is_small(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        loss, grad = SoftmaxCrossEntropy()(logits, np.array([0, 1]))
        assert loss < 1e-4
        assert grad.shape == logits.shape

    def test_cross_entropy_gradient_direction(self):
        logits = np.zeros((1, 3))
        _, grad = SoftmaxCrossEntropy()(logits, np.array([1]))
        # Gradient pushes the true-class logit up (negative gradient).
        assert grad[0, 1] < 0
        assert grad[0, 0] > 0 and grad[0, 2] > 0

    def test_cross_entropy_gradient_check(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([0, 2, 1])
        loss_fn = SoftmaxCrossEntropy()
        _, analytic = loss_fn(logits, labels)
        eps = 1e-6
        numeric = np.zeros_like(logits)
        for idx in np.ndindex(logits.shape):
            logits[idx] += eps
            plus, _ = loss_fn(logits, labels)
            logits[idx] -= 2 * eps
            minus, _ = loss_fn(logits, labels)
            logits[idx] += eps
            numeric[idx] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_mse_zero_for_exact_match(self, rng):
        values = rng.normal(size=(4, 2))
        loss, grad = MeanSquaredError()(values, values.copy())
        assert loss == pytest.approx(0.0)
        np.testing.assert_allclose(grad, 0.0)

    def test_contrastive_loss_behaviour(self):
        loss_fn = ContrastiveLoss(margin=1.0)
        # Same pair at zero distance: no loss; different pair at zero: max loss.
        same_loss, _ = loss_fn(np.array([0.0]), np.array([1]))
        diff_loss, _ = loss_fn(np.array([0.0]), np.array([0]))
        assert same_loss == pytest.approx(0.0)
        assert diff_loss == pytest.approx(1.0)
        # Different pair beyond the margin: no loss.
        far_loss, _ = loss_fn(np.array([2.0]), np.array([0]))
        assert far_loss == pytest.approx(0.0)

    def test_accuracy_helpers(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)
        distances = np.array([0.1, 0.9])
        assert pair_accuracy(distances, np.array([1, 0]), threshold=0.5) == 1.0


class TestOptimizers:
    def _quadratic_layer(self):
        layer = Dense(1, 1, use_bias=False, rng=np.random.default_rng(0))
        layer.weight[...] = np.array([[5.0]])
        return layer

    def test_sgd_converges_on_quadratic(self):
        layer = self._quadratic_layer()
        optimizer = SGD(learning_rate=0.1)
        for _ in range(100):
            layer._grad_weight = 2 * layer.weight  # d/dw of w^2
            optimizer.step([layer])
        assert abs(layer.weight[0, 0]) < 1e-3

    def test_sgd_momentum_converges_faster(self):
        plain_layer = self._quadratic_layer()
        momentum_layer = self._quadratic_layer()
        plain = SGD(learning_rate=0.02)
        momentum = SGD(learning_rate=0.02, momentum=0.9)
        for _ in range(50):
            plain_layer._grad_weight = 2 * plain_layer.weight
            plain.step([plain_layer])
            momentum_layer._grad_weight = 2 * momentum_layer.weight
            momentum.step([momentum_layer])
        assert abs(momentum_layer.weight[0, 0]) < abs(plain_layer.weight[0, 0])

    def test_adam_converges_on_quadratic(self):
        layer = self._quadratic_layer()
        optimizer = Adam(learning_rate=0.3)
        for _ in range(200):
            layer._grad_weight = 2 * layer.weight
            optimizer.step([layer])
        assert abs(layer.weight[0, 0]) < 1e-2

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=-0.1)
        with pytest.raises(ValueError):
            SGD(momentum=1.5)
        with pytest.raises(ValueError):
            Adam(beta1=1.0)


class TestSequentialTraining:
    def test_small_mlp_learns_separable_data(self, rng):
        # Two well-separated Gaussian blobs in 2-D.
        n = 200
        x = np.concatenate([rng.normal(-2, 0.5, (n, 2)), rng.normal(2, 0.5, (n, 2))])
        y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
        model = Sequential(
            [Dense(2, 16, rng=rng), ReLU(), Dense(16, 2, rng=rng)], input_shape=(2,)
        )
        history = model.fit(x, y, epochs=10, batch_size=32, seed=0)
        assert history.final_accuracy > 0.95
        assert history.losses[-1] < history.losses[0]

    def test_predict_batching_consistent(self, rng):
        model = Sequential([Dense(4, 3, rng=rng)], input_shape=(4,))
        x = rng.normal(size=(37, 4))
        np.testing.assert_allclose(model.predict(x, batch_size=8), model.predict(x, batch_size=64))

    def test_model_summary_and_counts(self):
        model = build_model(1, compact=True)
        summary = model.summary()
        assert "Total parameters" in summary
        assert model.count_layers("conv") == 2
        assert model.count_layers("fc") == 2

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            Sequential([], input_shape=(2,))


class TestDatasets:
    def test_shapes_and_ranges(self):
        train_x, train_y, test_x, test_y = sign_mnist_synthetic(n_train=50, n_test=20)
        assert train_x.shape == (50, 1, 16, 16)
        assert test_x.shape == (20, 1, 16, 16)
        assert train_x.min() >= 0.0 and train_x.max() <= 1.0
        assert set(np.unique(train_y)).issubset(set(range(10)))

    def test_determinism_given_seed(self):
        a = cifar10_synthetic(n_train=30, n_test=10)
        b = cifar10_synthetic(n_train=30, n_test=10)
        np.testing.assert_allclose(a[0], b[0])
        np.testing.assert_allclose(a[1], b[1])

    def test_harder_dataset_has_more_noise(self):
        easy = make_classification_dataset(SIGN_MNIST_SPEC, 50, 10, noise=0.05, seed=0)
        hard = make_classification_dataset(STL10_SPEC, 50, 10, noise=0.4, seed=0)
        assert easy[0].shape[1:] == SIGN_MNIST_SPEC.image_shape
        assert hard[0].shape[1:] == STL10_SPEC.image_shape

    def test_omniglot_pairs_balanced(self):
        _, _, labels, _, _, _ = omniglot_synthetic_pairs(n_train_pairs=400, n_test_pairs=10)
        assert 0.35 < labels.mean() < 0.65

    def test_dataset_for_model_dispatch(self):
        assert len(dataset_for_model(1, 20, 10)) == 4
        assert len(dataset_for_model(4, 20, 10)) == 6
        with pytest.raises(ValueError):
            dataset_for_model(5)

    def test_stl10_shape(self):
        train_x, *_ = stl10_synthetic(n_train=10, n_test=5)
        assert train_x.shape == (10, 3, 24, 24)


class TestModelZoo:
    def test_table1_layer_counts(self, full_models):
        for spec in MODEL_SPECS:
            model = full_models[spec.index]
            conv = model.count_layers("conv")
            fc = model.count_layers("fc")
            if isinstance(model, SiameseModel):
                conv, fc = 2 * conv, 2 * fc
            assert conv == spec.conv_layers
            assert fc == spec.fc_layers

    def test_table1_parameter_counts_within_5_percent(self, full_models):
        for spec in MODEL_SPECS:
            params = full_models[spec.index].n_parameters
            assert params == pytest.approx(spec.paper_parameters, rel=0.05)

    def test_siamese_parameters_exactly_match_paper(self, full_models):
        assert full_models[4].n_parameters == 38_951_745

    def test_compact_models_are_much_smaller(self):
        for index in (1, 2, 3):
            compact = build_model(index, compact=True)
            assert compact.n_parameters < model_spec(index).paper_parameters / 5

    def test_siamese_workloads_count_both_branches(self, full_models):
        siamese = full_models[4]
        trunk_macs = sum(w.macs for w in siamese.trunk.workloads())
        pair_macs = sum(w.macs for w in siamese.workloads())
        assert pair_macs == 2 * trunk_macs

    def test_invalid_model_index_rejected(self):
        with pytest.raises(ValueError):
            build_model(7)

    def test_forward_pass_shapes(self, rng):
        model = build_model(2, compact=True)
        x = rng.random((3, 3, 16, 16))
        assert model.forward(x).shape == (3, 10)


# sha256 over (name, dtype, shape, bytes) of every parameter array of each zoo
# model at its default seed, in layer order; recorded from eager draws.
ZOO_PARAMETER_DIGESTS = {
    (1, False): "cfaa67fbc5b842c0b5b176e5f19065530229ac8fc144963770d56ee06a751efe",
    (2, False): "a1c06fc7c84d9929ed7f4d788bce17f10c58223373b63bf8e79e19bbd49499d9",
    (3, False): "c0ac446384a72aa2709d72fa0b5e66e50ceea2323fcde0d0c67c453e2ba4de5d",
    (4, False): "9280667242f40ffcc80cf461eab587cce027f1a8be82e960e60101f09c4b029f",
    (1, True): "88fd775ecc3effd75cfe0a96446d2852e4b37b3f5af808d2b4fa93a11f0ff8b5",
    (2, True): "11b0f7fa96882c7425253d574a6d94f4b5e07f3243f1d68fb9d37d676c06ed6d",
    (3, True): "8790b5c7908fa96cae9ce4faa13be57fbe3b68454fddecf3cb30ee188fceddf4",
    (4, True): "c38444ee67197deab7e16a7fdcc7ff59078dad3272146236f17a21146f402e7f",
}


def _layers(model):
    return getattr(model, "trunk", model).layers


def _parameter_digest(model, dtype=None) -> str:
    digest = hashlib.sha256()
    for layer in _layers(model):
        for name, param in layer.parameters().items():
            if dtype is not None:
                param = param.astype(dtype)
            digest.update(name.encode())
            digest.update(str(param.dtype).encode())
            digest.update(str(param.shape).encode())
            digest.update(param.tobytes())
    return digest.hexdigest()


def _undrawn(model) -> bool:
    weighted = [layer for layer in _layers(model) if isinstance(layer, (Conv2D, Dense))]
    return bool(weighted) and not any("weight" in vars(layer) for layer in weighted)


class TestZooDeferredInit:
    @pytest.mark.parametrize("index, compact", sorted(ZOO_PARAMETER_DIGESTS))
    def test_parameters_match_pinned_digest(self, index, compact):
        model = build_model(index, compact=compact)
        assert _undrawn(model)
        assert _parameter_digest(model) == ZOO_PARAMETER_DIGESTS[index, compact]
        assert not _undrawn(model)

    def test_geometry_queries_leave_full_models_undrawn(self, best_accelerator):
        for index in (1, 2, 3, 4):
            model = build_model(index)
            model.workloads()
            model.count_layers("conv")
            assert model.n_parameters > 0
            getattr(model, "trunk", model).summary()
            simulate_model(best_accelerator, model)
            assert _undrawn(model)

    def test_geometric_parameter_count_matches_drawn_arrays(self):
        model = build_model(2)
        counted = model.n_parameters
        drawn = sum(p.size for layer in model.layers for p in layer.parameters().values())
        assert counted == drawn

    @pytest.mark.parametrize(
        "duplicate",
        [copy.deepcopy, lambda model: pickle.loads(pickle.dumps(model))],
        ids=["deepcopy", "pickle"],
    )
    def test_copies_of_undrawn_models_draw_pinned_bytes(self, duplicate):
        original = build_model(2)
        twin = duplicate(original)
        assert _undrawn(original) and _undrawn(twin)
        assert _parameter_digest(twin) == ZOO_PARAMETER_DIGESTS[2, False]
        assert _undrawn(original)
        assert _parameter_digest(original) == ZOO_PARAMETER_DIGESTS[2, False]

    def test_astype_draws_before_casting(self):
        model = build_model(1).astype("float32")
        assert not _undrawn(model)
        for layer in model.layers:
            for array in (*layer.parameters().values(), *layer.gradients().values()):
                assert array.dtype == np.float32
        assert _parameter_digest(model) == _parameter_digest(build_model(1), np.float32)

    def test_first_read_draws_the_whole_model(self):
        model = build_model(1, compact=True)
        _ = model.layers[-1].bias
        assert not any(
            "weight" not in vars(layer)
            for layer in model.layers
            if isinstance(layer, (Conv2D, Dense))
        )
        assert _parameter_digest(model) == ZOO_PARAMETER_DIGESTS[1, True]

    @pytest.mark.parametrize("rng", [None, np.random.default_rng(4)], ids=["default", "generator"])
    def test_plain_generator_layers_draw_eagerly(self, rng):
        conv = Conv2D(2, 3, kernel_size=3, rng=rng)
        dense = Dense(4, 5, rng=rng)
        for layer in (conv, dense):
            assert {"weight", "bias", "_grad_weight", "_grad_bias"} <= set(vars(layer))
        assert not np.any(conv._grad_weight) and conv._grad_weight.shape == conv.weight.shape
