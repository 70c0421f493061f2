"""Tests for the unified parameter-sweep engine and its memoization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.sweep import SweepPoint, SweepResult, grid, memoize, run_sweep, zipped
from repro.utils.cache import CacheInfo


def _product(x, y=1):
    """Module-level evaluation function so the process-pool path can pickle it."""
    return x * y


class TestGrid:
    def test_cartesian_product_first_axis_slowest(self):
        points = grid(a=(1, 2), b=(3, 4))
        assert points == [
            {"a": 1, "b": 3},
            {"a": 1, "b": 4},
            {"a": 2, "b": 3},
            {"a": 2, "b": 4},
        ]

    def test_single_axis(self):
        assert grid(x=(1, 2, 3)) == [{"x": 1}, {"x": 2}, {"x": 3}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            grid(a=(1, 2), b=())

    def test_no_axes_rejected(self):
        with pytest.raises(ValueError):
            grid()


class TestZipped:
    def test_lockstep_combination(self):
        points = zipped(a=(1, 2), b=(3, 4))
        assert points == [{"a": 1, "b": 3}, {"a": 2, "b": 4}]

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            zipped(a=(1, 2), b=(3, 4, 5))

    def test_no_axes_rejected(self):
        with pytest.raises(ValueError):
            zipped()


class TestRunSweep:
    def test_serial_sweep_preserves_order_and_params(self):
        result = run_sweep(_product, grid(x=(1, 2), y=(10, 20)))
        assert isinstance(result, SweepResult)
        assert result.values == (10, 20, 20, 40)
        assert result.param("x") == [1, 1, 2, 2]
        assert [point.index for point in result] == [0, 1, 2, 3]

    def test_point_records_keep_params_next_to_value(self):
        result = run_sweep(_product, [{"x": 3, "y": 7}])
        point = result.points[0]
        assert isinstance(point, SweepPoint)
        assert point.params == {"x": 3, "y": 7}
        assert point.value == 21

    def test_value_array_and_param_array(self):
        result = run_sweep(_product, zipped(x=(1, 2, 3), y=(2, 2, 2)))
        np.testing.assert_array_equal(result.value_array(), [2, 4, 6])
        np.testing.assert_array_equal(result.param_array("x"), [1, 2, 3])
        np.testing.assert_array_equal(result.value_array(lambda v: v + 1), [3, 5, 7])

    def test_empty_sweep(self):
        result = run_sweep(_product, [])
        assert result.values == ()
        assert len(result) == 0

    def test_non_mapping_point_rejected(self):
        with pytest.raises(TypeError):
            run_sweep(_product, [3])

    @pytest.mark.parametrize("n_workers", [None, 0, 1])
    def test_serial_worker_counts(self, n_workers):
        result = run_sweep(_product, grid(x=(1, 2, 3)), n_workers=n_workers)
        assert result.values == (1, 2, 3)

    def test_process_pool_matches_serial(self):
        points = grid(x=(1, 2, 3, 4), y=(5,))
        serial = run_sweep(_product, points)
        parallel = run_sweep(_product, points, n_workers=2)
        assert parallel.values == serial.values

    def test_more_workers_than_points(self):
        result = run_sweep(_product, grid(x=(1, 2)), n_workers=16)
        assert result.values == (1, 2)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(_product, grid(x=(1, 2)), n_workers=-1)

    def test_non_int_workers_rejected(self):
        with pytest.raises(TypeError):
            run_sweep(_product, grid(x=(1, 2)), n_workers=2.0)

    def test_single_point_with_workers_stays_serial(self):
        # One point never justifies a pool; a lambda (unpicklable) proves the
        # engine did not ship it to a worker process.
        result = run_sweep(lambda x: x + 1, [{"x": 41}], n_workers=4)
        assert result.values == (42,)


class TestMemoize:
    def test_hits_and_misses_counted(self):
        calls = []

        @memoize(maxsize=4)
        def fn(a, b):
            calls.append((a, b))
            return a + b

        assert fn(1, 2) == 3
        assert fn(1, 2) == 3
        assert fn(2, 3) == 5
        info = fn.cache_info()
        assert isinstance(info, CacheInfo)
        assert info.hits == 1
        assert info.misses == 2
        assert info.currsize == 2
        assert calls == [(1, 2), (2, 3)]

    def test_lru_eviction(self):
        @memoize(maxsize=2)
        def fn(x):
            return x * 10

        fn(1), fn(2), fn(1)  # 1 is now most recently used
        fn(3)  # evicts 2
        assert fn.cache_info().currsize == 2
        fn(2)  # miss again
        assert fn.cache_info().misses == 4  # 1, 2, 3, 2

    def test_cache_clear(self):
        @memoize(maxsize=4)
        def fn(x):
            return x

        fn(1), fn(1)
        fn.cache_clear()
        info = fn.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_kwargs_participate_in_key(self):
        @memoize(maxsize=4)
        def fn(x, scale=1):
            return x * scale

        assert fn(2) == 2
        assert fn(2, scale=3) == 6
        assert fn.cache_info().misses == 2

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            memoize(maxsize=0)


class TestSharedSubResultCaches:
    def test_crosstalk_matrix_memoized_and_read_only(self):
        from repro.variations.thermal import ThermalCrosstalkModel

        model = ThermalCrosstalkModel()
        first = model.crosstalk_matrix(10, 5.0)
        second = model.crosstalk_matrix(10, 5.0)
        assert first is second  # cache hit returns the shared array
        assert not first.flags.writeable
        # Equal-parameter models share entries; different parameters do not.
        assert ThermalCrosstalkModel().crosstalk_matrix(10, 5.0) is first
        assert model.crosstalk_matrix(10, 6.0) is not first

    def test_ted_eigensystem_memoized(self):
        from repro.tuning.ted import ThermalEigenmodeDecomposition

        ted = ThermalEigenmodeDecomposition()
        ev1, vec1 = ted.eigenmodes(8, 5.0)
        ev2, vec2 = ted.eigenmodes(8, 5.0)
        assert ev1 is ev2 and vec1 is vec2
        assert not ev1.flags.writeable and not vec1.flags.writeable

    def test_ted_solve_matches_direct_linear_solve(self):
        from repro.tuning.ted import ThermalEigenmodeDecomposition

        ted = ThermalEigenmodeDecomposition()
        phases = np.full(10, np.pi / 2)
        result = ted.solve(phases, pitch_um=40.0)  # wide pitch: no clipping
        matrix = ted.crosstalk.crosstalk_matrix(10, 40.0)
        eta = ted.crosstalk.self_heating_phase_per_watt
        expected = np.linalg.solve(matrix, phases / eta)
        np.testing.assert_allclose(result.ted_powers_w, expected, rtol=1e-9)

    def test_ideal_accuracy_cached_across_engines(self):
        from repro.nn.datasets import sign_mnist_synthetic
        from repro.nn.zoo import build_model
        from repro.sim.noise import default_noise_stack
        from repro.sim.photonic_inference import (
            _IDEAL_ACCURACY_CACHE,
            PhotonicInferenceEngine,
            clear_ideal_accuracy_cache,
        )

        def engine(drift):
            return PhotonicInferenceEngine(default_noise_stack(16, drift), activation_bits=16)

        train_x, train_y, test_x, test_y = sign_mnist_synthetic(n_train=40, n_test=30)
        model = build_model(1, compact=True)
        clear_ideal_accuracy_cache()
        first = engine(0.0).evaluate(
            model, test_x, test_y
        )
        hits_before = _IDEAL_ACCURACY_CACHE.hits
        second = engine(0.1).evaluate(
            model, test_x, test_y
        )
        assert _IDEAL_ACCURACY_CACHE.hits == hits_before + 1
        assert second.ideal_accuracy == first.ideal_accuracy
        # Content keying: a logically-equal copy of the dataset hits the
        # same entry (sweep workers unpickle fresh objects every trial).
        other_x = test_x.copy()
        engine(0.0).evaluate(model, other_x, test_y)
        assert _IDEAL_ACCURACY_CACHE.hits == hits_before + 2
        # Retraining the cached model in place changes its weight fingerprint,
        # so the stale baseline is recomputed rather than reused.
        misses_before = _IDEAL_ACCURACY_CACHE.misses
        model.fit(train_x, train_y, epochs=1, batch_size=16, seed=1)
        engine(0.0).evaluate(model, test_x, test_y)
        assert _IDEAL_ACCURACY_CACHE.misses == misses_before + 1
        # Mutating the dataset arrays in place (same objects) also misses.
        misses_before = _IDEAL_ACCURACY_CACHE.misses
        test_y[...] = (test_y + 1) % 10
        result = engine(0.0).evaluate(
            model, test_x, test_y
        )
        assert _IDEAL_ACCURACY_CACHE.misses == misses_before + 1
        assert result.ideal_accuracy == model.evaluate(test_x, test_y)
        clear_ideal_accuracy_cache()
        assert _IDEAL_ACCURACY_CACHE.hits == 0
