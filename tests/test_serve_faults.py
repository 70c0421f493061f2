"""Tests of fault injection, retry, and graceful degradation.

Covers the robustness contract of :mod:`repro.serve.faults`:

* a zero-rate :class:`FaultInjector` is a provable no-op: the report --
  event trace included -- is byte-identical to a run with no injector
  (hypothesis-driven across seeds, rates, and fleet sizes);
* the same seed reproduces the same fault schedule, and each worker's
  schedule is independent of the fleet size;
* the extended conservation invariant ``arrivals == completed + shed +
  failed + queued + in_flight`` holds across crash-heavy regimes, with and
  without shedding, drained and cut off (``finalize`` raises otherwise);
* a crash mid-batch loses the batch, retries its requests in FIFO order
  on the survivors, and terminally fails them once attempts are exhausted;
* thermal throttling prices dispatches at the derate; downtime intervals
  clamp to the horizon; drains are permanent against stale repairs;
* :class:`TraceEvent` entries stay backward-readable as plain tuples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.accelerator import CrossLightAccelerator
from repro.nn.zoo import build_model
from repro.serve import (
    BatchPolicy,
    EventQueue,
    FaultInjector,
    FaultModel,
    PoissonTraffic,
    RetryPolicy,
    TraceEvent,
    TraceTraffic,
    requests_from_traffic,
    serve_trace,
)
from repro.serve.workers import AcceleratorWorker
from repro.sim.tracer import trace_model
from repro.study import run_experiment


@pytest.fixture(scope="module")
def lenet():
    return build_model(1)


@pytest.fixture(scope="module")
def crosslight():
    return CrossLightAccelerator.from_variant("cross_opt_ted")


@pytest.fixture(scope="module")
def lenet_workloads(lenet):
    return trace_model(lenet)


@pytest.fixture(scope="module")
def batch8_latency_s(crosslight, lenet_workloads):
    return crosslight.batch_latency_s(lenet_workloads, 8)


def _drain_demo_traffic(n: int = 8, duration_s: float | None = None):
    """``n`` simultaneous arrivals at t=0 (one full batch)."""
    return TraceTraffic([0.0] * n, duration_s=duration_s)


# --------------------------------------------------------------------------- #
# Zero-fault no-op property
# --------------------------------------------------------------------------- #
class TestZeroFaultNoOp:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate_rps=st.sampled_from([40_000.0, 120_000.0]),
        n_workers=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=10, deadline=None)
    def test_disabled_injector_is_byte_identical(
        self, lenet, crosslight, seed, rate_rps, n_workers
    ):
        traffic = PoissonTraffic(rate_rps=rate_rps, duration_s=0.004)
        policy = BatchPolicy(max_batch_size=8, max_wait_s=100e-6, max_queue_depth=64)
        plain = serve_trace(
            lenet, crosslight, traffic, policy, n_workers=n_workers, seed=seed
        )
        injected = serve_trace(
            lenet, crosslight, traffic, policy, n_workers=n_workers, seed=seed,
            faults=FaultModel(), retry=RetryPolicy(),
        )
        assert injected == plain
        assert injected.event_trace == plain.event_trace
        assert injected.faults == "none"
        assert injected.summary() == plain.summary()

    def test_disabled_model_describes_none_and_schedules_nothing(self):
        injector = FaultInjector(FaultModel(), seed=5)
        assert not injector.enabled
        assert injector.describe() == "none"
        queue = EventQueue()
        assert injector.schedule(queue, n_workers=4, duration_s=1.0) == 0
        assert len(queue) == 0


# --------------------------------------------------------------------------- #
# Injector determinism and stream independence
# --------------------------------------------------------------------------- #
class TestFaultInjector:
    MODEL = FaultModel(
        crash_mtbf_s=0.3, repair_mttr_s=0.05,
        throttle_mtbf_s=0.4, throttle_duration_s=0.1, throttle_derate=2.0,
    )

    @staticmethod
    def _schedule(seed: int, n_workers: int):
        queue = EventQueue()
        FaultInjector(TestFaultInjector.MODEL, seed=seed).schedule(
            queue, n_workers=n_workers, duration_s=1.0
        )
        return [(t, priority, payload) for t, priority, _, payload in queue.drain()]

    def test_same_seed_same_schedule(self):
        assert self._schedule(3, 2) == self._schedule(3, 2)

    def test_different_seed_different_schedule(self):
        assert self._schedule(3, 2) != self._schedule(4, 2)

    def test_worker_streams_independent_of_fleet_size(self):
        # Adding a worker must not perturb the existing workers' schedules.
        def per_worker(events):
            by_worker: dict[int, list] = {}
            for time_s, _, payload in events:
                by_worker.setdefault(payload.worker_id, []).append((time_s, payload))
            return by_worker

        small = per_worker(self._schedule(0, 2))
        large = per_worker(self._schedule(0, 3))
        assert small[0] == large[0]
        assert small[1] == large[1]

    def test_fault_run_is_seed_deterministic(self, lenet, crosslight):
        traffic = PoissonTraffic(rate_rps=100_000.0, duration_s=0.005)
        policy = BatchPolicy(max_batch_size=8, max_wait_s=100e-6)
        model = FaultModel(crash_mtbf_s=0.002, repair_mttr_s=0.0005)
        runs = [
            serve_trace(
                lenet, crosslight, traffic, policy, n_workers=2, seed=11, faults=model
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].event_trace == runs[1].event_trace
        assert runs[0].n_lost_batches >= 0

    def test_drain_names_worker_beyond_fleet(self):
        injector = FaultInjector(FaultModel(drain_at_s=((5, 0.1),)))
        with pytest.raises(ValueError, match="fleet has 2 workers"):
            injector.schedule(EventQueue(), n_workers=2, duration_s=1.0)


# --------------------------------------------------------------------------- #
# Conservation under crash-heavy regimes
# --------------------------------------------------------------------------- #
class TestConservation:
    @pytest.mark.parametrize("max_queue_depth", [None, 16], ids=["unbounded", "shedding"])
    @pytest.mark.parametrize("drain", [True, False], ids=["drained", "cutoff"])
    @pytest.mark.parametrize("max_attempts", [1, 2, 3])
    def test_crash_heavy_regimes_conserve(
        self, lenet, crosslight, max_queue_depth, drain, max_attempts
    ):
        report = serve_trace(
            lenet,
            crosslight,
            PoissonTraffic(rate_rps=150_000.0, duration_s=0.01),
            BatchPolicy(
                max_batch_size=8, max_wait_s=100e-6, max_queue_depth=max_queue_depth
            ),
            n_workers=2,
            seed=2,
            drain=drain,
            faults=FaultModel(crash_mtbf_s=0.002, repair_mttr_s=0.001),
            retry=RetryPolicy(max_attempts=max_attempts),
        )
        # finalize() already raises on violation; assert the arithmetic too.
        assert report.conserved
        assert report.n_arrivals == (
            report.n_completed + report.n_shed + report.n_failed
            + report.n_queued_end + report.n_in_flight_end
        )
        assert report.n_lost_batches > 0  # the regime really is crash-heavy
        if max_attempts == 1:
            assert report.n_failed > 0 and report.n_retries == 0

    def test_pending_backoff_retries_count_as_queued(
        self, lenet, crosslight, batch8_latency_s
    ):
        latency = batch8_latency_s
        report = serve_trace(
            lenet,
            crosslight,
            _drain_demo_traffic(8, duration_s=latency),
            BatchPolicy(max_batch_size=8, max_wait_s=latency),
            n_workers=1,
            seed=0,
            drain=False,
            faults=FaultModel(drain_at_s=((0, 0.5 * latency),)),
            retry=RetryPolicy(max_attempts=3, backoff_s=latency),
        )
        # The batch is lost at latency/2; retries land at 1.5*latency,
        # beyond the cut-off window, so they are queued work at the end.
        assert report.n_completed == 0
        assert report.n_lost_batches == 1
        assert report.n_queued_end == 8
        assert report.n_in_flight_end == 0
        assert report.conserved


# --------------------------------------------------------------------------- #
# Crash-mid-batch semantics
# --------------------------------------------------------------------------- #
class TestCrashMidBatch:
    def _demo(self, lenet, crosslight, latency, **kwargs):
        defaults = dict(
            n_workers=2,
            seed=0,
            faults=FaultModel(drain_at_s=((0, 0.5 * latency),)),
            retry=RetryPolicy(max_attempts=3),
        )
        defaults.update(kwargs)
        return serve_trace(
            lenet,
            crosslight,
            _drain_demo_traffic(8),
            BatchPolicy(max_batch_size=8, max_wait_s=latency),
            **defaults,
        )

    def test_lost_batch_retries_complete_on_survivor(
        self, lenet, crosslight, batch8_latency_s
    ):
        report = self._demo(lenet, crosslight, batch8_latency_s)
        assert report.n_lost_batches == 1
        assert report.n_retries == 8
        assert report.n_completed == 8
        assert report.n_failed == 0
        assert report.n_retried_completions == 8
        assert report.goodput_rps == 0.0  # every completion needed a retry
        assert {record.worker_id for record in report.requests} == {1}
        kinds = [event.kind for event in report.event_trace]
        assert kinds.count("batch_lost") == 1
        assert kinds.count("retry") == 8
        assert kinds.index("worker_down") < kinds.index("batch_lost")

    def test_retry_preserves_fifo_order(self, lenet, crosslight, batch8_latency_s):
        report = self._demo(lenet, crosslight, batch8_latency_s)
        # The re-formed batch on the survivor holds the original order.
        surviving = [batch for batch in report.batches if batch.worker_id == 1]
        assert len(surviving) == 1
        assert [r.request_id for r in surviving[0].requests] == list(range(8))

    def test_exhausted_attempts_terminally_fail(
        self, lenet, crosslight, batch8_latency_s
    ):
        report = self._demo(
            lenet, crosslight, batch8_latency_s, retry=RetryPolicy(max_attempts=1)
        )
        assert report.n_completed == 0
        assert report.n_retries == 0
        assert report.n_failed == 8
        assert report.failed_rate == 1.0
        assert report.conserved
        for failure in report.failures:
            assert failure.attempts == 1
            assert failure.failed_s == pytest.approx(0.5 * batch8_latency_s)
        assert [e.kind for e in report.event_trace].count("failed") == 8

    def test_lost_batch_wastes_partial_busy_time(
        self, lenet, crosslight, batch8_latency_s
    ):
        report = self._demo(lenet, crosslight, batch8_latency_s)
        elapsed = 0.5 * batch8_latency_s
        assert report.wasted_busy_s == pytest.approx(elapsed)
        assert report.wasted_energy_j == pytest.approx(
            elapsed * report.worker_power_w[0]
        )
        # Worker 0 accrued exactly the doomed half-batch of busy time.
        assert report.worker_busy_s[0] == pytest.approx(elapsed)

    def test_crash_summary_mentions_faults(self, lenet, crosslight, batch8_latency_s):
        report = self._demo(lenet, crosslight, batch8_latency_s)
        assert "drain(1 workers)" in report.faults
        assert "retries" in report.summary()


# --------------------------------------------------------------------------- #
# Throttling, downtime, and the worker state machine
# --------------------------------------------------------------------------- #
class TestDegradedWorkers:
    def test_throttle_derate_prices_dispatches(
        self, lenet, crosslight, lenet_workloads
    ):
        nominal = crosslight.batch_latency_s(lenet_workloads, 4)
        report = serve_trace(
            lenet,
            crosslight,
            TraceTraffic([1e-6] * 4),
            BatchPolicy(max_batch_size=4, max_wait_s=1e-3),
            n_workers=1,
            seed=0,
            # Onset ~exp(1ns) precedes the 1us arrivals; the episode
            # (~1s) outlives the run, so the only batch is throttled.
            faults=FaultModel(
                throttle_mtbf_s=1e-9, throttle_duration_s=1.0, throttle_derate=3.0
            ),
        )
        assert report.n_completed == 4
        assert len(report.batches) == 1
        assert report.batches[0].latency_s == pytest.approx(3.0 * nominal)
        kinds = [event.kind for event in report.event_trace]
        assert "throttle_start" in kinds

    def test_drained_worker_downtime_and_availability(
        self, lenet, crosslight, batch8_latency_s
    ):
        latency = batch8_latency_s
        report = serve_trace(
            lenet,
            crosslight,
            _drain_demo_traffic(8),
            BatchPolicy(max_batch_size=8, max_wait_s=latency),
            n_workers=2,
            seed=0,
            faults=FaultModel(drain_at_s=((0, 0.5 * latency),)),
            retry=RetryPolicy(max_attempts=3),
        )
        # Horizon = survivor's completion at 1.5*latency; worker 0 is down
        # from 0.5*latency to the horizon.
        assert report.horizon_s == pytest.approx(1.5 * latency)
        assert report.worker_downtime_s[0] == pytest.approx(latency)
        assert report.worker_downtime_s[1] == 0.0
        assert report.worker_availability[0] == pytest.approx(1 / 3)
        assert report.worker_availability[1] == 1.0
        assert report.availability == pytest.approx(2 / 3)

    def test_state_machine_transitions(self):
        worker = AcceleratorWorker(0, CrossLightAccelerator.from_variant("cross_opt_ted"))
        assert worker.state == "up" and worker.available
        assert worker.throttle(2.0, episode=0)
        assert worker.state == "throttled" and worker.derate == 2.0
        assert worker.available and worker.idle(0.0)
        worker.mark_down(1.0)
        assert worker.state == "down" and worker.derate == 1.0
        assert not worker.available and not worker.idle(5.0)
        with pytest.raises(RuntimeError, match="already down"):
            worker.mark_down(2.0)
        assert worker.mark_up(3.0)
        assert worker.state == "up"
        assert worker.downtime_s(10.0) == pytest.approx(2.0)

    def test_stale_throttle_end_is_noop(self):
        worker = AcceleratorWorker(0, CrossLightAccelerator.from_variant("cross_opt_ted"))
        assert worker.throttle(2.0, episode=0)
        worker.mark_down(1.0)  # crash clears the episode
        assert not worker.unthrottle(episode=0)
        assert worker.mark_up(2.0)
        assert worker.state == "up" and worker.derate == 1.0

    def test_drain_is_permanent_against_stale_repair(self):
        worker = AcceleratorWorker(0, CrossLightAccelerator.from_variant("cross_opt_ted"))
        worker.mark_down(1.0, drained=True)
        assert not worker.mark_up(2.0)
        assert worker.state == "down" and worker.drained
        assert worker.downtime_s(5.0) == pytest.approx(4.0)

    def test_downtime_clamps_to_horizon(self):
        worker = AcceleratorWorker(0, CrossLightAccelerator.from_variant("cross_opt_ted"))
        worker.mark_down(1.0)
        worker.mark_up(8.0)
        assert worker.downtime_s(4.0) == pytest.approx(3.0)
        assert worker.downtime_s(10.0) == pytest.approx(7.0)


# --------------------------------------------------------------------------- #
# Trace events, validation, and window-edge rejection
# --------------------------------------------------------------------------- #
class TestContracts:
    def test_trace_event_reads_as_plain_tuple(self):
        event = TraceEvent(1.5, "dispatch", 3, 0, 8, "lenet5")
        assert event == (1.5, "dispatch", 3, 0, 8, "lenet5")
        assert hash(event) == hash((1.5, "dispatch", 3, 0, 8, "lenet5"))
        assert tuple(event) == event
        assert event.time_s == 1.5
        assert event.kind == "dispatch"
        assert event.ids == (3, 0, 8, "lenet5")

    def test_trace_event_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown trace-event kind"):
            TraceEvent(0.0, "exploded", 1)

    def test_event_trace_entries_are_tuples(self, lenet, crosslight):
        report = serve_trace(
            lenet,
            crosslight,
            PoissonTraffic(rate_rps=50_000.0, duration_s=0.002),
            BatchPolicy(max_batch_size=8, max_wait_s=100e-6),
            seed=0,
        )
        assert all(isinstance(event, tuple) for event in report.event_trace)
        assert list(report.event_trace) == [tuple(e) for e in report.event_trace]

    def test_requests_from_traffic_rejects_window_edge(self):
        class EdgeTraffic(PoissonTraffic):
            def arrival_times(self, rng):
                return np.asarray([0.0, self.duration_s])

        with pytest.raises(ValueError, match="at or beyond its"):
            requests_from_traffic(
                EdgeTraffic(rate_rps=1.0, duration_s=0.5), "lenet5", seed=0
            )

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        assert "max_attempts=2" in RetryPolicy(max_attempts=2).describe()

    def test_fault_model_validation(self):
        with pytest.raises(ValueError):
            FaultModel(crash_mtbf_s=-1.0)
        with pytest.raises(ValueError, match="throttle_derate"):
            FaultModel(throttle_mtbf_s=1.0, throttle_derate=0.5)
        with pytest.raises(ValueError):
            FaultModel(drain_at_s=((-1, 0.5),))
        assert FaultModel(crash_mtbf_s=1.0).enabled
        assert "crash(mtbf=1s" in FaultModel(crash_mtbf_s=1.0).describe()

    def test_injector_rejects_bad_inputs(self):
        with pytest.raises(TypeError):
            FaultInjector("not a model")
        with pytest.raises(TypeError):
            FaultInjector(FaultModel(), seed=1.5)


# --------------------------------------------------------------------------- #
# The serving_faults experiment
# --------------------------------------------------------------------------- #
class TestServingFaultsStudy:
    @pytest.fixture(scope="class")
    def reduced(self):
        return run_experiment(
            "serving_faults",
            n_requests=200,
            mtbf_fractions=(0.25,),
            mttr_fractions=(0.1,),
            derates=(2.0,),
            headroom_extra=1,
        )

    def test_baseline_is_fault_free(self, reduced):
        baseline = reduced.result.baseline
        assert baseline.availability == 1.0
        assert baseline.n_retries == 0 and baseline.n_failed == 0
        assert baseline.goodput_rps == baseline.throughput_rps

    def test_crash_regime_degrades(self, reduced):
        point = reduced.result.crash_sweep[0]
        assert point.availability < 1.0
        assert point.goodput_rps <= point.throughput_rps
        assert point.n_lost_batches > 0

    def test_demo_shows_retry_and_failure_paths(self, reduced):
        retry_demo, fail_demo = reduced.result.demos
        assert retry_demo.n_retries == retry_demo.n_completed == 8
        assert retry_demo.n_failed == 0
        assert fail_demo.n_failed == 8 and fail_demo.n_completed == 0
        text = reduced.to_text()
        assert "Crash-mid-batch demo" in text
        assert "8 retries" in text and "8 failed" in text
