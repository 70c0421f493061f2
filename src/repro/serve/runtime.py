"""The serving runtime: traffic -> queues -> micro-batches -> fleet.

:class:`ServingRuntime` is the deterministic discrete-event loop composing
the other :mod:`repro.serve` pieces: seeded traffic produces
:class:`~repro.serve.events.Request` arrivals, per-model
:class:`~repro.serve.batcher.MicroBatcher` queues form dynamic micro-batches
under a :class:`~repro.serve.batcher.BatchPolicy`, and a
:class:`~repro.serve.workers.WorkerPool` of simulated accelerators prices
every dispatch with the analytic
:meth:`~repro.arch.accelerator.PhotonicAccelerator.batch_latency_s` model
(optionally also producing functional outputs through per-worker noise
stacks).  The run reduces to one :class:`~repro.serve.metrics.ServingReport`.

Dispatch discipline (the usual dynamic-batching rule):

* a **full** batch dispatches as soon as a worker is idle;
* a **partial** batch dispatches only when its head request's
  ``max_wait_s`` deadline has expired (and a worker is idle);
* with every worker busy, dispatch re-arbitration happens at the next
  batch completion;
* across models, the queue whose head has waited longest goes first
  (FIFO fairness; ties break on model name, then the event order).

With a :class:`~repro.serve.faults.FaultInjector` attached, worker
lifecycle events (crash/repair, thermal throttle, permanent drain) join the
same event queue: a crash loses the in-flight batch (its requests retry
under the :class:`~repro.serve.faults.RetryPolicy` or terminally fail), a
throttled worker's dispatches are priced at its derate, and a down worker
is skipped by dispatch arbitration until repaired.

:func:`serve_trace` is the one-call entry point for the common single-model
scenario; drive :class:`ServingRuntime` directly for multi-model fleets.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.arch.accelerator import PhotonicAccelerator
from repro.nn.model import Sequential, SiameseModel
from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.clock import (
    COMPLETION_PRIORITY,
    DEADLINE_PRIORITY,
    RETRY_PRIORITY,
    EventQueue,
    SimulationClock,
)
from repro.serve.events import (
    Batch,
    CompletionEvent,
    DeadlineEvent,
    Request,
    RetryEvent,
    ThrottleEndEvent,
    ThrottleStartEvent,
    TraceEvent,
    WorkerDownEvent,
    WorkerUpEvent,
)
from repro.serve.faults import FaultInjector, FaultModel, RetryPolicy
from repro.serve.metrics import MetricsCollector, ServingReport
from repro.serve.traffic import TrafficProcess
from repro.serve.workers import AcceleratorWorker, WorkerPool
from repro.sim.noise import NoiseStack
from repro.sim.photonic_inference import PhotonicInferenceEngine
from repro.sim.tracer import trace_model
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs uses clock)
    from repro.obs import Observability


def requests_from_traffic(
    traffic: TrafficProcess,
    model: str,
    seed: int = 0,
    *,
    start_id: int = 0,
    n_inputs: int | None = None,
) -> list[Request]:
    """Materialise a traffic process into :class:`Request` records.

    ``n_inputs`` attaches a dataset index to each request (round-robin over
    the dataset) so workers with inference engines can compute functional
    outputs.

    Window-edge rejection happens here, at materialisation: an arrival at
    or beyond ``traffic.duration_s`` is a contract violation of the traffic
    process itself, so it raises immediately with the process named, rather
    than surfacing later as an obscure event-loop error.
    """
    times = np.asarray(traffic.arrival_times(np.random.default_rng(seed)), dtype=float)
    late = np.flatnonzero(times >= traffic.duration_s)
    if late.size:
        raise ValueError(
            f"traffic process {traffic.describe()} produced an arrival "
            f"at {float(times[late[0]])}s, at or beyond its {traffic.duration_s}s window"
        )
    return [
        Request(
            request_id=request_id,
            model=model,
            arrival_s=time,
            input_index=None if n_inputs is None else request_id % n_inputs,
        )
        for request_id, time in enumerate(times.tolist(), start_id)
    ]


class ServingRuntime:
    """Deterministic discrete-event serving loop over a simulated fleet.

    Parameters
    ----------
    workloads:
        Per-model layer workloads (``name -> trace_model(model)``); every
        model named by a request must appear here.
    accelerator:
        The analytic accelerator model every fleet worker wraps.
    policy:
        Micro-batching policy shared by all per-model queues.
    n_workers:
        Fleet size.
    functional:
        Optional ``name -> (model object, input array)`` mapping; when a
        model appears here, every dispatched batch of it also runs the
        actual inputs through the dispatching worker's inference engine
        and the report carries per-request predicted classes.
    engines:
        Per-worker inference engines (length ``n_workers``); required only
        when ``functional`` models are served.  Seeding each worker's
        engine differently models per-device noise diversity across the
        fleet.
    faults:
        Optional fault injection: a :class:`~repro.serve.faults.FaultInjector`
        (or a bare :class:`~repro.serve.faults.FaultModel`, wrapped with the
        injector's default seed).  A disabled model is a provable no-op --
        the report, event trace included, matches a run with no injector.
    retry:
        Policy for requests whose batch a crash destroyed (default:
        :class:`~repro.serve.faults.RetryPolicy` defaults).  Only consulted
        when faults are active.
    obs:
        Optional :class:`~repro.obs.Observability` bundle.  Whatever subset
        of its pillars is enabled, instrumentation is strictly read-only:
        metrics count what the loop did, the tracer maps the run onto a
        Perfetto timeline (simulated seconds = trace microseconds; one
        "thread" per worker), and the profiler measures the wall-clock
        handler costs.  Byte-identity of the report and event trace with
        an un-observed run is asserted by tests.
    """

    def __init__(
        self,
        workloads: Mapping[str, list],
        accelerator: PhotonicAccelerator,
        policy: BatchPolicy,
        *,
        n_workers: int = 1,
        functional: Mapping[str, tuple[Sequential, np.ndarray]] | None = None,
        engines: list[PhotonicInferenceEngine] | None = None,
        faults: FaultInjector | FaultModel | None = None,
        retry: RetryPolicy | None = None,
        obs: "Observability | None" = None,
    ) -> None:
        check_positive_int("n_workers", n_workers)
        if not workloads:
            raise ValueError("at least one model's workloads are required")
        self.accelerator = accelerator
        self.policy = policy
        if isinstance(faults, FaultModel):
            faults = FaultInjector(faults)
        if faults is not None and not isinstance(faults, FaultInjector):
            raise TypeError(
                f"faults must be a FaultInjector or FaultModel, got "
                f"{type(faults).__name__}"
            )
        self.injector = faults
        self.retry = retry if retry is not None else RetryPolicy()
        self.functional = dict(functional) if functional else {}
        if engines is not None and len(engines) != n_workers:
            raise ValueError(
                f"got {len(engines)} engines for {n_workers} workers"
            )
        if self.functional and engines is None:
            raise ValueError("functional serving requires per-worker engines")
        unknown = set(self.functional) - set(workloads)
        if unknown:
            raise ValueError(f"functional models not in workloads: {sorted(unknown)}")
        self.pool = WorkerPool(
            [
                AcceleratorWorker(
                    worker_id,
                    accelerator,
                    engine=None if engines is None else engines[worker_id],
                )
                for worker_id in range(n_workers)
            ],
            workloads,
        )
        # Ordered model list makes cross-queue tie-breaking deterministic.
        self._batchers = {
            name: MicroBatcher(name, policy) for name in workloads
        }
        self._ran = False
        self.obs = obs

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        requests: list[Request],
        duration_s: float,
        *,
        drain: bool = True,
        traffic_description: str = "trace",
    ) -> ServingReport:
        """Serve ``requests`` and reduce the run to a :class:`ServingReport`.

        ``drain=True`` keeps serving after the traffic window until every
        admitted request completes (the report horizon extends to the last
        completion); ``drain=False`` cuts the run at ``duration_s``,
        leaving late work counted as queued/in-flight backlog -- the
        saturation-detection mode.

        Arrivals never enter the event queue.  They are read from a
        stably time-sorted stream and merged with the queue: at equal
        times every queued event (completion, fault, retry, deadline) runs
        before an arrival, and arrivals keep their ``requests`` order.
        """
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        if self._ran:
            # Workers and engines carry consumed state (busy time, RNG
            # streams); a fresh runtime keeps every run reproducible.
            raise RuntimeError("a ServingRuntime instance runs once; build a fresh one")
        self._ran = True
        clock = SimulationClock()
        profiler = self.obs.profiler if self.obs is not None else None
        queue = profiler.instrument_queue() if profiler is not None else EventQueue()
        metrics = MetricsCollector()
        trace: list[TraceEvent] = []
        outputs: dict[int, int] = {}
        self._next_batch_id = 0
        self._last_completion_s = 0.0
        # Fault bookkeeping (touched only when an enabled injector is
        # attached, so the fault-free hot loop stays unchanged).
        self._faults_active = self.injector is not None and self.injector.enabled
        self._in_flight: dict[int, Batch] = {}
        self._lost_batches: set[int] = set()
        self._attempts: dict[int, int] = {}
        self._retried: set[int] = set()
        self._bind_obs(traffic_description)

        for request in requests:
            if request.model not in self._batchers:
                raise KeyError(f"no workloads registered for model {request.model!r}")
        arrivals = sorted(requests, key=attrgetter("arrival_s"))
        n_arrivals = len(arrivals)
        next_arrival = 0
        if self._faults_active:
            self.injector.schedule(queue, len(self.pool), duration_s)

        events_processed = 0
        if profiler is not None:
            profiler.start()
        wall_ns0 = time.perf_counter_ns()
        while True:
            head_s = queue.peek_time_s()
            if next_arrival < n_arrivals and (
                head_s is None or arrivals[next_arrival].arrival_s < head_s
            ):
                request = arrivals[next_arrival]
                if not drain and request.arrival_s > duration_s:
                    break
                next_arrival += 1
                clock.advance_to(request.arrival_s)
                events_processed += 1
                if profiler is None:
                    self._handle_arrival(request, clock, queue, metrics, trace)
                else:
                    t0 = time.perf_counter_ns()
                    self._handle_arrival(request, clock, queue, metrics, trace)
                    profiler.record("ArrivalEvent", time.perf_counter_ns() - t0)
                continue
            if head_s is None or (not drain and head_s > duration_s):
                break
            time_s, _, _, payload = queue.pop()
            clock.advance_to(time_s)
            events_processed += 1
            if profiler is None:
                self._process_event(payload, clock, queue, metrics, trace, outputs)
            else:
                t0 = time.perf_counter_ns()
                self._process_event(payload, clock, queue, metrics, trace, outputs)
                profiler.record(type(payload).__name__, time.perf_counter_ns() - t0)
        wall_time_s = (time.perf_counter_ns() - wall_ns0) * 1e-9
        if profiler is not None:
            profiler.stop()

        pending = queue.drain()
        # A lost batch's stale CompletionEvent is not work in flight -- its
        # requests are already accounted as retried (queued) or failed.
        n_in_flight = sum(
            entry[3].batch.size
            for entry in pending
            if isinstance(entry[3], CompletionEvent)
            and entry[3].batch.batch_id not in self._lost_batches
        )
        # A retry still waiting out its backoff at the cutoff is queued
        # work: admitted, not in flight, not yet terminal.
        n_queued = sum(len(batcher) for batcher in self._batchers.values()) + sum(
            1 for entry in pending if isinstance(entry[3], RetryEvent)
        )
        # The drained horizon ends at the last *completion*, not the clock:
        # a stale deadline wake-up armed for an already-dispatched head may
        # tick the clock past the final result and must not stretch the
        # window throughput and utilisation are measured over.
        horizon_s = max(duration_s, self._last_completion_s) if drain else duration_s
        worker_power_w = self.pool.power_w_per_worker
        # Homogeneous fleets (the only kind this runtime builds) report the
        # exact per-worker power; a heterogeneous pool would fall back to
        # the fleet mean, with worker_power_w carrying the truth.
        power_w = (
            worker_power_w[0]
            if len(set(worker_power_w)) == 1
            else sum(worker_power_w) / len(worker_power_w)
        )
        report = metrics.finalize(
            accelerator=self.accelerator.name,
            models=tuple(self._batchers),
            traffic=traffic_description,
            policy=self.policy.describe(),
            n_workers=len(self.pool),
            power_w=power_w,
            duration_s=duration_s,
            horizon_s=horizon_s,
            n_queued_end=n_queued,
            n_in_flight_end=n_in_flight,
            worker_busy_s=self.pool.busy_s_per_worker,
            peak_queue_depth=max(
                batcher.peak_depth for batcher in self._batchers.values()
            ),
            event_trace=tuple(trace),
            outputs=outputs if self.functional else None,
            faults=self.injector.describe() if self._faults_active else "none",
            worker_power_w=worker_power_w,
            worker_downtime_s=self.pool.downtime_s_per_worker(horizon_s),
            events_processed=events_processed,
            wall_time_s=wall_time_s,
        )
        self._record_obs(report)
        return report

    # ------------------------------------------------------------------ #
    # Observability plumbing (read-only; every hook is attribute-guarded
    # so the disabled path costs one ``is not None`` test per site)
    # ------------------------------------------------------------------ #
    def _bind_obs(self, traffic_description: str) -> None:
        """Bind per-run instrument references (all ``None`` when disabled)."""
        obs = self.obs
        registry = obs.metrics if obs is not None else None
        self._tracer = obs.tracer if obs is not None else None
        if registry is not None:
            labels = obs.label(accelerator=self.accelerator.name)
            self._m_depth = {
                name: registry.gauge(
                    "serve.runtime.queue_depth", {**labels, "model": name},
                    help="requests waiting in the model's admission queue",
                )
                for name in self._batchers
            }
        else:
            self._m_depth = None
        if self._tracer is not None:
            self._trace_pid = self._tracer.new_process(
                f"serve {self.accelerator.name} x{len(self.pool)}: "
                f"{traffic_description}"
            )
            self._tracer.thread_name(self._trace_pid, 0, "runtime")
            for worker in self.pool.workers:
                self._tracer.thread_name(
                    self._trace_pid, worker.worker_id + 1,
                    f"worker-{worker.worker_id}",
                )
            # Open availability episodes, closed by the matching end event
            # or at the horizon.  Emitted as X spans at close time (never
            # B/E): crash-during-throttle interleavings are not properly
            # nested, which a per-thread B/E stack cannot represent.
            self._trace_throttle: dict[int, tuple[float, float]] = {}
            self._trace_down: dict[int, tuple[float, str]] = {}
            # First reserved request-span slot of each completed batch.
            self._trace_span_seqs: list[int] = []

    def _trace_queue_depth(self, now_s: float, batcher) -> None:
        self._tracer.counter(
            now_s, f"queue:{batcher.model}", self._trace_pid, 0,
            {"depth": batcher.depth},
        )

    def _record_obs(self, report: ServingReport) -> None:
        """Derive the run's metrics and the rest of its trace from ``report``.

        The loop records no per-request observation and no count: the
        counters, the latency and queue-wait histograms, and the requests'
        queue/service spans are all read off the report after the run.
        """
        requests = report.requests
        tracer = self._tracer
        if tracer is not None:
            horizon_s = report.horizon_s
            for worker_id, (start_s, derate) in sorted(self._trace_throttle.items()):
                tracer.complete(
                    start_s, max(horizon_s, start_s) - start_s,
                    f"throttle x{derate:g}", self._trace_pid, worker_id + 1,
                )
            for worker_id, (start_s, cause) in sorted(self._trace_down.items()):
                tracer.complete(
                    start_s, max(horizon_s, start_s) - start_s,
                    f"down ({cause})", self._trace_pid, worker_id + 1,
                )
            self._trace_throttle.clear()
            self._trace_down.clear()
            # Requests are logged batch by batch in completion order; request
            # j of the batch that starts at index b takes the four slots from
            # the batch's reserved seq + 4 * (j - b).
            sizes = np.fromiter(
                (batch.size for batch in report.batches), np.int64, len(report.batches)
            )
            offsets = np.asarray(self._trace_span_seqs, np.int64) - 4 * (np.cumsum(sizes) - sizes)
            tracer.request_spans(
                np.repeat(offsets, sizes) + 4 * np.arange(len(requests)),
                requests.request_id, requests.arrival_s, requests.dispatch_s,
                requests.completion_s, requests.worker_id, self._trace_pid,
            )
        obs = self.obs
        registry = obs.metrics if obs is not None else None
        if registry is None:
            return
        labels = obs.label(accelerator=self.accelerator.name)
        for name, value, description in (
            ("arrivals", report.n_arrivals, "requests offered"),
            ("shed", report.n_shed, "requests rejected by admission"),
            ("completed", report.n_completed, "requests served"),
            ("batches", len(report.batches), "batches completed"),
            ("retries", report.n_retries, "crash-lost requests requeued"),
            ("failures", report.n_failed, "requests terminally failed"),
            ("lost_batches", report.n_lost_batches, "batches lost to crashes"),
            ("events_processed", report.events_processed,
             "discrete events the loop processed"),
        ):
            registry.counter(f"serve.runtime.{name}", labels, help=description).inc(value)
        registry.histogram(
            "serve.runtime.latency_s", labels,
            help="end-to-end request latency (simulated seconds)",
        ).observe_many(report.latencies_s)
        registry.histogram(
            "serve.runtime.queue_wait_s", labels,
            help="admission-queue wait before dispatch (simulated seconds)",
        ).observe_many(requests.dispatch_s - requests.arrival_s)
        registry.gauge(
            "serve.runtime.wall_time_s", labels,
            help="wall-clock seconds the event loop took",
        ).inc(report.wall_time_s)
        registry.gauge(
            "serve.runtime.peak_queue_depth", labels,
            help="deepest any admission queue got",
        ).set(report.peak_queue_depth)

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #
    def _process_event(self, payload, clock, queue, metrics, trace, outputs) -> None:
        """Dispatch one popped queue event to its handler."""
        if isinstance(payload, DeadlineEvent):
            self._handle_deadline(payload, clock, queue, metrics, trace, outputs)
        elif isinstance(payload, CompletionEvent):
            self._handle_completion(
                payload.batch, clock, queue, metrics, trace, outputs
            )
        elif isinstance(payload, WorkerDownEvent):
            self._handle_worker_down(payload, clock, queue, metrics, trace)
        elif isinstance(payload, WorkerUpEvent):
            self._handle_worker_up(payload, clock, queue, trace)
        elif isinstance(payload, ThrottleStartEvent):
            self._handle_throttle_start(payload, clock, trace)
        elif isinstance(payload, ThrottleEndEvent):
            self._handle_throttle_end(payload, clock, trace)
        elif isinstance(payload, RetryEvent):
            self._handle_retry(payload, clock, queue, trace)
        else:  # pragma: no cover - the loop schedules only these kinds
            raise TypeError(f"unknown event payload {payload!r}")

    def _handle_arrival(self, request, clock, queue, metrics, trace) -> None:
        metrics.record_arrival(request)
        batcher = self._batchers[request.model]
        if not batcher.offer(request, clock.now_s):
            metrics.record_shed(request)
            trace.append(TraceEvent(clock.now_s, "shed", request.request_id))
            if self._tracer is not None:
                self._tracer.instant(
                    clock.now_s, "shed", self._trace_pid, 0,
                    args={"request": request.request_id, "model": request.model},
                )
            return
        trace.append(TraceEvent(clock.now_s, "arrival", request.request_id))
        if self._m_depth is not None:
            self._m_depth[request.model].set(batcher.depth)
        if self._tracer is not None:
            self._trace_queue_depth(clock.now_s, batcher)
        if batcher.head is request:
            # New queue head: arm its max-wait deadline wake-up.
            queue.push(
                batcher.head_deadline_s,
                DEADLINE_PRIORITY,
                DeadlineEvent(request.model, request.request_id),
            )
        # Every other handler leaves no dispatchable batch beside an idle
        # worker, and arrivals run last at their instant, so only this
        # batcher can have become dispatchable.
        if batcher.dispatchable(clock.now_s):
            self._dispatch_ready(clock, queue, trace)

    def _handle_deadline(self, event, clock, queue, metrics, trace, outputs) -> None:
        # Advisory wake-up: the armed head may already have dispatched in a
        # full batch, so only act when the queue really holds a due batch.
        batcher = self._batchers[event.model]
        if batcher.due(clock.now_s):
            self._dispatch_ready(clock, queue, trace)

    def _handle_completion(self, batch, clock, queue, metrics, trace, outputs) -> None:
        n_retried = 0
        if self._faults_active:
            if batch.batch_id in self._lost_batches:
                # The worker crashed mid-flight; the batch produced nothing
                # and its requests already flowed into retry/fail.
                self._lost_batches.discard(batch.batch_id)
                return
            self._in_flight.pop(batch.worker_id, None)
            if self._retried:
                n_retried = sum(
                    1
                    for request in batch.requests
                    if request.request_id in self._retried
                )
        metrics.record_batch(batch, n_retried)
        self.pool.workers[batch.worker_id].record_completion(batch.latency_s, batch.size)
        self._last_completion_s = clock.now_s
        trace.append(TraceEvent(clock.now_s, "complete", batch.batch_id))
        if self._tracer is not None:
            # The batch's true extent is only known now, so its worker-lane
            # span lands here.  Its requests' queue/service spans (four
            # events each) take the slots reserved next; _record_obs
            # fills them after the run.
            self._tracer.complete(
                batch.dispatch_s, batch.latency_s,
                f"{batch.model} x{batch.size}", self._trace_pid, batch.worker_id + 1,
                args={
                    "batch": batch.batch_id,
                    "deadline_triggered": batch.deadline_triggered,
                    "energy_j": batch.energy_j,
                },
            )
            self._trace_span_seqs.append(self._tracer.reserve(4 * batch.size))
        functional = self.functional.get(batch.model)
        if functional is not None:
            model, inputs = functional
            worker = self.pool.workers[batch.worker_id]
            indices = [request.input_index for request in batch.requests]
            if any(index is None for index in indices):
                raise ValueError(
                    f"functional model {batch.model!r} received requests "
                    "without input_index"
                )
            predictions = worker.predict(model, inputs[indices])
            for request, prediction in zip(batch.requests, predictions):
                outputs[request.request_id] = int(prediction)
        self._dispatch_ready(clock, queue, trace)

    # ------------------------------------------------------------------ #
    # Fault handlers
    # ------------------------------------------------------------------ #
    def _handle_worker_down(self, event, clock, queue, metrics, trace) -> None:
        worker = self.pool.workers[event.worker_id]
        if worker.state == "down":
            # A drain landing during an outage makes it permanent; a crash
            # scheduled before the drain existed is a harmless no-op.
            if event.cause == "drain":
                worker.drained = True
            return
        worker.mark_down(clock.now_s, drained=event.cause == "drain")
        trace.append(
            TraceEvent(clock.now_s, "worker_down", event.worker_id, event.cause)
        )
        if self._tracer is not None:
            tid = event.worker_id + 1
            # mark_down just cancelled any throttle episode; close its span.
            episode = self._trace_throttle.pop(event.worker_id, None)
            if episode is not None:
                start_s, derate = episode
                self._tracer.complete(
                    start_s, clock.now_s - start_s, f"throttle x{derate:g}",
                    self._trace_pid, tid,
                )
            self._trace_down[event.worker_id] = (clock.now_s, event.cause)
            self._tracer.instant(clock.now_s, event.cause, self._trace_pid, tid)
        batch = self._in_flight.pop(event.worker_id, None)
        if batch is None:
            return
        # The in-flight batch dies with the worker: its completion event is
        # disarmed, the partial busy time/energy it burned is real (wasted)
        # fleet cost, and its requests retry or terminally fail.
        self._lost_batches.add(batch.batch_id)
        elapsed_s = clock.now_s - batch.dispatch_s
        worker.record_lost(elapsed_s, clock.now_s)
        metrics.record_lost_batch(
            batch,
            wasted_busy_s=elapsed_s,
            wasted_energy_j=worker.power_w * elapsed_s,
        )
        trace.append(
            TraceEvent(
                clock.now_s, "batch_lost", batch.batch_id, worker.worker_id, batch.size
            )
        )
        if self._tracer is not None:
            self._tracer.complete(
                batch.dispatch_s, elapsed_s,
                f"{batch.model} x{batch.size} (lost)",
                self._trace_pid, worker.worker_id + 1,
                args={"batch": batch.batch_id},
            )
        self._retry_or_fail(batch, clock, queue, metrics, trace)
        # Every synchronous retry is back in its queue now; a survivor may
        # be idle, and a re-formed full batch must not wait for a deadline.
        self._dispatch_ready(clock, queue, trace)

    def _handle_worker_up(self, event, clock, queue, trace) -> None:
        worker = self.pool.workers[event.worker_id]
        if worker.state != "down" or not worker.mark_up(clock.now_s):
            return  # stale repair: the worker was drained in the meantime
        trace.append(TraceEvent(clock.now_s, "worker_up", event.worker_id))
        if self._tracer is not None:
            episode = self._trace_down.pop(event.worker_id, None)
            if episode is not None:
                start_s, cause = episode
                self._tracer.complete(
                    start_s, clock.now_s - start_s, f"down ({cause})",
                    self._trace_pid, event.worker_id + 1,
                )
        self._dispatch_ready(clock, queue, trace)

    def _handle_throttle_start(self, event, clock, trace) -> None:
        worker = self.pool.workers[event.worker_id]
        if worker.throttle(event.derate, event.episode):
            trace.append(
                TraceEvent(
                    clock.now_s, "throttle_start", event.worker_id, event.derate
                )
            )
            if self._tracer is not None:
                self._trace_throttle[event.worker_id] = (clock.now_s, event.derate)

    def _handle_throttle_end(self, event, clock, trace) -> None:
        worker = self.pool.workers[event.worker_id]
        if worker.unthrottle(event.episode):
            trace.append(TraceEvent(clock.now_s, "throttle_end", event.worker_id))
            if self._tracer is not None:
                episode = self._trace_throttle.pop(event.worker_id, None)
                if episode is not None:
                    start_s, derate = episode
                    self._tracer.complete(
                        start_s, clock.now_s - start_s, f"throttle x{derate:g}",
                        self._trace_pid, event.worker_id + 1,
                    )

    def _handle_retry(self, event, clock, queue, trace) -> None:
        # Re-admission after backoff.  A *due* head waits for the deadline
        # wake-up armed by _requeue_front -- it fires at this same instant
        # but *after* every same-time retry (RETRY_PRIORITY beats
        # DEADLINE_PRIORITY), so a lost batch re-forms as one batch rather
        # than dribbling out one single-request dispatch per retry event.
        # A re-formed *full* batch, however, dispatches immediately: full
        # batches never wait, and no deadline wake-up would catch one whose
        # head is not yet due.
        self._requeue_front(event.request, clock, queue)
        if self._batchers[event.request.model].has_full_batch():
            self._dispatch_ready(clock, queue, trace)

    def _retry_or_fail(self, batch, clock, queue, metrics, trace) -> None:
        """Route every request of a lost batch into retry or terminal failure.

        Requests are walked in *reverse* batch order: each retried request
        re-enters at the queue head, so the original FIFO order survives
        the round trip.
        """
        backoff_s = self.retry.backoff_s
        for request in reversed(batch.requests):
            attempts = self._attempts.get(request.request_id, 1)
            if attempts >= self.retry.max_attempts:
                metrics.record_failed(request, clock.now_s, attempts)
                trace.append(
                    TraceEvent(clock.now_s, "failed", request.request_id, attempts)
                )
                if self._tracer is not None:
                    self._tracer.instant(
                        clock.now_s, "failed", self._trace_pid, 0,
                        args={"request": request.request_id, "attempts": attempts},
                    )
                continue
            metrics.record_retry(request)
            self._retried.add(request.request_id)
            trace.append(
                TraceEvent(clock.now_s, "retry", request.request_id, attempts)
            )
            if self._tracer is not None:
                self._tracer.instant(
                    clock.now_s, "retry", self._trace_pid, 0,
                    args={"request": request.request_id, "attempts": attempts},
                )
            if backoff_s > 0:
                queue.push(
                    clock.now_s + backoff_s, RETRY_PRIORITY, RetryEvent(request)
                )
            else:
                self._requeue_front(request, clock, queue)

    def _requeue_front(self, request, clock, queue) -> None:
        batcher = self._batchers[request.model]
        batcher.requeue_front(request)
        if self._m_depth is not None:
            self._m_depth[request.model].set(batcher.depth)
        if self._tracer is not None:
            self._trace_queue_depth(clock.now_s, batcher)
        # The retried request is the new queue head and its original
        # max-wait deadline is long past, so the wake-up fires "now" --
        # giving it (and everything queued behind it) immediate dispatch
        # priority as soon as a worker is free.
        queue.push(
            max(clock.now_s, batcher.head_deadline_s),
            DEADLINE_PRIORITY,
            DeadlineEvent(request.model, request.request_id),
        )

    # ------------------------------------------------------------------ #
    # Dispatch arbitration
    # ------------------------------------------------------------------ #
    def _dispatch_ready(self, clock, queue, trace) -> None:
        """Dispatch every (batch, idle worker) pairing currently legal."""
        now = clock.now_s
        while True:
            worker = self.pool.idle_worker(now)
            if worker is None:
                return
            candidates = [
                batcher
                for batcher in self._batchers.values()
                if batcher.dispatchable(now)
            ]
            if not candidates:
                return
            batcher = min(
                candidates, key=lambda b: (b.head.arrival_s, b.model)
            )
            self._dispatch_batch(batcher, worker, clock, queue, trace)

    def _dispatch_batch(self, batcher, worker, clock, queue, trace) -> None:
        now = clock.now_s
        requests, deadline_triggered = batcher.pop_batch(now)
        if self._m_depth is not None:
            self._m_depth[batcher.model].set(batcher.depth)
        if self._tracer is not None:
            self._trace_queue_depth(now, batcher)
        latency_s = self.pool.batch_latency_s(worker, batcher.model, len(requests))
        if worker.derate != 1.0:
            # Thermal throttle: the episode's derate is priced into batches
            # *dispatched* during it (in-flight batches keep their price).
            latency_s *= worker.derate
        batch = Batch(
            batch_id=self._next_batch_id,
            model=batcher.model,
            requests=requests,
            dispatch_s=now,
            worker_id=worker.worker_id,
            latency_s=latency_s,
            energy_j=worker.batch_energy_j(latency_s),
            deadline_triggered=deadline_triggered,
        )
        self._next_batch_id += 1
        worker.dispatch(latency_s, now)
        if self._faults_active:
            self._in_flight[worker.worker_id] = batch
            for request in requests:
                self._attempts[request.request_id] = (
                    self._attempts.get(request.request_id, 0) + 1
                )
        queue.push(batch.completion_s, COMPLETION_PRIORITY, CompletionEvent(batch))
        trace.append(
            TraceEvent(
                now, "dispatch", batch.batch_id, worker.worker_id, batch.size,
                batch.model,
            )
        )
        head = batcher.head
        if head is not None:
            # Re-arm the wake-up for the new queue head (it may already be
            # past due, in which case the event fires immediately "now").
            queue.push(
                max(now, batcher.head_deadline_s),
                DEADLINE_PRIORITY,
                DeadlineEvent(batcher.model, head.request_id),
            )


def serve_trace(
    model: Sequential | SiameseModel,
    accelerator: PhotonicAccelerator,
    traffic: TrafficProcess,
    policy: BatchPolicy,
    *,
    n_workers: int = 1,
    seed: int = 0,
    drain: bool = True,
    inputs: np.ndarray | None = None,
    noise_stack: NoiseStack | None = None,
    activation_bits: int | None = None,
    faults: FaultInjector | FaultModel | None = None,
    retry: RetryPolicy | None = None,
    obs: "Observability | None" = None,
) -> ServingReport:
    """Serve one model's simulated traffic and return the full report.

    This is the top-level serving API: it materialises ``traffic`` with the
    given ``seed``, builds a fleet of ``n_workers`` simulated accelerators,
    runs the discrete-event loop to completion (arrivals always drain), and
    reduces everything to a :class:`~repro.serve.metrics.ServingReport`.

    Parameters
    ----------
    model:
        The served DNN; only its layer workloads are needed unless
        ``inputs`` is given.
    accelerator:
        Analytic accelerator model each fleet worker wraps.
    traffic:
        Seeded arrival process (:mod:`repro.serve.traffic`).
    policy:
        Micro-batching policy (:class:`~repro.serve.batcher.BatchPolicy`).
    n_workers:
        Fleet size.
    seed:
        Master seed: drives the traffic draw and offsets each worker's
        inference-engine seed (worker ``w`` gets ``seed + w``), so one
        integer reproduces the entire scenario.
    drain:
        ``True`` serves every admitted request to completion; ``False``
        cuts at the traffic window and reports the backlog (saturation
        probing).
    inputs:
        Optional input dataset; when given (requires a
        :class:`~repro.nn.model.Sequential` model), requests cycle through
        it and the report's ``outputs`` maps request ids to predicted
        classes computed through each worker's noise stack.
    noise_stack:
        Noise stack for the functional path (default: noiseless).
    activation_bits:
        Activation resolution of the functional path.
    faults:
        Optional fault injection.  A bare
        :class:`~repro.serve.faults.FaultModel` is wrapped in a
        :class:`~repro.serve.faults.FaultInjector` seeded with the master
        ``seed``, so one integer still reproduces the entire scenario,
        faults included; pass an injector directly to pin an independent
        fault seed.
    retry:
        Retry policy for requests lost to crashes (defaults apply when
        faults are active).
    obs:
        Optional :class:`~repro.obs.Observability` bundle (metrics /
        tracing / profiling); guaranteed not to change the report.
    """
    name = model.name if hasattr(model, "name") else type(model).__name__
    workloads = {name: trace_model(model)}
    functional = None
    engines = None
    if inputs is not None:
        if not isinstance(model, Sequential):
            raise TypeError(
                "functional serving needs a Sequential model, got "
                f"{type(model).__name__}"
            )
        inputs = np.asarray(inputs)
        functional = {name: (model, inputs)}
        stack = noise_stack if noise_stack is not None else NoiseStack(())
        engines = [
            PhotonicInferenceEngine(
                stack, activation_bits=activation_bits, seed=seed + worker_id
            )
            for worker_id in range(n_workers)
        ]
    if isinstance(faults, FaultModel):
        faults = FaultInjector(faults, seed=seed)
    runtime = ServingRuntime(
        workloads,
        accelerator,
        policy,
        n_workers=n_workers,
        functional=functional,
        engines=engines,
        faults=faults,
        retry=retry,
        obs=obs,
    )
    requests = requests_from_traffic(
        traffic,
        name,
        seed,
        n_inputs=None if inputs is None else inputs.shape[0],
    )
    return runtime.run(
        requests,
        traffic.duration_s,
        drain=drain,
        traffic_description=traffic.describe(),
    )
