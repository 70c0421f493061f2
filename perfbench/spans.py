"""Span recording for the traced benchmark run.

The traced run wraps the public entry points of each layer of ``repro``
(study runner, DNN training, compute-backend kernels, inference engine,
noise stack, sweeps, the analytic accelerator, the serving runtime and the
observability exporters) in spans recorded from this benchmark's own code.
No file under ``src/`` changes: module functions are rebound in every
``repro`` module that imported them, methods are replaced on their class,
and kernels go through a delegating :class:`ComputeBackend` registered with
``register_backend``.  Everything is undone by :meth:`Instrumentation.close`.

Spans live in memory as tuples with parent ids and are written once, at the
end, as Chrome trace-event JSON (open it in https://ui.perfetto.dev).  A
span's self time is its duration minus the time its direct children cover
(spans are recorded on one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Kernel methods of ``repro.nn.backend.ComputeBackend`` -> span name.
KERNELS = {
    "matmul": "nn.backend.matmul",
    "batched_matmul": "nn.backend.batched_matmul",
    "im2col": "nn.backend.im2col",
    "col2im": "nn.backend.col2im",
    "relu": "nn.backend.activation",
    "sigmoid": "nn.backend.activation",
    "tanh": "nn.backend.activation",
}

#: Spans reported as ``<name>.{calls,s,self_s}`` (kernels add ``.bytes``).
SPAN_NAMES = (
    "nn.fit",
    *dict.fromkeys(KERNELS.values()),
    "sim.evaluate_ensemble",
    "sim.engine.predict",
    "sim.noise.apply",
    "sim.sweep.run_sweep",
    "arch.batch_latency",
    "arch.simulate_models",
    "serve.traffic.materialise",
    "serve.runtime.run",
    "serve.report.reduce",
    "obs.trace.export",
    "obs.metrics.export",
)

#: ``LoopProfiler`` handler kinds (payload class names minus ``Event``).
EVENT_KINDS = (
    "Arrival", "Deadline", "Completion", "Retry",
    "WorkerDown", "WorkerUp", "ThrottleStart", "ThrottleEnd",
)

_ROOT = -1


def _nbytes(*arrays) -> int:
    return sum(int(getattr(array, "nbytes", 0)) for array in arrays)


class SpanRecorder:
    """Single-threaded span stack; one record per finished span.

    A record is ``(id, parent_id, name, start_ns, end_ns, bytes, outermost)``
    where ``outermost`` is false for a span nested inside another span of the
    same name (so per-name totals never count the same interval twice).
    """

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self._stack = [_ROOT]
        self._next_id = 0
        self._open: dict[str, int] = defaultdict(int)

    def _enter(self, name: str) -> tuple[int, int, bool]:
        sid = self._next_id
        self._next_id += 1
        outermost = self._open[name] == 0
        self._open[name] += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent, outermost

    def _exit(self, name: str, frame: tuple[int, int, bool], t0: int, size: int) -> None:
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self._open[name] -= 1
        sid, parent, outermost = frame
        self.records.append((sid, parent, name, t0, t1, size, outermost))

    def call(self, name, fn, args, kwargs, nbytes=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``nbytes(args, result)``, when given, sizes the data the call moved.
        """
        frame = self._enter(name)
        size = 0
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            if nbytes is not None:
                size = nbytes(args, result)
            return result
        finally:
            self._exit(name, frame, t0, size)

    @contextmanager
    def span(self, name: str):
        """Context-manager form of :meth:`call` for the benchmark's own steps."""
        frame = self._enter(name)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(name, frame, t0, 0)

    def summarise(self) -> dict[str, dict[str, float]]:
        """Per-name ``calls``, ``s`` (outermost), ``self_s`` and ``bytes``."""
        covered: dict[int, int] = defaultdict(int)
        for _sid, parent, _name, t0, t1, _size, _outer in self.records:
            covered[parent] += t1 - t0
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0}
        )
        for sid, _parent, name, t0, t1, size, outermost in self.records:
            entry = stats[name]
            entry["calls"] += 1
            if outermost:
                entry["s"] += (t1 - t0) * 1e-9
            entry["self_s"] += (t1 - t0 - covered[sid]) * 1e-9
            entry["bytes"] += size
        return dict(stats)

    def children_s(self, parent_name: str) -> tuple[float, float]:
        """``(parent seconds, seconds its direct children cover)``."""
        parents = {
            sid: t1 - t0
            for sid, _p, name, t0, t1, _s, _o in self.records
            if name == parent_name
        }
        children = sum(
            t1 - t0 for _sid, parent, _n, t0, t1, _s, _o in self.records if parent in parents
        )
        return sum(parents.values()) * 1e-9, children * 1e-9

    def write_chrome_trace(self, path: Path, process_name: str) -> None:
        """Write every span as a Chrome ``X`` event (Perfetto opens the file)."""
        base = min((record[3] for record in self.records), default=0)
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": process_name}},
        ]
        for sid, parent, name, t0, t1, size, _outer in sorted(
            self.records, key=lambda record: (record[3], record[0])
        ):
            args = {"id": sid, "parent": parent}
            if size:
                args["bytes"] = size
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3,
                "pid": 1, "tid": 1, "args": args,
            })
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


class RssSampler:
    """Background sampler of this process's resident set size.

    ``/proc/self/statm`` gives the current RSS; a study's peak is the
    largest sample taken while it ran.  The thread only reads, sleeps
    between samples, and is joined by :meth:`stop`.
    """

    def __init__(self, interval_s: float = 0.005) -> None:
        self._interval_s = interval_s
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._peak = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)

    def rss_bytes(self) -> int:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * self._page

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            rss = self.rss_bytes()
            with self._lock:
                self._peak = max(self._peak, rss)

    def start(self) -> "RssSampler":
        self._thread.start()
        return self

    def reset(self) -> None:
        with self._lock:
            self._peak = self.rss_bytes()

    def peak_mb(self) -> float:
        rss = self.rss_bytes()
        with self._lock:
            return max(self._peak, rss) / 2**20

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


class Instrumentation:
    """Installs the span wrappers into ``repro``; :meth:`close` removes them.

    Import every module that will run (e.g. all experiment drivers) before
    constructing this: a function is rebound only in modules that already
    hold a reference to it.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        #: Totals over every ServingReport returned while installed.
        self.serve_totals: dict[str, float] = defaultdict(float)
        self.sweep_points = 0
        self._undo: list[tuple[object, str, object]] = []
        self._previous_backend = None
        self._install()

    # -- patching helpers ----------------------------------------------- #
    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrapper(self, original, name, after=None):
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = recorder.call(name, original, args, kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _wrap_function(self, module_name, attr, name, after=None) -> None:
        """Rebind a module function in every ``repro`` module that imported it."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self._wrapper(original, name, after)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "repro":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _wrap_method(self, cls, attr, name, after=None) -> None:
        self._set(cls, attr, self._wrapper(cls.__dict__[attr], name, after))

    # -- the layer map --------------------------------------------------- #
    def _install(self) -> None:
        from repro.arch.accelerator import PhotonicAccelerator
        from repro.nn.model import Sequential
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracing import Tracer
        from repro.serve.metrics import MetricsCollector
        from repro.serve.runtime import ServingRuntime
        from repro.sim.noise import NoiseStack
        from repro.sim.photonic_inference import PhotonicInferenceEngine

        self._wrap_method(Sequential, "fit", "nn.fit")
        self._wrap_method(PhotonicInferenceEngine, "predict", "sim.engine.predict")
        self._wrap_method(NoiseStack, "apply", "sim.noise.apply")
        self._wrap_method(PhotonicAccelerator, "batch_latency_s", "arch.batch_latency")
        self._wrap_method(ServingRuntime, "run", "serve.runtime.run", after=self._count_report)
        self._wrap_method(MetricsCollector, "finalize", "serve.report.reduce")
        self._wrap_method(Tracer, "write", "obs.trace.export")
        self._wrap_method(MetricsRegistry, "write", "obs.metrics.export")
        self._wrap_function(
            "repro.sim.photonic_inference", "evaluate_ensemble", "sim.evaluate_ensemble"
        )
        self._wrap_function(
            "repro.sim.sweep", "run_sweep", "sim.sweep.run_sweep", after=self._count_points
        )
        self._wrap_function("repro.sim.simulator", "simulate_models", "arch.simulate_models")
        self._wrap_function(
            "repro.serve.runtime", "requests_from_traffic", "serve.traffic.materialise"
        )
        self._install_backend()

    def _count_points(self, result) -> None:
        self.sweep_points += len(result)

    def _count_report(self, report) -> None:
        totals = self.serve_totals
        totals["events"] += report.events_processed
        totals["loop_s"] += report.wall_time_s
        totals["batches"] += len(report.batches)
        totals["batched_requests"] += sum(batch.size for batch in report.batches)
        totals["completed"] += report.n_completed
        totals["retries"] += report.n_retries
        totals["lost_batches"] += report.n_lost_batches
        totals["shed"] += report.n_shed

    def _install_backend(self) -> None:
        from repro.nn import backend as nn_backend

        inner = nn_backend.active_backend()
        recorder = self.recorder

        def kernel(method: str, sizes):
            span = KERNELS[method]
            target = getattr(inner, method)

            def run(self, *args, **kwargs):
                return recorder.call(span, target, args, kwargs, sizes)

            return run

        def matmul_bytes(args, result):
            return _nbytes(args[0], args[1], result)

        def unary_bytes(args, result):
            return _nbytes(args[0], result)

        class TracedBackend(nn_backend.ComputeBackend):
            """Delegates every kernel to the active backend inside a span."""

            name = f"traced-{inner.name}"
            accelerated = inner.accelerated
            matmul = kernel("matmul", matmul_bytes)
            batched_matmul = kernel("batched_matmul", matmul_bytes)
            im2col = kernel("im2col", unary_bytes)
            col2im = kernel("col2im", unary_bytes)
            relu = kernel("relu", unary_bytes)
            sigmoid = kernel("sigmoid", unary_bytes)
            tanh = kernel("tanh", unary_bytes)

        nn_backend.register_backend(TracedBackend)
        self._previous_backend = inner
        nn_backend.set_backend(TracedBackend.name)

    def close(self) -> None:
        """Restore every patched attribute and the previous backend."""
        from repro.nn import backend as nn_backend

        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        if self._previous_backend is not None:
            nn_backend.set_backend(self._previous_backend)
            self._previous_backend = None
