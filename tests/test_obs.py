"""Tests of :mod:`repro.obs`: metrics, tracing, and event-loop profiling.

The load-bearing contract, asserted both ways across fault-heavy and
fault-free regimes (hypothesis-driven): **enabling observability never
changes a single simulated result** -- the :class:`ServingReport`, its
event trace, and its rendered summary are byte-identical with and without
an attached :class:`~repro.obs.Observability` bundle.

Also covered:

* the metrics substrate (counters/gauges/log-bucket histograms, kind
  conflicts, sorted deterministic exports, Prometheus text exposition);
* Chrome trace-event schema validity (required keys, monotonic ``ts``,
  matched ``B``/``E`` per thread, matched ``b``/``e`` per ``(cat, id)``,
  non-negative ``X`` durations) for both hand-built and runtime traces;
* the trace export: the row tracer's encoder against ``json.dumps`` of the
  dict-per-event trace (hypothesis, every phase, reserved request spans),
  and sha256 pins of one runtime scenario's trace and metrics bytes;
* ``Histogram.observe_many`` against a loop of ``observe``, bit for bit;
* the wall-clock loop profiler and its instrumented event queue;
* the cache satellite: ``global_cache_stats`` as a registry view;
* the study layer: registry-backed envelope accounting, embedded metrics
  snapshots, and the CLI's ``--trace``/``--metrics``/``--profile`` flags.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.accelerator import CrossLightAccelerator
from repro.nn.zoo import build_model
from repro.obs import (
    Histogram,
    LoopProfiler,
    MetricsRegistry,
    Observability,
    Tracer,
    cache_collector,
    log_buckets,
)
from repro.serve import (
    BatchPolicy,
    EventQueue,
    FaultModel,
    PoissonTraffic,
    RetryPolicy,
    serve_trace,
)
from repro.sim.sweep import SweepExecutor, run_sweep
from repro.study.cli import main as cli_main
from repro.study.runner import StudyRunner
from repro.utils.cache import global_cache_stats, iter_cache_infos, memoize


@pytest.fixture(scope="module")
def lenet():
    return build_model(1)


@pytest.fixture(scope="module")
def crosslight():
    return CrossLightAccelerator.from_variant("cross_opt_ted")


# --------------------------------------------------------------------------- #
# Chrome trace-event schema validation
# --------------------------------------------------------------------------- #
def validate_chrome_trace(trace: dict) -> None:
    """Assert ``trace`` is a well-formed Chrome trace-event JSON object."""
    assert set(trace) >= {"traceEvents"}
    events = trace["traceEvents"]
    assert isinstance(events, list)

    open_sync: dict[tuple, list[str]] = {}
    open_async: dict[tuple, int] = {}
    last_ts = -math.inf
    seen_payload = False
    for event in events:
        assert {"name", "ph", "pid", "tid"} <= set(event), event
        ph = event["ph"]
        if ph == "M":
            # Metadata may only lead the payload (the export contract).
            assert not seen_payload, "metadata event after payload events"
            continue
        seen_payload = True
        assert "ts" in event, event
        ts = event["ts"]
        assert ts >= last_ts, f"ts not monotonic: {ts} after {last_ts}"
        last_ts = ts
        if ph == "X":
            assert event["dur"] >= 0.0
        elif ph == "B":
            open_sync.setdefault((event["pid"], event["tid"]), []).append(
                event["name"]
            )
        elif ph == "E":
            stack = open_sync.get((event["pid"], event["tid"]))
            assert stack, f"E without B on {event['pid']}/{event['tid']}"
            stack.pop()
        elif ph == "b":
            key = (event["cat"], event["id"])
            open_async[key] = open_async.get(key, 0) + 1
        elif ph == "e":
            key = (event["cat"], event["id"])
            assert open_async.get(key, 0) > 0, f"e without b for {key}"
            open_async[key] -= 1
        elif ph == "i":
            assert event.get("s") in ("t", "p", "g")
        elif ph == "C":
            assert isinstance(event["args"], dict)
        else:
            raise AssertionError(f"unexpected phase {ph!r}")
    assert all(not stack for stack in open_sync.values()), open_sync
    assert all(n == 0 for n in open_async.values()), open_async


# --------------------------------------------------------------------------- #
# Metrics substrate
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_log_buckets_fixed_and_machine_independent(self):
        buckets = log_buckets(1e-7, 10.0, per_decade=4)
        assert buckets[0] == 1e-7
        assert buckets == log_buckets(1e-7, 10.0, per_decade=4)
        assert all(b > a for a, b in zip(buckets, buckets[1:]))
        assert buckets[-1] >= 10.0

    def test_log_buckets_validation(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1e-3, 1.0, per_decade=0)

    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("x.count")
        counter.inc()
        counter.inc(3)
        assert registry.value("x.count") == 4
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_inc(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("x.depth")
        gauge.set(5)
        gauge.inc(-2)
        assert registry.value("x.depth") == 3.0

    def test_histogram_observe_mean_quantile(self):
        hist = Histogram("h", (), buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 5.0, 50.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(60.5)
        assert hist.mean == pytest.approx(60.5 / 4)
        # Quantiles resolve to bucket upper bounds.
        assert hist.quantile(0.5) == 10.0
        assert hist.quantile(1.0) == 100.0
        hist.observe(1e6)
        assert hist.quantile(1.0) == math.inf

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("dual", {"a": "1"})
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("dual", {"a": "1"})
        # Same name with different labels is a separate instrument.
        registry.gauge("dual", {"a": "2"}).set(1.0)

    def test_labels_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.counter("c", {"k": "v"})
        again = registry.counter("c", {"k": "v"})
        assert first is again
        assert registry.get("c", {"k": "other"}) is None

    def test_collect_sorted_and_prefix_filtered(self):
        registry = MetricsRegistry()
        registry.counter("b.second").inc()
        registry.counter("a.first").inc()
        names = [s.name for s in registry.collect()]
        assert names == sorted(names)
        assert [s.name for s in registry.collect(prefix="a.")] == ["a.first"]

    def test_to_json_stable(self):
        registry = MetricsRegistry()
        registry.counter("a", {"z": "1", "b": "2"}).inc(2)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        first = registry.to_json()
        payload = json.loads(first)
        assert registry.to_json() == first
        kinds = {m["name"]: m["kind"] for m in payload["metrics"]}
        assert kinds == {"a": "counter", "h": "histogram"}

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("serve.runtime.arrivals", {"model": "lenet"}).inc(7)
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        text = registry.to_prometheus()
        assert "# TYPE serve_runtime_arrivals_total counter" in text
        assert 'serve_runtime_arrivals_total{model="lenet"} 7' in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1.0"} 2' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_count 2" in text

    def test_prometheus_label_escapes_line_feed(self):
        registry = MetricsRegistry()
        registry.counter("x", {"study": 'a\nb\\c"d'})
        lines = registry.to_prometheus().splitlines()
        assert 'x_total{study="a\\nb\\\\c\\"d"} 0' in lines
        assert all(line.startswith(("#", "x_total{")) for line in lines), lines

    @given(
        runs=st.lists(
            st.lists(
                st.one_of(
                    st.floats(),
                    st.sampled_from([0.0, -0.0, 1.0, 10.0, 100.0, math.inf, -math.inf, math.nan]),
                ),
                max_size=40,
            ),
            min_size=1, max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_observe_many_equals_observe_loop(self, runs):
        # Runs made in a row into one registry, the empty run included; the
        # sum must match to the last bit (float.hex), not approximately.
        looped, bulk = MetricsRegistry(), MetricsRegistry()
        a = looped.histogram("h", buckets=(1.0, 10.0, 100.0))
        b = bulk.histogram("h", buckets=(1.0, 10.0, 100.0))
        for values in [*runs, []]:
            for value in values:
                a.observe(value)
            b.observe_many(np.asarray(values))
        assert b.counts == a.counts
        assert b.count == a.count
        assert type(b.sum) is float
        assert float.hex(b.sum) == float.hex(a.sum)
        assert bulk.to_prometheus() == looped.to_prometheus()

    def test_write_prom_vs_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        prom = tmp_path / "m.prom"
        js = tmp_path / "m.json"
        registry.write(prom)
        registry.write(js)
        assert "n_total 1" in prom.read_text()
        assert json.loads(js.read_text())["metrics"][0]["name"] == "n"


# --------------------------------------------------------------------------- #
# Cache satellite: the registry as the unified read surface
# --------------------------------------------------------------------------- #
class TestCacheBridge:
    def test_cache_collector_and_global_view_agree(self):
        calls = []

        @memoize(maxsize=4)
        def probe(x):
            calls.append(x)
            return x * 2

        probe(1), probe(1), probe(2)
        name = next(n for n, _ in iter_cache_infos() if "probe" in n)

        registry = MetricsRegistry(collectors=(cache_collector,))
        by_name = {
            (s.name, dict(s.labels)["fn"]): s.value
            for s in registry.collect(prefix="cache.")
        }
        assert by_name[("cache.hits", name)] == 1
        assert by_name[("cache.misses", name)] == 2

        stats = global_cache_stats()
        assert stats[name].hits == 1
        assert stats[name].misses == 2
        assert stats[name].currsize == 2


# --------------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_hand_built_trace_validates(self):
        tracer = Tracer()
        pid = tracer.new_process("test")
        tracer.thread_name(pid, 0, "main")
        tracer.begin(0.0, "outer", pid, 0)
        tracer.begin(1.0, "inner", pid, 0)
        tracer.end(2.0, pid, 0)
        tracer.end(3.0, pid, 0)
        tracer.complete(0.5, 0.25, "span", pid, 1, args={"k": 1})
        tracer.instant(0.75, "blip", pid, 1)
        tracer.counter(0.1, "depth", pid, 0, {"queue": 3})
        tracer.async_span(0.0, 2.5, "request", "request", 42, pid)
        validate_chrome_trace(tracer.to_dict())

    def test_events_sorted_regardless_of_emission_order(self):
        tracer = Tracer()
        pid = tracer.new_process("p")
        tracer.complete(5.0, 1.0, "late", pid, 0)
        tracer.complete(1.0, 1.0, "early", pid, 0)
        events = [e for e in tracer.to_dict()["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in events] == ["early", "late"]

    def test_end_without_begin_raises(self):
        tracer = Tracer()
        pid = tracer.new_process("p")
        with pytest.raises(RuntimeError, match="no open span"):
            tracer.end(1.0, pid, 0)

    def test_close_open_closes_everything(self):
        tracer = Tracer()
        pid = tracer.new_process("p")
        tracer.begin(0.0, "a", pid, 0)
        tracer.begin(0.5, "b", pid, 1)
        assert tracer.close_open(2.0) == 2
        validate_chrome_trace(tracer.to_dict())

    def test_process_memoizes_new_process_does_not(self):
        tracer = Tracer()
        assert tracer.process("shared") == tracer.process("shared")
        assert tracer.new_process("fresh") != tracer.new_process("fresh")

    def test_negative_duration_clamped(self):
        tracer = Tracer()
        pid = tracer.new_process("p")
        tracer.complete(1.0, -0.5, "clamped", pid, 0)
        (event,) = (e for e in tracer.to_dict()["traceEvents"] if e["ph"] == "X")
        assert event["dur"] == 0.0

    def test_write_round_trips(self, tmp_path):
        tracer = Tracer()
        pid = tracer.new_process("p")
        tracer.instant(0.0, "x", pid, 0)
        path = tmp_path / "trace.json"
        tracer.write(path)
        validate_chrome_trace(json.loads(path.read_text()))


# --------------------------------------------------------------------------- #
# Tracer export: one encoder, byte-identical to json.dumps of the event dicts
# --------------------------------------------------------------------------- #
_TEXTS = st.one_of(
    st.sampled_from(["queue", 'say "hi"', "back\\slash", "ctl\x00\x1f\n\t", "naïve ✓", "\ud800"]),
    st.text(max_size=4),
)
_TS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-6, 2.5e-6, 0.1, 1e300, math.inf, -math.inf]),
    st.floats(min_value=-1.0, max_value=1.0),
)
_VALUES = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**90),
    st.floats(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    _TEXTS,
)
_ARGS = st.one_of(st.none(), st.dictionaries(_TEXTS, _VALUES, max_size=3))
_IDS = st.integers(0, 3)


@st.composite
def _request_block(draw):
    """Columns of ``n`` completed requests (numpy, as ``RequestLog`` holds them)."""
    n = draw(st.integers(0, 4))
    times = [sorted(draw(st.lists(_TS, min_size=3, max_size=3))) for _ in range(n)]
    return {
        "request_id": np.asarray(
            draw(st.lists(st.integers(0, 2**62), min_size=n, max_size=n)), dtype=np.int64
        ),
        "arrival_s": np.asarray([t[0] for t in times], dtype=float),
        "dispatch_s": np.asarray([t[1] for t in times], dtype=float),
        "completion_s": np.asarray([t[2] for t in times], dtype=float),
        "worker_id": np.asarray(draw(st.lists(_IDS, min_size=n, max_size=n)), dtype=np.int64),
    }


_OPS = st.one_of(
    st.tuples(st.just("complete"), _TS, st.floats(), _TEXTS, _IDS, _IDS, _ARGS),
    st.tuples(st.just("begin"), _TS, _TEXTS, _IDS, _IDS, _ARGS),
    st.tuples(st.just("end"), _TS),
    st.tuples(st.just("instant"), _TS, _TEXTS, _IDS, _IDS, _ARGS),
    st.tuples(
        st.just("counter"), _TS, _TEXTS, _IDS, _IDS,
        st.one_of(
            st.dictionaries(_TEXTS, st.one_of(st.integers(), st.booleans()), min_size=1, max_size=1),
            st.dictionaries(_TEXTS, _VALUES, max_size=2),
        ),
    ),
    st.tuples(
        st.just("async"), _TS, _TS, _TEXTS, _TEXTS,
        st.one_of(st.integers(), st.booleans(), _TEXTS), _IDS, _IDS, _ARGS,
    ),
    st.tuples(st.just("process"), _TEXTS),
    st.tuples(st.just("thread"), _IDS, _IDS, _TEXTS),
    st.tuples(st.just("reserve"), _request_block()),
)


def _replay(ops, fill_at):
    """Apply ``ops`` to a :class:`Tracer` and build the expected trace dict.

    The expectation is the dict-per-event trace: metadata in emission order,
    then events sorted by ``(ts, emission index)``.  Each ``reserve`` op
    holds a block of requests whose four queue/service events take the
    reserved indices.  One bulk ``request_spans`` call fills every block
    just before op ``fill_at`` (after the last ``reserve``), so ordinary
    emissions surround it, as in a serving run.
    """
    tracer = Tracer()
    meta, events, blocks, open_spans = [], [], [], []

    def emitted(event):
        events.append((event["ts"], len(events), event))

    def with_args(event, args):
        if args:
            event["args"] = args
        return event

    def fill():
        if blocks:
            tracer.request_spans(
                np.concatenate([b["seq"] + 4 * np.arange(len(b["request_id"])) for b in blocks]),
                pid=7,
                **{
                    name: np.concatenate([b[name] for b in blocks])
                    for name in (
                        "request_id", "arrival_s", "dispatch_s", "completion_s", "worker_id"
                    )
                },
            )

    for index, op in enumerate(ops):
        if index == fill_at:
            fill()
        kind = op[0]
        if kind == "complete":
            _, ts, dur, name, pid, tid, args = op
            tracer.complete(ts, dur, name, pid, tid, args)
            emitted(with_args({"name": name, "ph": "X", "ts": ts * 1e6,
                               "dur": max(0.0, dur) * 1e6, "pid": pid, "tid": tid}, args))
        elif kind == "begin":
            _, ts, name, pid, tid, args = op
            tracer.begin(ts, name, pid, tid, args)
            open_spans.append((name, pid, tid))
            emitted(with_args({"name": name, "ph": "B", "ts": ts * 1e6,
                               "pid": pid, "tid": tid}, args))
        elif kind == "end" and open_spans:
            # End the newest open span; Tracer.end names it from its stack.
            name, pid, tid = open_spans.pop()
            tracer.end(op[1], pid, tid)
            emitted({"name": name, "ph": "E", "ts": op[1] * 1e6, "pid": pid, "tid": tid})
        elif kind == "instant":
            _, ts, name, pid, tid, args = op
            tracer.instant(ts, name, pid, tid, args)
            emitted(with_args({"name": name, "ph": "i", "ts": ts * 1e6,
                               "pid": pid, "tid": tid, "s": "t"}, args))
        elif kind == "counter":
            _, ts, name, pid, tid, values = op
            tracer.counter(ts, name, pid, tid, values)
            emitted({"name": name, "ph": "C", "ts": ts * 1e6, "pid": pid, "tid": tid,
                     "args": dict(values)})
        elif kind == "async":
            _, start, end, name, cat, correlation_id, pid, tid, args = op
            tracer.async_span(start, end, name, cat, correlation_id, pid, tid, args)
            emitted(with_args({"name": name, "cat": cat, "ph": "b", "id": correlation_id,
                               "ts": start * 1e6, "pid": pid, "tid": tid}, args))
            emitted({"name": name, "cat": cat, "ph": "e", "id": correlation_id,
                     "ts": end * 1e6, "pid": pid, "tid": tid})
        elif kind == "process":
            pid = tracer.new_process(op[1])
            meta.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                         "args": {"name": op[1]}})
        elif kind == "thread":
            _, pid, tid, name = op
            tracer.thread_name(pid, tid, name)
            meta.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                         "args": {"name": name}})
        elif kind == "reserve":
            block = dict(op[1], seq=tracer.reserve(4 * len(op[1]["request_id"])))
            blocks.append(block)
            for rid, arrival, dispatch, completion, worker in zip(
                block["request_id"].tolist(), block["arrival_s"].tolist(),
                block["dispatch_s"].tolist(), block["completion_s"].tolist(),
                block["worker_id"].tolist(),
            ):
                for name, ph, ts, tid in (
                    ("queue", "b", arrival, 0), ("queue", "e", dispatch, 0),
                    ("service", "b", dispatch, worker + 1),
                    ("service", "e", completion, worker + 1),
                ):
                    emitted({"name": name, "cat": "request", "ph": ph, "id": rid,
                             "ts": ts * 1e6, "pid": 7, "tid": tid})
    if fill_at == len(ops):
        fill()
    ordered = sorted(events, key=lambda item: (item[0], item[1]))
    return tracer, {
        "traceEvents": meta + [event for _, _, event in ordered],
        "displayTimeUnit": "ms",
    }


class TestTracerExport:
    @given(ops=st.lists(_OPS, max_size=25), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_encoder_matches_json_dumps(self, ops, data, tmp_path_factory):
        reserves = [index for index, op in enumerate(ops) if op[0] == "reserve"]
        fill_at = data.draw(st.integers(max(reserves, default=-1) + 1, len(ops)))
        tracer, expected = _replay(ops, fill_at)
        text = tracer.to_json()
        # The old dict-per-event export, the new to_dict(), and the streamed
        # file all agree byte for byte.
        assert text == json.dumps(expected)
        assert text == json.dumps(tracer.to_dict())
        path = tmp_path_factory.mktemp("trace") / "t.json"
        tracer.write(path)
        assert path.read_bytes() == (text + "\n").encode()
        assert len(tracer) == len(expected["traceEvents"])

    def test_equal_timestamps_keep_emission_order(self):
        tracer = Tracer()
        pid = tracer.new_process("p")
        base = tracer.reserve(4)
        tracer.instant(0.0, "after-reserve", pid, 0)
        tracer.instant(-0.0, "negative-zero", pid, 0)
        tracer.request_spans(
            [base], np.array([5]), [0.0], [0.0], [0.0], np.array([1]), pid
        )
        names = [
            (e["name"], e["ph"]) for e in tracer.to_dict()["traceEvents"] if e["ph"] != "M"
        ]
        assert names == [
            ("queue", "b"), ("queue", "e"), ("service", "b"), ("service", "e"),
            ("after-reserve", "i"), ("negative-zero", "i"),
        ]


# --------------------------------------------------------------------------- #
# Loop profiler
# --------------------------------------------------------------------------- #
class TestLoopProfiler:
    def test_record_and_summary(self):
        profiler = LoopProfiler()
        profiler.start()
        profiler.record("ArrivalEvent", 1_000)
        profiler.record("ArrivalEvent", 2_000)
        profiler.record("CompletionEvent", 500)
        profiler.stop()
        summary = profiler.summary()
        assert summary["events_processed"] == 3
        assert summary["handlers"]["ArrivalEvent"]["count"] == 2
        assert summary["events_per_sec"] > 0
        assert "| handler |" in profiler.table()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            LoopProfiler().stop()

    def test_instrumented_queue_behaves_identically(self):
        profiler = LoopProfiler()
        plain, wrapped = EventQueue(), profiler.instrument_queue()
        for queue in (plain, wrapped):
            queue.push(2.0, 1, "b")
            queue.push(1.0, 0, "a")
        assert plain.pop() == wrapped.pop()
        assert plain.pop() == wrapped.pop()
        ops = profiler.summary()["queue_ops"]
        assert ops["push"]["count"] == 2
        assert ops["pop"]["count"] == 2

    def test_samples_merged_into_enabled_registry(self):
        obs = Observability.enabled(profiler=True)
        obs.profiler.record("ArrivalEvent", 1_000)
        names = {s.name for s in obs.metrics.collect(prefix="profile.")}
        assert "profile.handler_s" in names
        assert "profile.events_processed" in names


# --------------------------------------------------------------------------- #
# Byte-identity: observability must not perturb a single simulated result
# --------------------------------------------------------------------------- #
FAULTY = FaultModel(
    crash_mtbf_s=1.5e-3, repair_mttr_s=0.3e-3,
    throttle_mtbf_s=1.0e-3, throttle_duration_s=0.5e-3, throttle_derate=2.0,
)


class TestByteIdentity:
    @staticmethod
    def _run(lenet, crosslight, seed, rate_rps, n_workers, faults, obs):
        traffic = PoissonTraffic(rate_rps=rate_rps, duration_s=0.004)
        policy = BatchPolicy(max_batch_size=8, max_wait_s=100e-6, max_queue_depth=64)
        return serve_trace(
            lenet, crosslight, traffic, policy, n_workers=n_workers, seed=seed,
            faults=faults, retry=RetryPolicy() if faults is not None else None,
            obs=obs,
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate_rps=st.sampled_from([40_000.0, 120_000.0]),
        n_workers=st.integers(min_value=1, max_value=3),
        faulty=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_obs_on_equals_obs_off(
        self, lenet, crosslight, seed, rate_rps, n_workers, faulty
    ):
        faults = FAULTY if faulty else None
        plain = self._run(lenet, crosslight, seed, rate_rps, n_workers, faults, None)
        obs = Observability.enabled(profiler=True)
        observed = self._run(lenet, crosslight, seed, rate_rps, n_workers, faults, obs)
        assert observed == plain
        assert observed.event_trace == plain.event_trace
        assert observed.summary() == plain.summary()
        validate_chrome_trace(obs.tracer.to_dict())

    def test_runtime_trace_has_expected_tracks(self, lenet, crosslight):
        obs = Observability.enabled()
        report = self._run(lenet, crosslight, 7, 120_000.0, 2, FAULTY, obs)
        assert report.n_arrivals > 0
        events = obs.tracer.to_dict()["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "b", "e", "C"} <= phases
        thread_names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "runtime" in thread_names
        assert "worker-0" in thread_names
        # Request lifetimes split into queue-wait and service phases.
        async_names = {e["name"] for e in events if e["ph"] == "b"}
        assert async_names == {"queue", "service"}

    # sha256 of the FAULTY scenario's trace JSON and metrics JSON (without
    # the wall-clock serve.runtime.wall_time_s gauge), recorded from the
    # dict-per-event tracer and per-request histogram observations.  The
    # derived request spans and histograms must reproduce them exactly.
    TRACE_SHA256 = "85261da7bf4cb43c20f3b93ce6b184f7e8f82f96826887eec34dd041dbc4202b"
    METRICS_SHA256 = "e5bfb1af50588e36bcabda378e234fc44ff2be42de8504c7a90d8cf6ccfcb1d0"

    def test_trace_and_metrics_bytes_pinned(self, lenet, crosslight):
        # No cache collector: cache accounting depends on what else ran.
        obs = Observability(metrics=MetricsRegistry(), tracer=Tracer())
        self._run(lenet, crosslight, 7, 120_000.0, 2, FAULTY, obs)
        trace = obs.tracer.to_json()
        payload = obs.metrics.to_dict()
        payload["metrics"] = [
            m for m in payload["metrics"] if m["name"] != "serve.runtime.wall_time_s"
        ]
        metrics = json.dumps(payload, indent=2)
        assert len(obs.tracer) == len(json.loads(trace)["traceEvents"]) == 2499
        assert hashlib.sha256(trace.encode()).hexdigest() == self.TRACE_SHA256
        assert hashlib.sha256(metrics.encode()).hexdigest() == self.METRICS_SHA256

    def test_runtime_metrics_account_for_traffic(self, lenet, crosslight):
        obs = Observability.enabled(tracer=False)
        report = self._run(lenet, crosslight, 3, 120_000.0, 2, None, obs)
        registry = obs.metrics
        label = {"accelerator": crosslight.name}
        assert registry.value("serve.runtime.arrivals", label) == report.n_arrivals
        assert registry.value("serve.runtime.completed", label) == report.n_completed
        assert registry.value("serve.runtime.batches", label) == len(report.batches)
        assert (
            registry.value("serve.runtime.events_processed", label)
            == report.events_processed
        )
        latency = registry.get("serve.runtime.latency_s", label)
        assert latency.count == report.n_completed

    def test_events_processed_and_rate_in_report(self, lenet, crosslight):
        report = self._run(lenet, crosslight, 0, 40_000.0, 1, None, None)
        assert report.events_processed > report.n_arrivals
        assert report.wall_time_s > 0
        assert report.events_per_sec == pytest.approx(
            report.events_processed / report.wall_time_s
        )
        # Nondeterministic wall-clock fields never participate in equality.
        again = self._run(lenet, crosslight, 0, 40_000.0, 1, None, None)
        assert again == report


# --------------------------------------------------------------------------- #
# Sweep instrumentation
# --------------------------------------------------------------------------- #
def _square(x):
    return x * x


class TestSweepObs:
    def test_serial_sweep_records_points_and_spans(self):
        obs = Observability.enabled()
        result = run_sweep(_square, [{"x": i} for i in range(5)], obs=obs)
        assert result.values == (0, 1, 4, 9, 16)
        assert obs.metrics.value("sim.sweep.points") == 5
        assert obs.metrics.value("sim.sweep.sweeps") == 1
        assert obs.metrics.get("sim.sweep.point_s").count == 5
        names = [
            e["name"] for e in obs.tracer.to_dict()["traceEvents"]
            if e["ph"] == "X"
        ]
        assert "sweep x5" in names
        assert "point 0" in names
        validate_chrome_trace(obs.tracer.to_dict())

    def test_executor_sweep_records_chunks_and_utilisation(self):
        obs = Observability.enabled(tracer=False)
        with SweepExecutor(n_workers=2) as executor:
            result = run_sweep(
                _square, [{"x": i} for i in range(8)], executor=executor, obs=obs
            )
        assert result.values == (0, 1, 4, 9, 16, 25, 36, 49)
        assert obs.metrics.value("sim.sweep.chunks") > 0
        assert 0.0 <= obs.metrics.value("sim.sweep.pool_utilisation") <= 1.0

    def test_sweep_results_identical_with_obs(self):
        plain = run_sweep(_square, [{"x": i} for i in range(4)])
        observed = run_sweep(
            _square, [{"x": i} for i in range(4)], obs=Observability.enabled()
        )
        assert observed.values == plain.values
        assert [p.params for p in observed] == [p.params for p in plain]


# --------------------------------------------------------------------------- #
# Study layer: envelope accounting and the CLI flags
# --------------------------------------------------------------------------- #
SMALL_FAULTS = dict(
    n_requests=60, fleet_size=2, mtbf_fractions=(0.5,), mttr_fractions=(0.05,),
    derates=(2.0,), headroom_extra=0,
)


class TestStudyObs:
    def test_envelope_metrics_only_when_enabled(self):
        with StudyRunner(seed=1) as runner:
            plain = runner.run("serving_faults", **SMALL_FAULTS)
        assert "metrics" not in plain.envelope

        obs = Observability.enabled()
        with StudyRunner(seed=1, obs=obs) as runner:
            observed = runner.run("serving_faults", **SMALL_FAULTS)
        assert observed.result == plain.result
        assert observed.text == plain.text
        metric_names = {m["name"] for m in observed.envelope["metrics"]["metrics"]}
        assert any(name.startswith("serve.runtime.") for name in metric_names)
        assert any(name.startswith("sim.sweep.") for name in metric_names)
        assert "study.runner.runs" in metric_names

    def test_runner_registry_accounts_runs(self):
        with StudyRunner(seed=0) as runner:
            report = runner.run("serving_faults", **SMALL_FAULTS)
            label = {"study": "serving_faults"}
            assert runner.registry.value("study.runner.runs", label) == 1
            assert runner.registry.value(
                "study.runner.wall_time_s", label
            ) == pytest.approx(report.envelope["wall_time_s"])
            assert (
                runner.registry.value("study.runner.cache_hits", label)
                == report.envelope["cache_hits"]
            )

    def test_cli_obs_artefacts(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.prom"
        profile = tmp_path / "p.json"
        code = cli_main([
            "run", "serving_faults",
            "--n-requests", "60", "--fleet-size", "2",
            "--mtbf-fractions", "0.5", "--mttr-fractions", "0.05",
            "--derates", "2.0", "--headroom-extra", "0",
            "--trace", str(trace), "--metrics", str(metrics),
            "--profile", str(profile),
        ])
        assert code == 0
        validate_chrome_trace(json.loads(trace.read_text()))
        assert "serve_runtime_arrivals_total" in metrics.read_text()
        summary = json.loads(profile.read_text())
        assert summary["events_processed"] > 0
        assert "ArrivalEvent" in summary["handlers"]
        out = capsys.readouterr()
        assert "Serving fault study" in out.out

    def test_cli_metrics_json_when_not_prom(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        code = cli_main([
            "run", "serving_faults",
            "--n-requests", "60", "--fleet-size", "2",
            "--mtbf-fractions", "0.5", "--mttr-fractions", "0.05",
            "--derates", "2.0", "--headroom-extra", "0",
            "--metrics", str(metrics),
        ])
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert any(m["name"].startswith("serve.") for m in payload["metrics"])
