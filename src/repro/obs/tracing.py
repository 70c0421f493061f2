"""Execution tracing in Chrome trace-event JSON (Perfetto-openable).

A :class:`Tracer` collects *spans* (durations) and *instant events* into
the `Chrome trace-event format`_ -- the JSON timeline that
``chrome://tracing`` and https://ui.perfetto.dev open directly.  The
serving runtime maps **simulated** time onto the trace timebase (one trace
microsecond per simulated microsecond): each
:class:`~repro.serve.workers.AcceleratorWorker` becomes a trace "thread"
carrying its batch-execution, throttle, downtime, and drain spans; each
request becomes a nestable async span split into queue-wait and service
phases; faults, retries, and sheds land as instant events.  Wall-clock
sections (study runs, sweep chunks) go onto their own clearly-named
processes so the two timebases never share a track.

Not to be confused with :mod:`repro.sim.tracer`, which extracts *workload
structure* (dot-product shapes) from DNN models -- this module records
*execution timelines*.

Event phases used (the schema test pins exactly these):

* ``X`` -- complete span (``ts`` + ``dur``), e.g. one batch execution;
* ``B``/``E`` -- nested begin/end spans on one thread, e.g. a throttle
  episode; every ``B`` is closed by :meth:`Tracer.end` or, for spans still
  open at the horizon (a drained worker), by :meth:`Tracer.close_open`;
* ``b``/``e`` -- nestable async spans correlated by ``(cat, id)`` across
  threads, used for request lifetimes;
* ``i`` -- instant events (faults, sheds, retries);
* ``C`` -- counter series (queue depth over time);
* ``M`` -- metadata naming processes and threads.

Storage.  Every event is one flat row ``(ts_us, seq, phase, name, pid,
tid, extra, args)``: ``seq`` is its emission index, ``extra`` its
phase-specific field (an ``X`` span's ``dur``, a ``b``/``e`` event's
``(cat, id)``), ``args`` its argument dict or ``None``.  Event dicts exist
only when :meth:`Tracer.to_dict` is read.

Derived request spans.  The serving runtime does not emit its requests'
queue/service spans one by one.  At each batch completion it reserves
their emission slots (:meth:`Tracer.reserve`); after the run it fills them
from the report's request columns in one call
(:meth:`Tracer.request_spans`).  A reserved slot orders exactly as an
event emitted at reservation time would, so the export is unchanged.

Export order.  Metadata leads, in emission order; events follow sorted by
``(ts, seq)`` -- ``ts`` is monotonic within the payload, and ties keep
emission order.  :meth:`Tracer.to_dict`, :meth:`Tracer.to_json` and
:meth:`Tracer.write` read this one ordered row source; the latter two
share one encoder whose text equals ``json.dumps(tracer.to_dict())``
byte for byte, and :meth:`Tracer.write` streams it to the file in chunks.

.. _Chrome trace-event format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable, Iterator
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Any

import numpy as np

__all__ = ["Tracer"]

#: Trace-timebase microseconds per second.
_US = 1e6

#: :mod:`json`'s spellings of the floats ``float.__repr__`` writes as
#: ``nan``/``inf``/``-inf``.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: Events per chunk of the streamed export.
_CHUNK_EVENTS = 4096

def _json_float(value: float) -> str:
    """``value`` exactly as :func:`json.dumps` writes a float."""
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


def _event_dict(row: tuple) -> dict[str, Any]:
    """The Chrome trace event of one stored row."""
    ts, _, phase, name, pid, tid, extra, args = row
    if phase == "M":
        event = {"name": name, "ph": phase, "pid": pid, "tid": tid}
    elif phase == "b" or phase == "e":
        cat, correlation_id = extra
        event = {
            "name": name, "cat": cat, "ph": phase, "id": correlation_id,
            "ts": ts, "pid": pid, "tid": tid,
        }
    else:
        event = {"name": name, "ph": phase, "ts": ts}
        if phase == "X":
            event["dur"] = extra
        event["pid"] = pid
        event["tid"] = tid
        if phase == "i":
            event["s"] = "t"
    if args is not None:
        event["args"] = args
    return event


def _json_floats(values: np.ndarray) -> list[str]:
    """:func:`_json_float` of each of ``values``, formatting each run of
    bit-identical neighbours once (sorted timestamps repeat a lot)."""
    if not values.size:
        return []
    starts = np.empty(values.size, dtype=bool)
    starts[0] = True
    bits = values.view(np.int64)
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    texts = np.array([_json_float(value) for value in values[starts].tolist()], dtype=object)
    return texts[np.cumsum(starts) - 1].tolist()


def _encode(rows: Iterable[tuple], ts_texts: Iterable[str]) -> Iterator[str]:
    """Each event row as ``json.dumps(_event_dict(row))`` writes it.

    ``ts_texts`` holds the rows' timestamps already formatted.  The JSON
    text up to the first variable field is built once per ``(phase,
    name)`` (``(phase, name, cat)`` for async events).  Only ``args`` dicts
    reach :func:`json.dumps` -- except a counter's single plain-``int``
    sample, which has its own template.
    """
    dumps = json.dumps
    heads: dict[tuple, str] = {}
    for (_, _, phase, name, pid, tid, extra, args), ts in zip(rows, ts_texts):
        if phase == "b" or phase == "e":
            cat, correlation_id = extra
            head = heads.get((phase, name, cat))
            if head is None:
                head = heads[phase, name, cat] = (
                    f'{{"name": {dumps(name)}, "cat": {dumps(cat)}, '
                    f'"ph": "{phase}", "id": '
                )
            if type(correlation_id) is not int:
                correlation_id = dumps(correlation_id)
            if args is None:
                yield f'{head}{correlation_id}, "ts": {ts}, "pid": {pid}, "tid": {tid}}}'
                continue
            text = f'{head}{correlation_id}, "ts": {ts}, "pid": {pid}, "tid": {tid}'
        else:
            head = heads.get((phase, name))
            if head is None:
                head = heads[phase, name] = f'{{"name": {dumps(name)}, "ph": "{phase}", "ts": '
            if phase == "C" and len(args) == 1:
                ((key, value),) = args.items()
                if type(value) is int and type(key) is str:
                    template = heads.get(("C", name, key))
                    if template is None:
                        template = heads["C", name, key] = f', "args": {{{dumps(key)}: '
                    yield f'{head}{ts}, "pid": {pid}, "tid": {tid}{template}{value}}}}}'
                    continue
            if phase == "X":
                text = f'{head}{ts}, "dur": {_json_float(extra)}, "pid": {pid}, "tid": {tid}'
            elif phase == "i":
                text = f'{head}{ts}, "pid": {pid}, "tid": {tid}, "s": "t"'
            else:
                text = f'{head}{ts}, "pid": {pid}, "tid": {tid}'
            if args is None:
                yield text + "}"
                continue
        yield f'{text}, "args": {dumps(args)}}}'


class Tracer:
    """Collects Chrome trace events; export with :meth:`to_json`/:meth:`write`.

    One tracer may span several runs/scenarios: :meth:`new_process`
    allocates a fresh ``pid`` (a separate named track group), so a whole
    study session -- every serving scenario plus the wall-clock sweep
    timeline -- lands in one trace file without id collisions.

    All ``*_s`` timestamps are seconds in the caller's timebase (simulated
    or wall); they are scaled to trace microseconds on entry.  Export sorts
    by timestamp (metadata first), so events may be emitted out of order --
    the serving runtime emits a batch's span at *completion* time, when its
    true extent is known.  ``pid``/``tid`` are ints.
    """

    def __init__(self) -> None:
        self._rows: list[tuple] = []
        self._meta: list[tuple] = []
        self._seq = 0
        self._next_pid = 1
        self._pids: dict[str, int] = {}
        self._wall_epoch: float | None = None
        # Open B spans per (pid, tid), so unclosed spans (a drained worker's
        # downtime) can be terminated at the horizon with matching E events.
        self._open: dict[tuple[int, int], list[str]] = {}

    def __len__(self) -> int:
        return len(self._rows) + len(self._meta)

    # ------------------------------------------------------------------ #
    # Track management
    # ------------------------------------------------------------------ #
    def new_process(self, name: str) -> int:
        """Allocate a fresh ``pid`` and name its track group."""
        pid = self._next_pid
        self._next_pid += 1
        self._meta.append((None, None, "M", "process_name", pid, 0, None, {"name": name}))
        return pid

    def process(self, name: str) -> int:
        """The pid named ``name``, allocating it on first use.

        Unlike :meth:`new_process` (always fresh), this memoizes by name, so
        repeated callers -- every sweep of a session reporting onto the
        ``"sim.sweep (wall)"`` track, say -- share one track group.
        """
        pid = self._pids.get(name)
        if pid is None:
            pid = self._pids[name] = self.new_process(name)
        return pid

    def wall_now(self) -> float:
        """Seconds since this tracer's wall epoch (first call defines 0).

        Wall-clock sections (study runs, sweep chunks) use this as their
        timebase so spans from different callers line up on one timeline.
        Keep wall tracks on their own processes, named ``"... (wall)"`` --
        they must never share a track with simulated-time spans.
        """
        now = time.perf_counter()
        if self._wall_epoch is None:
            self._wall_epoch = now
        return now - self._wall_epoch

    def thread_name(self, pid: int, tid: int, name: str) -> None:
        """Name one thread track within a process."""
        self._meta.append((None, None, "M", "thread_name", pid, tid, None, {"name": name}))

    # ------------------------------------------------------------------ #
    # Event emission
    # ------------------------------------------------------------------ #
    def _emit(self, ts_s, phase, name, pid, tid, extra=None, args=None) -> None:
        seq = self._seq
        self._seq = seq + 1
        self._rows.append((ts_s * _US, seq, phase, name, pid, tid, extra, args))

    def reserve(self, n: int) -> int:
        """Reserve the next ``n`` emission slots and return the first.

        A reserved slot orders against equal timestamps exactly as an event
        emitted now would.  :meth:`request_spans` fills slots later, once
        the events' content is known.
        """
        seq = self._seq
        self._seq = seq + n
        return seq

    def complete(
        self,
        ts_s: float,
        dur_s: float,
        name: str,
        pid: int,
        tid: int,
        args: dict[str, Any] | None = None,
    ) -> None:
        """One ``X`` span: a duration whose extent is known at emission."""
        self._emit(ts_s, "X", name, pid, tid, max(0.0, dur_s) * _US, args or None)

    def begin(
        self, ts_s: float, name: str, pid: int, tid: int,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Open a nested ``B`` span on ``(pid, tid)``."""
        self._emit(ts_s, "B", name, pid, tid, None, args or None)
        self._open.setdefault((pid, tid), []).append(name)

    def end(self, ts_s: float, pid: int, tid: int) -> None:
        """Close the innermost open ``B`` span on ``(pid, tid)``."""
        stack = self._open.get((pid, tid))
        if not stack:
            raise RuntimeError(f"no open span to end on pid={pid} tid={tid}")
        self._emit(ts_s, "E", stack.pop(), pid, tid)

    def close_open(self, ts_s: float) -> int:
        """Close every still-open ``B`` span at ``ts_s`` (horizon cleanup).

        Returns the number of spans closed.  Keeps the B/E invariant the
        schema test asserts even for states that never end inside the run
        (a drained worker's downtime, a throttle crossing the horizon).
        """
        closed = 0
        for (pid, tid), stack in sorted(self._open.items()):
            while stack:
                self.end(ts_s, pid, tid)
                closed += 1
        return closed

    def instant(
        self,
        ts_s: float,
        name: str,
        pid: int,
        tid: int,
        args: dict[str, Any] | None = None,
    ) -> None:
        """A thread-scoped ``i`` instant event (faults, sheds, retries)."""
        self._emit(ts_s, "i", name, pid, tid, None, args or None)

    def counter(
        self, ts_s: float, name: str, pid: int, tid: int, values: dict[str, float]
    ) -> None:
        """A ``C`` counter sample (rendered as an area chart over time)."""
        self._emit(ts_s, "C", name, pid, tid, None, dict(values))

    def async_begin(
        self,
        ts_s: float,
        name: str,
        cat: str,
        correlation_id: int,
        pid: int,
        tid: int = 0,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Open a nestable async ``b`` span correlated by ``(cat, id)``."""
        self._emit(ts_s, "b", name, pid, tid, (cat, correlation_id), args or None)

    def async_end(
        self,
        ts_s: float,
        name: str,
        cat: str,
        correlation_id: int,
        pid: int,
        tid: int = 0,
    ) -> None:
        """Close the matching async ``e`` span."""
        self._emit(ts_s, "e", name, pid, tid, (cat, correlation_id))

    def async_span(
        self,
        start_s: float,
        end_s: float,
        name: str,
        cat: str,
        correlation_id: int,
        pid: int,
        tid: int = 0,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Emit a ``b``/``e`` pair for an extent known at emission time."""
        self.async_begin(start_s, name, cat, correlation_id, pid, tid, args)
        self.async_end(end_s, name, cat, correlation_id, pid, tid)

    def request_spans(
        self, seq, request_id, arrival_s, dispatch_s, completion_s, worker_id, pid: int
    ) -> None:
        """Completed requests' queue-wait and service spans, from columns.

        Every argument but ``pid`` holds one entry per request.  Request
        ``j`` fills the four slots from ``seq[j]`` (see :meth:`reserve`)
        with what :meth:`async_span` would emit for its ``"queue"`` phase
        on the runtime thread (tid 0), then for its ``"service"`` phase on
        its worker's thread (tid ``worker_id + 1``), both in category
        ``"request"`` with id ``request_id``.
        """
        ids = [("request", rid) for rid in np.asarray(request_id).tolist()]
        tid = np.asarray(worker_id) + 1
        # One row per (request, event), request-major: columns of 4 * n.
        self._rows += zip(
            (np.column_stack((arrival_s, dispatch_s, dispatch_s, completion_s)) * _US)
            .ravel().tolist(),
            (np.asarray(seq)[:, None] + np.arange(4)).ravel().tolist(),
            ["b", "e", "b", "e"] * len(ids),
            ["queue", "queue", "service", "service"] * len(ids),
            repeat(pid),
            np.column_stack((np.zeros_like(tid), np.zeros_like(tid), tid, tid)).ravel().tolist(),
            chain.from_iterable(zip(ids, ids, ids, ids)),
            repeat(None),
        )

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def _ordered(self) -> tuple[list[tuple], np.ndarray]:
        """The event rows in export order -- by ``(ts, seq)`` -- and their ``ts``.

        The one row source of every export; metadata rows lead them.
        """
        rows = self._rows
        ts = np.fromiter(map(itemgetter(0), rows), np.float64, len(rows))
        seq = np.fromiter(map(itemgetter(1), rows), np.int64, len(rows))
        order = np.lexsort((seq, ts))
        return list(map(rows.__getitem__, order.tolist())), ts[order]

    def _chunks(self) -> Iterator[str]:
        """The trace JSON in pieces (whole events, :data:`_CHUNK_EVENTS` a piece)."""
        rows, ts = self._ordered()
        events = chain(
            (json.dumps(_event_dict(row)) for row in self._meta),
            _encode(rows, _json_floats(ts)),
        )
        yield '{"traceEvents": ['
        separator = ""
        while block := list(islice(events, _CHUNK_EVENTS)):
            yield separator + ", ".join(block)
            separator = ", "
        yield '], "displayTimeUnit": "ms"}'

    def to_dict(self) -> dict[str, Any]:
        """The trace as a JSON-object-format Chrome trace.

        Metadata events lead; real events follow sorted by ``(ts, emission
        order)``, so ``ts`` is monotonic within the payload -- the property
        the schema test asserts and some viewers silently rely on.
        """
        rows, _ = self._ordered()
        return {
            "traceEvents": [_event_dict(row) for row in self._meta + rows],
            "displayTimeUnit": "ms",
        }

    def to_json(self) -> str:
        """The trace as compact JSON: exactly ``json.dumps(self.to_dict())``."""
        return "".join(self._chunks())

    def write(self, path) -> None:
        """Write the trace JSON plus a newline to ``path`` (open it in Perfetto)."""
        with open(path, "w") as handle:
            handle.writelines(self._chunks())
            handle.write("\n")
