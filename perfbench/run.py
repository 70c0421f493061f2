#!/usr/bin/env python3
"""Benchmark of the CrossLight reproduction: host time of its users' jobs.

Run from the repository root::

    python3 perfbench/run.py --workload serve_steady --seed 0 --seconds 10 --trace 0

Workloads (see ``manifest.json`` for why each was chosen and which layers
it stresses): ``paper_regen`` (``repro run --all``), ``serve_steady``,
``serve_faults_traced`` and ``serve_functional``.

``--trace 0`` measures the end-to-end metrics with no instrumentation:
``setup_s`` (median of ``--setup-runs`` set-ups, each but one in a fresh
interpreter), ``wall_s`` (median host seconds of one operation),
``requests_per_s`` (simulated arrivals per host second of ``wall_s``) and
``peak_rss_mb`` (this process).  ``--trace 1`` first runs the untraced
benchmark in a child process, then repeats the operations with spans around
every layer (``spans.py``) and reports the per-layer metrics, the trace
overhead, and a Chrome trace under ``.perfbench_out/``.

Host seconds are reported at a reference host speed.  A shared host's speed
drifts by tens of percent over minutes, which would swamp a change of the
program.  So each timed interval is bracketed by a fixed pure-Python
calibration loop (``HostClock``; ``paper_regen`` also between studies), and
its raw seconds are scaled by ``REFERENCE_LOOP_S`` over the loop's mean time
around it: a program twice as slow still reads twice as slow, a host twice as
slow does not.  The raw seconds are printed and kept in the result file.
BLAS runs on one thread, so the program, like the loop, uses one core.

Every operation's outputs are checked (``digests.json`` at the default seed,
request conservation on every seed); the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
MANIFEST = HERE / "manifest.json"
CHILD_TIMEOUT_S = 150
#: BLAS runs on one thread (set before numpy loads; set-up children inherit
#: it): on a small shared host a second BLAS thread times the scheduler, and
#: the one-thread calibration loop cannot follow it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
#: Time of ``calibration_loop_s``'s loop on the reference host: host times are
#: reported as seconds on a host that runs that loop in this long.
REFERENCE_LOOP_S = 0.005


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the manifest's default seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure operations for about this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-runs", type=int, default=3,
                        help="set-ups whose median is setup_s (one in-process)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests as the reference")
    return parser.parse_args(argv)


# --------------------------------------------------------------------------- #
# Environment envelope
# --------------------------------------------------------------------------- #
def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over every Python source under ``src/`` (identifies the code)."""
    from workloads import sha256

    files = sorted(SRC.rglob("*.py"))
    return sha256(*(f"{path.relative_to(SRC)}\0".encode() + path.read_bytes() for path in files))


def envelope(args, seed: int, loop_before_s: float) -> dict:
    import numpy as np
    from repro.nn.backend import active_backend, resolve_precision

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "backend": active_backend().name,
        "precision": resolve_precision(None).name,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "host_calibration_s": {
            "reference": REFERENCE_LOOP_S, "before": loop_before_s, "after": calibration_loop_s(),
        },
    }


def calibration_loop_s() -> float:
    """Median time of a fixed pure-Python loop: how fast this host runs just now.

    It runs outside every timed interval; its time turns raw host seconds
    into reference-host seconds (see the module docstring).
    """
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class HostClock:
    """Host seconds of an interval, raw and at the reference host speed.

    ``checkpoint()`` ends a segment: it runs the calibration loop (untimed)
    and scales the segment's raw seconds by ``REFERENCE_LOOP_S`` over the
    mean loop time at the segment's two ends.  The clock starts on creation.
    """

    def __init__(self) -> None:
        self.raw_s = self.reference_s = 0.0
        self._loop_s = calibration_loop_s()
        self._t0 = time.perf_counter()

    def checkpoint(self) -> None:
        raw = time.perf_counter() - self._t0
        loop_s = calibration_loop_s()
        self.raw_s += raw
        self.reference_s += raw * REFERENCE_LOOP_S / statistics.fmean((self._loop_s, loop_s))
        self._loop_s = loop_s
        self._t0 = time.perf_counter()


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #
def timed_setup(workload, seed: int) -> tuple[float, float]:
    """Set the workload up; returns (reference-host seconds, raw seconds)."""
    clock = HostClock()
    workload.setup(seed)
    clock.checkpoint()
    return clock.reference_s, clock.raw_s


def child(args, seed: int, *extra: str) -> dict:
    """Run this script in a fresh interpreter; returns its last-line JSON."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(seed), "--seconds", str(args.seconds), *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(extra)} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------- #
# Operations
# --------------------------------------------------------------------------- #
def run_ops(workload, seconds: float, stored: dict, span, op_span=nullcontext, on_outputs=None):
    """Run operations for about ``seconds``; check each outside the timing.

    Returns ``(walls, raw_walls, requests, attempted, failed, problems)``,
    ``walls`` in reference-host seconds.  The host clock takes a checkpoint
    after every ``span`` the op opens (each study of ``paper_regen``), so a
    long op follows the host's speed.  An operation that would end past the
    budget (judged by the median so far) is not started, so the run lasts
    about ``seconds`` but at least one op.
    """
    walls, raw_walls, requests, problems = [], [], [], []
    attempted = failed = 0
    clock = None

    @contextmanager
    def checkpointed(name: str):
        with span(name):
            yield
        clock.checkpoint()

    start = time.perf_counter()
    while True:
        outputs = None
        gc.collect()
        clock = HostClock()
        try:
            with op_span():
                outputs = workload.op(checkpointed)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            op_problems = [f"raised {type(exc).__name__}: {exc}"]
        clock.checkpoint()
        if outputs is not None:
            op_problems = workload.check(outputs, stored)
            requests.append(workload.requests(outputs))
            walls.append(clock.reference_s)
            raw_walls.append(clock.raw_s)
            if on_outputs is not None:
                on_outputs(outputs)
        attempted += workload.units
        # An op that raised failed every unit; otherwise one unit per problem.
        failed += workload.units if outputs is None else min(workload.units, len(op_problems))
        problems += [f"{workload.name}: {problem}" for problem in op_problems]
        getattr(workload, "cleanup", lambda: None)()
        del outputs
        elapsed = time.perf_counter() - start
        if not walls or elapsed + statistics.median(raw_walls) > seconds:
            break
    return walls, raw_walls, requests, attempted, failed, problems


def stored_digests(name: str) -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text()).get(name, {})
    return {}


def record_digests(workload, seed: int, outputs) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    entry = table.setdefault(workload.name, {})
    entry["seed"] = seed
    entry["digests"] = workload.digests(outputs)
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------- #
# Traced run: per-layer metrics
# --------------------------------------------------------------------------- #
def per_layer_names(studies) -> list[str]:
    from spans import EVENT_KINDS, KERNELS, SPAN_NAMES

    names = []
    for study in studies:
        names += [f"study.{study}.wall_s", f"study.{study}.peak_rss_mb"]
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.s", f"{span}.self_s"]
        if span in KERNELS.values():
            names.append(f"{span}.bytes")
    names += ["sim.sweep.points", "cache.hits", "cache.misses", "cache.hit_ratio"]
    for kind in EVENT_KINDS:
        names += [f"serve.handler.{kind}.calls", f"serve.handler.{kind}.s"]
    for op in ("push", "pop"):
        names += [f"serve.queue.{op}.calls", f"serve.queue.{op}.s"]
    names += [
        f"serve.{count}" for count in (
            "events", "events_per_s", "batches", "mean_batch_size",
            "retries", "lost_batches", "shed", "useful_ratio",
        )
    ]
    names += [
        "obs.trace.events", "obs.trace.bytes",
        "bench.untraced_wall_s", "bench.traced_wall_s",
        "bench.trace_overhead_ratio", "bench.top_span_coverage",
    ]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("ratio", "coverage", "mean_batch_size")):
        return "ratio"
    return "count"


def traced_metrics(workload, seconds: float, stored: dict, untraced_wall_s: float):
    from repro.obs import LoopProfiler
    from repro.study.registry import experiment_names
    from repro.utils.cache import global_cache_stats
    from spans import Instrumentation, RssSampler, SpanRecorder
    from workloads import OUT_DIR

    recorder = SpanRecorder()
    profiler = LoopProfiler()
    workload.profiler = profiler
    study_peaks: dict[str, float] = {}
    sampler = RssSampler().start()

    @contextmanager
    def study_span(name: str):
        sampler.reset()
        with recorder.span(name):
            yield
        study_peaks[name] = max(study_peaks.get(name, 0.0), sampler.peak_mb())

    cache_before = global_cache_stats()
    instrumentation = Instrumentation(recorder)
    try:
        walls, raw_walls, _, attempted, failed, problems = run_ops(
            workload, seconds, stored, study_span, lambda: recorder.span("bench.op")
        )
    finally:
        instrumentation.close()
        sampler.stop()
    cache_after = global_cache_stats()
    n_ops = max(len(walls), 1)

    metrics = dict.fromkeys(per_layer_names(experiment_names()), 0.0)
    for name, entry in recorder.summarise().items():
        if name.startswith("study."):
            metrics[f"{name}.wall_s"] = entry["s"] / n_ops
            metrics[f"{name}.peak_rss_mb"] = study_peaks[name]
        elif name != "bench.op":
            for field in ("calls", "s", "self_s", "bytes"):
                key = f"{name}.{field}"
                if key in metrics:
                    metrics[key] = entry[field] / n_ops
    metrics["sim.sweep.points"] = instrumentation.sweep_points / n_ops

    hits = sum(info.hits - getattr(cache_before.get(fn), "hits", 0)
               for fn, info in cache_after.items())
    misses = sum(info.misses - getattr(cache_before.get(fn), "misses", 0)
                 for fn, info in cache_after.items())
    metrics["cache.hits"] = hits / n_ops
    metrics["cache.misses"] = misses / n_ops
    metrics["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    profile = profiler.summary()
    for kind, stats in profile["handlers"].items():
        kind = kind.removesuffix("Event")
        metrics[f"serve.handler.{kind}.calls"] = stats["count"] / n_ops
        metrics[f"serve.handler.{kind}.s"] = stats["total_s"] / n_ops
    for op, stats in profile["queue_ops"].items():
        metrics[f"serve.queue.{op}.calls"] = stats["count"] / n_ops
        metrics[f"serve.queue.{op}.s"] = stats["total_s"] / n_ops

    totals = instrumentation.serve_totals
    if totals["batches"]:
        metrics.update({
            "serve.events": totals["events"] / n_ops,
            "serve.events_per_s": totals["events"] / totals["loop_s"],
            "serve.batches": totals["batches"] / n_ops,
            "serve.mean_batch_size": totals["batched_requests"] / totals["batches"],
            "serve.retries": totals["retries"] / n_ops,
            "serve.lost_batches": totals["lost_batches"] / n_ops,
            "serve.shed": totals["shed"] / n_ops,
            "serve.useful_ratio": totals["completed"] / (totals["completed"] + totals["retries"]),
        })
    metrics["obs.trace.events"] = getattr(workload, "trace_events", 0)
    metrics["obs.trace.bytes"] = getattr(workload, "trace_bytes", 0)

    traced_wall = statistics.median(walls) if walls else 0.0
    op_s, top_s = recorder.children_s("bench.op")
    metrics["bench.untraced_wall_s"] = untraced_wall_s
    metrics["bench.traced_wall_s"] = traced_wall
    metrics["bench.trace_overhead_ratio"] = traced_wall / untraced_wall_s
    # Span times are raw seconds; scale them by the run's mean host-speed factor.
    metrics["bench.top_span_coverage"] = (
        top_s / n_ops * sum(walls) / max(sum(raw_walls), 1e-12) / untraced_wall_s
    )

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"{workload.name}.spans.json"
    recorder.write_chrome_trace(trace_path, f"perfbench {workload.name}")
    print(f"span trace: {trace_path} ({len(recorder.records)} spans, "
          f"{op_s / n_ops:.3f} s per traced op)")
    return metrics, walls, raw_walls, attempted, failed, problems


# --------------------------------------------------------------------------- #
# Main
# --------------------------------------------------------------------------- #
def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    manifest = json.loads(MANIFEST.read_text())
    seed = manifest["default_seed"] if args.seed is None else args.seed
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    stored = stored_digests(workload.name)

    if args.setup_only:
        print(json.dumps(dict(zip(("setup_s", "raw_s"), timed_setup(workload, seed)))))
        return 0

    loop_before_s = calibration_loop_s()
    if args.trace:
        untraced = child(args, seed, "--trace", "0", "--setup-runs", "1")
        setups = [timed_setup(workload, seed)]
        metrics, walls, raw_walls, attempted, failed, problems = traced_metrics(
            workload, args.seconds, stored, untraced["metrics"]["wall_s"]["value"]
        )
        attempted += untraced["attempted"]
        failed += untraced["failed"]
    else:
        setups = [
            tuple(child(args, seed, "--setup-only")[key] for key in ("setup_s", "raw_s"))
            for _ in range(max(args.setup_runs - 1, 0))
        ]
        setups.append(timed_setup(workload, seed))
        walls, raw_walls, requests, attempted, failed, problems = run_ops(
            workload, args.seconds, stored, lambda name: nullcontext(),
            on_outputs=(lambda out: record_digests(workload, seed, out))
            if args.record_digests else None,
        )
        wall_s = statistics.median(walls) if walls else 0.0
        metrics = {
            "setup_s": statistics.median(setup for setup, _ in setups),
            "wall_s": wall_s,
            "requests_per_s": statistics.median(requests) / wall_s if walls else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    units = {name: unit_of(name) for name in metrics}
    env = envelope(args, seed, loop_before_s)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"perfbench {workload.name} seed={seed} trace={args.trace}: "
          f"failed {failed}/{attempted} ({failed / attempted:.3f}), "
          f"setup runs {', '.join(f'{s:.3f}' for s, _ in setups)} s "
          f"(raw {', '.join(f'{raw:.3f}' for _, raw in setups)} s)")
    if raw_walls:
        print(f"  operations: {len(raw_walls)}, raw wall median "
              f"{statistics.median(raw_walls):.6g} s (reference-host seconds below)")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    print("envelope " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    from workloads import OUT_DIR

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps({"envelope": env, "problems": problems,
                    "setup_runs_s": [setup for setup, _ in setups],
                    "setup_runs_raw_s": [raw for _, raw in setups],
                    "op_walls_s": walls, "op_walls_raw_s": raw_walls, **result}, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
