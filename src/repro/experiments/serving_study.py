"""Experiment E-SERVE: request-level serving study over simulated fleets.

The paper evaluates accelerators on isolated inferences; this study
evaluates them the way a datacenter does -- under *traffic*.  Requests
arrive over simulated time, a dynamic micro-batcher trades queueing delay
for batch efficiency, and a fleet of simulated accelerators serves the
stream (:mod:`repro.serve`).  Three questions are answered, CrossLight
(Cross_opt_TED) versus the DEAP-CNN and HolyLight photonic baselines:

* **batching frontier** -- at a fixed arrival rate, sweeping the maximum
  micro-batch size trades tail latency for service capacity: larger
  batches amortize weight programming and unit-array rounding, raising
  the sustainable throughput monotonically, while requests wait longer
  for their batch to fill, raising p50/p95/p99 latency monotonically;
* **energy at equal load** -- at one absolute arrival rate every design
  can sustain, CrossLight's lower power and faster cycles dominate the
  baselines on energy per request;
* **saturation** -- probing increasing arrival rates with a cut-off
  horizon finds each accelerator's maximum sustainable rate: the backlog
  stays bounded below it and diverges linearly above it, deterministically
  under a fixed seed.

All sweeps fan out through :func:`repro.sim.sweep.run_sweep`, so
``n_workers > 1`` parallelises the study across processes with identical
results.  The fleets here are fault-free; the companion study
:mod:`repro.experiments.serving_faults` stresses the same runtime with
seeded crashes, thermal throttling, and drains.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.arch.accelerator import CrossLightAccelerator
from repro.baselines.deap_cnn import DeapCnnAccelerator
from repro.baselines.holylight import HolyLightAccelerator
from repro.nn.zoo import build_model
from repro.serve import BatchPolicy, PoissonTraffic, serve_trace
from repro.sim.results import format_table
from repro.sim.sweep import SweepExecutor, grid, run_sweep
from repro.sim.tracer import trace_model
from repro.study import RunContext, StudyConfig, experiment

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.obs import Observability

#: Accelerators compared by the study, in report order.
ACCELERATOR_BUILDERS = {
    "Cross_opt_TED": lambda: CrossLightAccelerator.from_variant("cross_opt_ted"),
    "DEAP_CNN": DeapCnnAccelerator,
    "Holylight": HolyLightAccelerator,
}

#: Fraction of backlogged arrivals above which a cut-off run counts as
#: saturated (above capacity the backlog grows linearly with the horizon,
#: far beyond this; below it only the final partial batches linger).
SATURATION_BACKLOG_FRACTION = 0.05


def build_accelerator(name: str):
    """Instantiate one of the study's accelerators by report name."""
    if name not in ACCELERATOR_BUILDERS:
        raise ValueError(
            f"unknown accelerator {name!r}; expected one of "
            f"{sorted(ACCELERATOR_BUILDERS)}"
        )
    return ACCELERATOR_BUILDERS[name]()


def fleet_capacity_rps(
    accelerator_name: str,
    max_batch: int,
    fleet_size: int = 1,
    model_index: int = 1,
) -> float:
    """Analytic service capacity: full batches back to back on every worker."""
    accelerator = build_accelerator(accelerator_name)
    workloads = trace_model(build_model(model_index))
    return (
        fleet_size * max_batch / accelerator.batch_latency_s(workloads, max_batch)
    )


@dataclass(frozen=True)
class ServingPoint:
    """One serving run of the study: its scenario and its SLO metrics."""

    accelerator: str
    max_batch: int
    fleet_size: int
    rate_rps: float
    n_arrivals: int
    throughput_rps: float
    service_throughput_rps: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    energy_per_request_j: float
    utilisation: float
    shed_rate: float
    mean_batch_size: float
    backlog_end: int

    @property
    def stable(self) -> bool:
        """Whether the run kept its backlog bounded (saturation criterion)."""
        return self.backlog_end <= SATURATION_BACKLOG_FRACTION * max(self.n_arrivals, 1)


def evaluate_policy(
    accelerator_name: str,
    max_batch: int,
    rate_rps: float,
    max_wait_s: float,
    fleet_size: int = 1,
    model_index: int = 1,
    n_requests: int = 1500,
    seed: int = 0,
    drain: bool = True,
    max_queue_depth: int | None = None,
    obs: "Observability | None" = None,
) -> ServingPoint:
    """Serve one Poisson scenario and reduce it to a :class:`ServingPoint`.

    Module-level and picklable, so every sweep of the study can fan it out
    through :func:`repro.sim.sweep.run_sweep` with ``n_workers > 1``.
    ``obs`` threads serving-level instrumentation through; it is only bound
    on serial sweeps (a pool worker would mutate an invisible pickled copy).
    """
    accelerator = build_accelerator(accelerator_name)
    model = build_model(model_index)
    duration_s = n_requests / rate_rps
    report = serve_trace(
        model,
        accelerator,
        PoissonTraffic(rate_rps=rate_rps, duration_s=duration_s),
        BatchPolicy(
            max_batch_size=max_batch,
            max_wait_s=max_wait_s,
            max_queue_depth=max_queue_depth,
        ),
        n_workers=fleet_size,
        seed=seed,
        drain=drain,
        obs=obs,
    )
    return ServingPoint(
        accelerator=accelerator_name,
        max_batch=max_batch,
        fleet_size=fleet_size,
        rate_rps=rate_rps,
        n_arrivals=report.n_arrivals,
        throughput_rps=report.throughput_rps,
        service_throughput_rps=report.service_throughput_rps,
        p50_latency_s=report.p50_latency_s,
        p95_latency_s=report.p95_latency_s,
        p99_latency_s=report.p99_latency_s,
        energy_per_request_j=report.energy_per_request_j,
        utilisation=report.utilisation,
        shed_rate=report.shed_rate,
        mean_batch_size=report.mean_batch_size,
        backlog_end=report.backlog_end,
    )


@dataclass(frozen=True)
class SaturationResult:
    """Saturation probe of one accelerator: rate grid and the stable edge."""

    accelerator: str
    max_batch: int
    fleet_size: int
    capacity_rps: float
    points: tuple[ServingPoint, ...]

    @property
    def max_sustainable_rps(self) -> float:
        """Largest probed arrival rate whose backlog stayed bounded."""
        stable = [point.rate_rps for point in self.points if point.stable]
        return max(stable) if stable else 0.0


@dataclass(frozen=True)
class ServingStudyResult:
    """Everything the serving study produced."""

    batch_sweep: tuple[ServingPoint, ...]
    equal_load: tuple[ServingPoint, ...]
    saturation: tuple[SaturationResult, ...]
    equal_load_rate_rps: float

    def batch_sweep_for(self, accelerator: str) -> tuple[ServingPoint, ...]:
        """Batch-sweep points of one accelerator, in max-batch order."""
        points = [p for p in self.batch_sweep if p.accelerator == accelerator]
        return tuple(sorted(points, key=lambda p: p.max_batch))

    def equal_load_for(self, accelerator: str) -> ServingPoint:
        """The equal-load point of one accelerator."""
        for point in self.equal_load:
            if point.accelerator == accelerator:
                return point
        raise KeyError(f"no equal-load point for {accelerator!r}")

    def saturation_for(self, accelerator: str) -> SaturationResult:
        """The saturation probe of one accelerator."""
        for result in self.saturation:
            if result.accelerator == accelerator:
                return result
        raise KeyError(f"no saturation result for {accelerator!r}")


def _instrumented(fn, n_workers, executor, obs):
    """Bind ``obs`` into a sweep's evaluation function when it runs serially.

    Pool workers mutate pickled registry copies the session never sees, so
    serving-level instrumentation is withheld from fanned-out sweeps; the
    sweep layer itself (:func:`repro.sim.sweep.run_sweep`) still records
    chunk timings and pool utilisation either way.
    """
    serial = executor is None and (n_workers is None or n_workers <= 1)
    if obs is not None and serial:
        return functools.partial(fn, obs=obs)
    return fn


def batch_size_sweep(
    accelerators=tuple(ACCELERATOR_BUILDERS),
    max_batches=(1, 2, 4, 8, 16),
    load_fraction: float = 0.2,
    fleet_size: int = 1,
    model_index: int = 1,
    n_requests: int = 1500,
    seed: int = 0,
    n_workers: int | None = None,
    executor: SweepExecutor | None = None,
    obs: "Observability | None" = None,
) -> tuple[ServingPoint, ...]:
    """Sweep the maximum micro-batch size at *fixed* traffic per accelerator.

    Each accelerator's arrival rate is ``load_fraction`` of its own
    single-frame (``max_batch=1``) capacity and stays fixed across the
    sweep, so the policy knob is the only thing changing: larger batches
    raise the achieved service throughput (weight programming and unit
    rounding amortize) and raise tail latency (requests wait for their
    batch to fill) -- both monotonically.  The max-wait deadline is sized
    to let the largest swept batch fill at the offered rate.
    """
    points = []
    for name in accelerators:
        rate = load_fraction * fleet_capacity_rps(name, 1, fleet_size, model_index)
        max_wait = 2.0 * max(max_batches) / rate
        points.extend(
            grid(
                accelerator_name=(name,),
                max_batch=max_batches,
                rate_rps=(rate,),
                max_wait_s=(max_wait,),
                fleet_size=(fleet_size,),
                model_index=(model_index,),
                n_requests=(n_requests,),
                seed=(seed,),
            )
        )
    return tuple(
        run_sweep(
            _instrumented(evaluate_policy, n_workers, executor, obs),
            points, n_workers=n_workers, executor=executor, obs=obs,
        ).values
    )


def equal_load_comparison(
    accelerators=tuple(ACCELERATOR_BUILDERS),
    max_batch: int = 8,
    load_fraction: float = 0.5,
    fleet_size: int = 1,
    model_index: int = 1,
    n_requests: int = 1500,
    seed: int = 0,
    n_workers: int | None = None,
    executor: SweepExecutor | None = None,
    obs: "Observability | None" = None,
) -> tuple[tuple[ServingPoint, ...], float]:
    """Serve one absolute arrival rate on every accelerator.

    The common rate is ``load_fraction`` of the *slowest* design's batched
    capacity, so every accelerator is stable and the energy-per-request
    comparison is apples to apples.  Returns the points and the rate.
    """
    rate = load_fraction * min(
        fleet_capacity_rps(name, max_batch, fleet_size, model_index)
        for name in accelerators
    )
    max_wait = 2.0 * max_batch / rate
    points = grid(
        accelerator_name=accelerators,
        max_batch=(max_batch,),
        rate_rps=(rate,),
        max_wait_s=(max_wait,),
        fleet_size=(fleet_size,),
        model_index=(model_index,),
        n_requests=(n_requests,),
        seed=(seed,),
    )
    result = run_sweep(
        _instrumented(evaluate_policy, n_workers, executor, obs),
        points, n_workers=n_workers, executor=executor, obs=obs,
    )
    return tuple(result.values), rate


def saturation_sweep(
    accelerators=tuple(ACCELERATOR_BUILDERS),
    fractions=(0.7, 0.85, 0.95, 1.1, 1.3),
    max_batch: int = 8,
    fleet_size: int = 1,
    model_index: int = 1,
    n_requests: int = 1200,
    seed: int = 0,
    n_workers: int | None = None,
    executor: SweepExecutor | None = None,
    obs: "Observability | None" = None,
) -> tuple[SaturationResult, ...]:
    """Probe each accelerator around its analytic capacity.

    Runs are cut at the traffic horizon (``drain=False``) with an
    unbounded queue: below capacity the end-of-run backlog is a few
    partial batches, above it the backlog grows linearly with the horizon.
    The largest stable probed rate is the measured maximum sustainable
    arrival rate.
    """
    results = []
    for name in accelerators:
        capacity = fleet_capacity_rps(name, max_batch, fleet_size, model_index)
        max_wait = 2.0 * max_batch / capacity
        points = [
            {
                "accelerator_name": name,
                "max_batch": max_batch,
                "rate_rps": fraction * capacity,
                "max_wait_s": max_wait,
                "fleet_size": fleet_size,
                "model_index": model_index,
                "n_requests": math.ceil(n_requests * fraction),
                "seed": seed,
                "drain": False,
            }
            for fraction in fractions
        ]
        sweep = run_sweep(
            _instrumented(evaluate_policy, n_workers, executor, obs),
            points, n_workers=n_workers, executor=executor, obs=obs,
        )
        results.append(
            SaturationResult(
                accelerator=name,
                max_batch=max_batch,
                fleet_size=fleet_size,
                capacity_rps=capacity,
                points=tuple(sweep.values),
            )
        )
    return tuple(results)


def run(
    max_batches=(1, 2, 4, 8, 16),
    fleet_size: int = 1,
    model_index: int = 1,
    n_requests: int = 1500,
    seed: int = 0,
    n_workers: int | None = None,
    executor: SweepExecutor | None = None,
    obs: "Observability | None" = None,
) -> ServingStudyResult:
    """Run the full serving study (batch sweep, equal load, saturation)."""
    batch_points = batch_size_sweep(
        max_batches=max_batches,
        fleet_size=fleet_size,
        model_index=model_index,
        n_requests=n_requests,
        seed=seed,
        n_workers=n_workers,
        executor=executor,
        obs=obs,
    )
    equal_points, equal_rate = equal_load_comparison(
        fleet_size=fleet_size,
        model_index=model_index,
        n_requests=n_requests,
        seed=seed,
        n_workers=n_workers,
        executor=executor,
        obs=obs,
    )
    saturation = saturation_sweep(
        fleet_size=fleet_size,
        model_index=model_index,
        n_requests=max(600, n_requests // 2),
        seed=seed,
        n_workers=n_workers,
        executor=executor,
        obs=obs,
    )
    return ServingStudyResult(
        batch_sweep=batch_points,
        equal_load=equal_points,
        saturation=saturation,
        equal_load_rate_rps=equal_rate,
    )


def _render(
    result: ServingStudyResult,
    fleet_size: int = 1,
    n_requests: int = 1500,
    seed: int = 0,
) -> str:
    """Render the serving study as text tables."""
    frontier_rows = [
        [
            p.accelerator,
            p.max_batch,
            f"{p.rate_rps:,.0f}",
            f"{p.service_throughput_rps:,.0f}",
            p.p50_latency_s * 1e6,
            p.p99_latency_s * 1e6,
            p.energy_per_request_j * 1e6,
            f"{p.mean_batch_size:.2f}",
        ]
        for name in ACCELERATOR_BUILDERS
        for p in result.batch_sweep_for(name)
    ]
    frontier = format_table(
        ["Accelerator", "Max batch", "Rate (rps)", "Capacity (rps)",
         "p50 (us)", "p99 (us)", "Energy/req (uJ)", "Mean batch"],
        frontier_rows,
        float_format="{:.1f}",
    )

    equal_rows = [
        [
            p.accelerator,
            f"{p.throughput_rps:,.0f}",
            p.p99_latency_s * 1e6,
            p.energy_per_request_j * 1e6,
            f"{p.utilisation:.1%}",
        ]
        for p in result.equal_load
    ]
    equal = format_table(
        ["Accelerator", "Throughput (rps)", "p99 (us)", "Energy/req (uJ)",
         "Utilisation"],
        equal_rows,
        float_format="{:.1f}",
    )

    saturation_rows = [
        [
            s.accelerator,
            f"{s.capacity_rps:,.0f}",
            f"{s.max_sustainable_rps:,.0f}",
            " ".join(
                f"{p.rate_rps / s.capacity_rps:.2f}:{p.backlog_end}"
                for p in s.points
            ),
        ]
        for s in result.saturation
    ]
    saturation = format_table(
        ["Accelerator", "Capacity (rps)", "Max sustainable (rps)",
         "load:backlog probes"],
        saturation_rows,
    )

    return (
        "Serving study - dynamic micro-batching over simulated fleets\n"
        f"(fleet={fleet_size}, ~{n_requests} requests/run, seed={seed})\n\n"
        "Batching frontier (fixed per-accelerator traffic, sweep max batch):\n"
        f"{frontier}\n\n"
        f"Equal absolute load ({result.equal_load_rate_rps:,.0f} rps, "
        "max batch 8):\n"
        f"{equal}\n\n"
        "Saturation probes (cut-off horizon, unbounded queue):\n"
        f"{saturation}\n"
    )


@dataclass(frozen=True)
class ServingStudyConfig(StudyConfig):
    """Run-config of the serving study."""

    n_requests: int = field(
        default=1500,
        metadata={"help": "target request count per serving run", "min": 1},
    )
    fleet_size: int = field(
        default=1, metadata={"help": "accelerator workers per fleet", "min": 1}
    )
    model_index: int = field(
        default=1,
        metadata={"help": "Table-I model served", "choices": (1, 2, 3, 4)},
    )
    max_batches: tuple[int, ...] = field(
        default=(1, 2, 4, 8, 16),
        metadata={"help": "maximum micro-batch sizes swept", "min": 1, "nonempty": True},
    )


@experiment(
    "serving_study",
    config=ServingStudyConfig,
    title="Serving study - dynamic micro-batching over simulated fleets",
    artefact="beyond the paper",
)
def _study(
    config: ServingStudyConfig, ctx: RunContext
) -> tuple[ServingStudyResult, str]:
    """Request-level serving study: batching frontier, equal load, saturation."""
    result = run(
        max_batches=config.max_batches,
        fleet_size=config.fleet_size,
        model_index=config.model_index,
        n_requests=config.n_requests,
        seed=ctx.seed,
        n_workers=ctx.n_workers,
        executor=ctx.executor,
        obs=ctx.obs,
    )
    text = _render(
        result,
        fleet_size=config.fleet_size,
        n_requests=config.n_requests,
        seed=ctx.seed,
    )
    return result, text
