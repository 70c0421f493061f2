"""Shared execution harness for registered experiments.

The cross-cutting options every driver used to reimplement (or lack) live
here once: the master ``seed``, the ``n_workers`` process-pool width backed
by one warm :class:`repro.sim.sweep.SweepExecutor` reused across a whole
multi-study session, and the report envelope's wall-time and cache-hit
accounting.  Drivers receive them through a :class:`RunContext` and stay
pure ``(config, ctx) -> (result, text)`` functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import MetricsRegistry, cache_collector
from repro.sim.sweep import SweepExecutor
from repro.study.config import StudyConfig
from repro.study.report import StudyReport
from repro.study.registry import Experiment, experiment_names, get_experiment

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.obs import Observability

__all__ = ["RunContext", "StudyRunner", "run_experiment"]


@dataclass(frozen=True)
class RunContext:
    """Cross-cutting run options handed to every experiment runner.

    ``seed`` is consumed by experiments whose scenarios are stochastic at
    the run level (today: ``serving_study``); the paper-artefact drivers
    pin their own internal seeds so their output reproduces the paper
    exactly regardless of it.  The report envelope records the runner's
    seed either way.

    ``obs`` carries the session's :class:`~repro.obs.Observability` bundle
    (``None`` when disabled); experiments thread it into serving runs and
    sweeps.  Instrumentation never changes a result, so experiments may
    ignore it freely.
    """

    seed: int = 0
    n_workers: int | None = None
    executor: SweepExecutor | None = None
    obs: "Observability | None" = field(default=None, compare=False)


def _cache_delta(
    before: dict[str, tuple[int, int]], after: dict[str, tuple[int, int]]
) -> dict[str, dict[str, int]]:
    """Per-function memoization hits/misses attributable to one run."""
    delta: dict[str, dict[str, int]] = {}
    for name, (after_hits, after_misses) in after.items():
        prior_hits, prior_misses = before.get(name, (0, 0))
        hits = after_hits - prior_hits
        misses = after_misses - prior_misses
        if hits or misses:
            delta[name] = {"hits": hits, "misses": misses}
    return delta


class StudyRunner:
    """Runs registered experiments with shared cross-cutting options.

    One runner owns at most one :class:`SweepExecutor`: the first experiment
    that fans a sweep out pays pool start-up, every later experiment in the
    session reuses the warm workers.  The runner is a context manager;
    leaving the ``with`` block shuts the pool down.

    Example
    -------
    >>> with StudyRunner(n_workers=4) as runner:
    ...     for name in ("fig6", "serving_study"):
    ...         print(runner.run(name).to_text())
    """

    def __init__(
        self,
        seed: int = 0,
        n_workers: int | None = None,
        obs: "Observability | None" = None,
    ) -> None:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {seed!r}")
        if n_workers is not None:
            if isinstance(n_workers, bool) or not isinstance(n_workers, int):
                raise TypeError(f"n_workers must be an int or None, got {n_workers!r}")
            if n_workers < 0:
                raise ValueError(f"n_workers must be >= 0, got {n_workers}")
        self.seed = seed
        self.n_workers = n_workers
        self.obs = obs
        # The runner always owns a metrics registry -- the session's (when an
        # obs bundle with metrics is attached) or a private one -- so the
        # report envelope's wall-time and cache accounting has one source of
        # truth either way.
        if obs is not None and obs.metrics is not None:
            self.registry = obs.metrics
        else:
            self.registry = MetricsRegistry(collectors=(cache_collector,))
        self._executor: SweepExecutor | None = None

    @property
    def executor(self) -> SweepExecutor | None:
        """The session's warm sweep pool (lazily created; None when serial)."""
        if self.n_workers is None or self.n_workers <= 1:
            return None
        if self._executor is None:
            self._executor = SweepExecutor(n_workers=self.n_workers)
        return self._executor

    def context(self) -> RunContext:
        """The :class:`RunContext` experiments run under."""
        return RunContext(
            seed=self.seed,
            n_workers=self.n_workers,
            executor=self.executor,
            obs=self.obs,
        )

    def _cache_snapshot(self) -> dict[str, tuple[int, int]]:
        """Per-function ``(hits, misses)`` read from the metrics registry."""
        fields: dict[str, dict[str, float]] = {}
        for sample in self.registry.collect(prefix="cache."):
            fn = dict(sample.labels).get("fn", "")
            fields.setdefault(fn, {})[sample.name] = float(sample.value)
        return {
            fn: (int(values.get("cache.hits", 0)), int(values.get("cache.misses", 0)))
            for fn, values in fields.items()
        }

    def run(
        self,
        name: str | Experiment,
        config: StudyConfig | None = None,
        **overrides: Any,
    ) -> StudyReport:
        """Run one experiment and wrap its outcome in a :class:`StudyReport`.

        ``config`` takes a ready-made config object; keyword ``overrides``
        are the convenience path (``runner.run("fig5", epochs=2)``) and are
        validated through the experiment's config class.  Passing both is an
        error.
        """
        exp = name if isinstance(name, Experiment) else get_experiment(name)
        if config is not None and overrides:
            raise TypeError("pass either a config object or keyword overrides, not both")
        if config is None:
            config = exp.config_cls.from_dict(overrides)
        elif not isinstance(config, exp.config_cls):
            raise TypeError(
                f"experiment {exp.name!r} expects {exp.config_cls.__name__}, "
                f"got {type(config).__name__}"
            )

        tracer = self.obs.tracer if self.obs is not None else None
        trace_start_s = tracer.wall_now() if tracer is not None else 0.0
        cache_before = self._cache_snapshot()
        start = time.perf_counter()
        result, text = exp.run(config, self.context())
        wall_time_s = time.perf_counter() - start
        cache = _cache_delta(cache_before, self._cache_snapshot())
        cache_hits = sum(entry["hits"] for entry in cache.values())
        cache_misses = sum(entry["misses"] for entry in cache.values())

        labels = {"study": exp.name}
        self.registry.counter(
            "study.runner.runs", labels, help="completed runs of this study"
        ).inc()
        self.registry.gauge(
            "study.runner.wall_time_s", labels,
            help="wall time of the most recent run",
        ).set(wall_time_s)
        self.registry.counter(
            "study.runner.cache_hits", labels,
            help="memoization hits attributed to this study's runs",
        ).inc(cache_hits)
        self.registry.counter(
            "study.runner.cache_misses", labels,
            help="memoization misses attributed to this study's runs",
        ).inc(cache_misses)
        if tracer is not None:
            tracer.complete(
                trace_start_s, wall_time_s, exp.name,
                tracer.process("study.runner (wall)"), 0,
                args={"cache_hits": cache_hits, "cache_misses": cache_misses},
            )

        from repro import __version__

        envelope: dict[str, Any] = {
            "seed": self.seed,
            "n_workers": self.n_workers,
            "wall_time_s": wall_time_s,
            "cache": cache,
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "version": __version__,
        }
        if self.obs is not None and self.obs.metrics is not None:
            # The session registry snapshot rides along in the envelope, so
            # a saved StudyReport is a self-contained observability artefact.
            envelope["metrics"] = self.registry.to_dict()
        return StudyReport(
            experiment=exp.name,
            config=config.to_dict(),
            text=text,
            envelope=envelope,
            result=result,
        )

    def run_all(self, names: tuple[str, ...] | list[str] | None = None) -> list[StudyReport]:
        """Run every experiment (or the given subset), in artefact order."""
        return [self.run(name) for name in (names if names is not None else experiment_names())]

    def close(self) -> None:
        """Shut down the warm sweep pool, if one was created."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "StudyRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def run_experiment(
    name: str,
    config: StudyConfig | None = None,
    *,
    seed: int = 0,
    n_workers: int | None = None,
    **overrides: Any,
) -> StudyReport:
    """One-shot convenience over :class:`StudyRunner` for a single run."""
    with StudyRunner(seed=seed, n_workers=n_workers) as runner:
        return runner.run(name, config, **overrides)
