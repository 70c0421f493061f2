"""The benchmark's workloads: set-up, one timed operation, and its checks.

Each workload is a class with

* ``setup(seed)`` -- the imports and the model/accelerator/dataset
  construction a user pays before any work (timed as ``setup_s``);
* ``op(span)`` -- one unit of timed work (timed as ``wall_s``); ``span`` is a
  context-manager factory, a no-op unless the run is traced;
* ``units`` -- how many operations one ``op`` counts as (studies for
  ``paper_regen``, one serving run otherwise), for ``attempted``/``failed``;
* ``requests(outputs)`` -- the op's requests: simulated arrivals served
  (serving) or studies regenerated (``paper_regen``);
* ``check(outputs, stored)`` -- a list of problems (empty when the outputs
  are right); ``stored`` is the workload's entry of ``digests.json``;
* ``profiler`` -- a ``LoopProfiler`` the traced run attaches (``None`` otherwise).

Outputs are checked against digests stored in ``digests.json`` for the
default seed.  On any other seed ``paper_regen`` still checks the digests of
the studies that ignore the seed, and the serving workloads check request
conservation and that repeated operations of one run agree.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench_out"

ACCELERATOR = "Cross_opt_TED"
FLEET = 4
MAX_BATCH = 8


def sha256(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else str(part).encode())
    return digest.hexdigest()


def report_digest(report) -> str:
    """sha256 of a ServingReport's summary, latencies and functional outputs."""
    outputs = b""
    if report.outputs is not None:
        outputs = json.dumps(sorted(report.outputs.items())).encode()
    return sha256(report.summary(), report.latencies_s.tobytes(), outputs)


def conservation_problem(report) -> str | None:
    """Request conservation: arrivals = completed + shed + failed + queued + in-flight."""
    accounted = (
        report.n_completed + report.n_shed + report.n_failed
        + report.n_queued_end + report.n_in_flight_end
    )
    if report.n_arrivals != accounted:
        return f"conservation broken: {report.n_arrivals} arrivals, {accounted} accounted"
    if report.n_completed == 0:
        return "no request completed"
    return None


def _arrivals(records) -> int:
    """Sum of every ``n_arrivals`` field in a study's records."""
    if isinstance(records, dict):
        return int(records.get("n_arrivals", 0)) + sum(map(_arrivals, records.values()))
    if isinstance(records, list):
        return sum(map(_arrivals, records))
    return 0


class PaperRegen:
    """All registered studies at default configs through one StudyRunner."""

    name = "paper_regen"

    def setup(self, seed: int) -> None:
        from repro.study.registry import all_experiments
        from repro.study.runner import StudyRunner

        self.seed = seed
        self.experiments = all_experiments()
        self.units = len(self.experiments)
        self.runner_cls = StudyRunner
        self.profiler = None

    def op(self, span):
        reports, errors = [], []
        obs = None
        if self.profiler is not None:
            from repro.obs import Observability

            obs = Observability(profiler=self.profiler)
        with self.runner_cls(seed=self.seed, obs=obs) as runner:
            for exp in self.experiments:
                with span(f"study.{exp.name}"):
                    try:
                        reports.append(runner.run(exp.name))
                    except Exception as exc:  # one study failing must not hide the rest
                        errors.append(f"{exp.name} raised {type(exc).__name__}: {exc}")
        return reports, errors

    @staticmethod
    def study_digest(report) -> str:
        return sha256(json.dumps(report.records, sort_keys=True), report.text)

    def digests(self, outputs) -> dict[str, str]:
        reports, _ = outputs
        return {report.experiment: self.study_digest(report) for report in reports}

    def requests(self, outputs) -> int:
        """Studies regenerated: this job's requests are the paper's artefacts."""
        return len(outputs[0])

    def check(self, outputs, stored: dict) -> list[str]:
        reports, errors = outputs
        problems = list(errors)
        digests = self.digests(outputs)
        seed_dependent = () if self.seed == stored.get("seed") else stored.get("seed_dependent", ())
        for exp in self.experiments:
            if exp.name not in digests:
                continue  # already reported as raised
            if exp.name not in seed_dependent:
                want = stored.get("digests", {}).get(exp.name)
                if digests[exp.name] != want:
                    problems.append(
                        f"{exp.name}: digest {digests[exp.name][:12]} != stored {str(want)[:12]}"
                    )
        for report in reports:
            if report.experiment in seed_dependent and _arrivals(report.records) <= 0:
                problems.append(f"{report.experiment}: no simulated arrivals")
        return problems


class _Serving:
    """Shared fleet set-up of the serving workloads."""

    units = 1
    model_compact = False
    load = 0.8
    n_requests: int

    def setup(self, seed: int) -> None:
        from repro.experiments.serving_study import build_accelerator, fleet_capacity_rps
        from repro.nn.zoo import build_model
        from repro.serve import BatchPolicy, serve_trace

        self.seed = seed
        self.accelerator = build_accelerator(ACCELERATOR)
        self.model = build_model(1, compact=self.model_compact)
        self.capacity_rps = fleet_capacity_rps(ACCELERATOR, MAX_BATCH, FLEET, 1)
        self.rate_rps = self.load * self.capacity_rps
        self.duration_s = self.n_requests / self.rate_rps
        self.policy = BatchPolicy(max_batch_size=MAX_BATCH, max_wait_s=800e-6)
        self.serve_trace = serve_trace
        self.profiler = None
        self._first_digest = None

    def traffic(self):
        from repro.serve import PoissonTraffic

        return PoissonTraffic(rate_rps=self.rate_rps, duration_s=self.duration_s)

    def serve_kwargs(self) -> dict:
        return {}

    def make_obs(self):
        if self.profiler is None:
            return None
        from repro.obs import Observability

        return Observability(profiler=self.profiler)

    def op(self, span):
        return self.serve_trace(
            self.model, self.accelerator, self.traffic(), self.policy,
            n_workers=FLEET, seed=self.seed, obs=self.make_obs(), **self.serve_kwargs(),
        )

    def digests(self, report) -> dict[str, str]:
        return {"report": report_digest(report)}

    def requests(self, report) -> int:
        return report.n_arrivals

    def check(self, report, stored: dict) -> list[str]:
        problems = []
        problem = conservation_problem(report)
        if problem:
            problems.append(problem)
        digest = report_digest(report)
        if self._first_digest is None:
            self._first_digest = digest
        elif digest != self._first_digest:
            problems.append("repeated operation with the same seed gave another report")
        want = stored.get("digests", {}).get("report")
        if self.seed == stored.get("seed") and digest != want:
            problems.append(f"report digest {digest[:12]} != stored {str(want)[:12]}")
        return problems


class ServeSteady(_Serving):
    """LeNet-5 on a 4-worker Cross_opt_TED fleet, Poisson at 0.8x capacity, obs off."""

    name = "serve_steady"
    n_requests = 100_000


class ServeFaultsTraced(_Serving):
    """Bursty MMPP traffic, crashes, throttles, shedding and retries, obs on."""

    name = "serve_faults_traced"
    load = 0.55
    n_requests = 25_000

    def setup(self, seed: int) -> None:
        super().setup(seed)
        from repro.serve import BatchPolicy, FaultModel, RetryPolicy

        window = self.duration_s
        self.policy = BatchPolicy(
            max_batch_size=MAX_BATCH, max_wait_s=800e-6, max_queue_depth=64
        )
        self.faults = FaultModel(
            crash_mtbf_s=window / 20, repair_mttr_s=window / 200,
            throttle_mtbf_s=window / 25, throttle_duration_s=window / 100,
            throttle_derate=2.0,
        )
        self.retry = RetryPolicy(max_attempts=3, backoff_s=20e-6)
        OUT_DIR.mkdir(exist_ok=True)
        self.trace_path = OUT_DIR / f"{self.name}.trace.json"
        self.metrics_path = OUT_DIR / f"{self.name}.metrics.json"

    def traffic(self):
        from repro.serve import BurstyTraffic

        # Mean rate = 0.75 * base + 0.25 * burst with burst = 3 * base.  Many
        # short dwells keep the arrival count (and trace size) steady across seeds.
        base = self.rate_rps / 1.5
        return BurstyTraffic(
            base_rate_rps=base, burst_rate_rps=3 * base, duration_s=self.duration_s,
            mean_base_dwell_s=self.duration_s / 200, mean_burst_dwell_s=self.duration_s / 600,
        )

    def serve_kwargs(self) -> dict:
        return {"faults": self.faults, "retry": self.retry}

    def make_obs(self):
        from repro.obs import MetricsRegistry, Observability, Tracer, cache_collector

        return Observability(
            metrics=MetricsRegistry(collectors=(cache_collector,)),
            tracer=Tracer(),
            profiler=self.profiler,
        )

    def op(self, span):
        obs = self.make_obs()
        report = self.serve_trace(
            self.model, self.accelerator, self.traffic(), self.policy,
            n_workers=FLEET, seed=self.seed, obs=obs, **self.serve_kwargs(),
        )
        obs.tracer.write(self.trace_path)
        obs.metrics.write(self.metrics_path)
        self.trace_events = len(obs.tracer)
        self.trace_bytes = self.trace_path.stat().st_size
        return report

    def check(self, report, stored: dict) -> list[str]:
        problems = super().check(report, stored)
        for path in (self.trace_path, self.metrics_path):
            try:
                json.loads(path.read_text())
            except (OSError, ValueError) as exc:
                problems.append(f"{path.name} unreadable: {exc}")
        if report.n_lost_batches == 0 or report.n_retries == 0 or report.n_shed == 0:
            problems.append(
                f"fault paths not exercised: {report.n_lost_batches} lost batches, "
                f"{report.n_retries} retries, {report.n_shed} shed"
            )
        return problems

    def cleanup(self) -> None:
        for path in (self.trace_path, self.metrics_path):
            path.unlink(missing_ok=True)


class ServeFunctional(_Serving):
    """Compact LeNet-5 answering Sign-MNIST inputs through 8-bit + drift noise."""

    name = "serve_functional"
    model_compact = True
    n_requests = 2_500

    def setup(self, seed: int) -> None:
        super().setup(seed)
        from repro.nn.datasets import sign_mnist_synthetic
        from repro.sim.noise import NoiseStack, QuantizationChannel, ResidualDriftChannel

        train_x, train_y, self.inputs, _ = sign_mnist_synthetic(
            n_train=300, n_test=120
        )
        self.model.fit(train_x, train_y, epochs=6, batch_size=32, seed=0)
        self.noise_stack = NoiseStack(
            [QuantizationChannel(bits=8), ResidualDriftChannel(residual_drift_nm=0.005)]
        )

    def serve_kwargs(self) -> dict:
        return {
            "inputs": self.inputs, "noise_stack": self.noise_stack, "activation_bits": 8,
        }

    def check(self, report, stored: dict) -> list[str]:
        problems = super().check(report, stored)
        answered = set(report.outputs or ())
        if any(record.request_id not in answered for record in report.requests):
            problems.append("a completed request has no functional output")
        return problems


WORKLOADS = {
    cls.name: cls for cls in (PaperRegen, ServeSteady, ServeFaultsTraced, ServeFunctional)
}
