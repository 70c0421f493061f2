"""Benchmark E-FAULTS: smoke-run the serving fault-injection study.

Regenerates the fault study at benchmark scale and asserts its headline
qualitative claims: injected crashes cost availability and inflate tail
latency while conservation holds, thermal throttling taxes latency and
energy without losing work, fleet headroom buys the tail back, and the
deterministic crash-mid-batch demo retries (or terminally fails) every
request of the lost batch.
"""

from __future__ import annotations

from repro.study import run_experiment


def test_serving_faults_smoke(benchmark):
    report = benchmark.pedantic(
        run_experiment,
        args=("serving_faults",),
        kwargs={
            "n_requests": 600,
            "mtbf_fractions": (0.25, 0.1),
            "mttr_fractions": (0.1,),
            "derates": (2.0, 4.0),
            "headroom_extra": 2,
        },
        rounds=1,
        iterations=1,
    )
    result = report.result
    print("\n" + report.to_text())

    # Fault-free baseline: full availability, goodput == throughput.
    baseline = result.baseline
    assert baseline.availability == 1.0
    assert baseline.n_lost_batches == 0 and baseline.n_failed == 0
    assert baseline.goodput_rps == baseline.throughput_rps

    # Crash sweep: every regime loses availability and batches; shorter
    # MTBF loses more availability; goodput never exceeds throughput.
    for point in result.crash_sweep:
        assert point.availability < 1.0
        assert point.n_lost_batches > 0
        assert point.goodput_rps <= point.throughput_rps
        assert point.p99_latency_s > baseline.p99_latency_s
    mtbf_025 = result.crash_point(0.25 * 600 / baseline.offered_rps,
                                  0.1 * 600 / baseline.offered_rps)
    mtbf_010 = result.crash_point(0.1 * 600 / baseline.offered_rps,
                                  0.1 * 600 / baseline.offered_rps)
    assert mtbf_010.availability < mtbf_025.availability

    # Throttle sweep: no work is lost, but latency and energy are taxed,
    # monotonically in the derate.
    p99s = [p.p99_latency_s for p in result.throttle_sweep]
    energies = [p.energy_per_request_j for p in result.throttle_sweep]
    for point in result.throttle_sweep:
        assert point.availability == 1.0
        assert point.n_lost_batches == 0 and point.n_failed == 0
        assert point.p99_latency_s > baseline.p99_latency_s
    assert all(b > a for a, b in zip(p99s, p99s[1:]))
    assert all(b > a for a, b in zip(energies, energies[1:]))

    # Headroom: spare workers buy the tail back under the fixed crash
    # regime -- the biggest fleet beats the base fleet on p99.
    assert len(result.headroom) == 3
    assert result.headroom[-1].p99_latency_s < result.headroom[0].p99_latency_s

    # Crash-mid-batch demo: retries complete on the survivor, and with
    # retries disabled the same requests terminally fail.
    retry_demo, fail_demo = result.demos
    assert retry_demo.n_lost_batches == 1
    assert retry_demo.n_retries == retry_demo.n_completed == retry_demo.n_requests
    assert retry_demo.n_failed == 0
    assert fail_demo.n_failed == fail_demo.n_requests and fail_demo.n_completed == 0
