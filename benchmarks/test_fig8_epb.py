"""Benchmark E-F8: regenerate Fig. 8 (energy-per-bit per model)."""

from __future__ import annotations

from repro.experiments import fig8_epb
from repro.study import run_experiment


def test_fig8_epb_per_model(benchmark, models):
    result = benchmark.pedantic(
        fig8_epb.run, kwargs={"models": models}, rounds=1, iterations=1
    )
    print("\n" + run_experiment("fig8").to_text())

    assert len(result.accelerators) == 6
    assert len(result.models) == 4

    # On every model, the CrossLight variants improve monotonically with the
    # stacked optimizations and beat both photonic baselines.
    for model in result.models:
        assert (
            result.epb("Cross_base", model)
            > result.epb("Cross_base_TED", model)
            > result.epb("Cross_opt", model)
            > result.epb("Cross_opt_TED", model)
        )
        assert result.epb("Cross_opt_TED", model) < result.epb("Holylight", model)
        assert result.epb("Holylight", model) < result.epb("DEAP_CNN", model)

    # Average improvement factors are in the same regime the paper reports
    # (9.5x over HolyLight, 1544x over DEAP-CNN).
    best = result.average_epb("Cross_opt_TED")
    assert 4.0 < result.average_epb("Holylight") / best < 30.0
    assert result.average_epb("DEAP_CNN") / best > 100.0
