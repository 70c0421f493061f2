"""Benchmark E-F6: regenerate Fig. 6 (FPS vs EPB vs area design space)."""

from __future__ import annotations

from repro.experiments import fig6_design_space
from repro.study import run_experiment


def test_fig6_design_space(benchmark, models):
    result = benchmark.pedantic(
        fig6_design_space.run, kwargs={"models": models}, rounds=1, iterations=1
    )
    print("\n" + run_experiment("fig6").to_text())

    paper_point = result.point_for((20, 150, 100, 60))
    feasible = result.feasible_points

    # The paper's configuration is feasible under the ~25 mm^2 area envelope
    # and achieves the highest average FPS of the sweep (as reported).
    assert paper_point in feasible
    assert paper_point.avg_fps == max(p.avg_fps for p in feasible)
    # It is in the top tier by the FPS/EPB selection metric (within 50 % of
    # the best point of this reproduction's sweep).
    assert paper_point.fps_per_epb >= 0.5 * result.best.fps_per_epb
    # Larger configurations dominate smaller ones in FPS.
    smallest = result.point_for((5, 50, 25, 30))
    assert paper_point.avg_fps > smallest.avg_fps
    # All evaluated points produce positive, finite metrics.
    for point in result.points:
        assert point.avg_fps > 0
        assert point.avg_epb_pj_per_bit > 0
        assert point.area_mm2 > 0
