"""Architecture design-space exploration (the paper's Fig. 6 study).

Sweeps the CrossLight architecture geometry -- CONV/FC VDP unit sizes (N, K)
and counts (n, m) -- evaluates every point on the four Table-I DNN workloads,
and reports the FPS / energy-per-bit / area landscape together with the
configuration the exploration selects under the ~25 mm^2 area envelope.
Also prints where the paper's chosen configuration (20, 150, 100, 60) lands
in the sweep.

Run with:  python examples/design_space_exploration.py
"""

from __future__ import annotations

from repro.study import run_experiment


def main() -> None:
    report = run_experiment("fig6", max_rows=15)
    print(report.to_text())

    result = report.result
    best = result.best
    paper = result.point_for((20, 150, 100, 60))
    print("\nSummary:")
    print(
        f"  best configuration by FPS/EPB: {best.geometry} "
        f"(FPS {best.avg_fps:,.0f}, EPB {best.avg_epb_pj_per_bit:.1f} pJ/bit, "
        f"area {best.area_mm2:.1f} mm2)"
    )
    print(
        f"  paper configuration (20, 150, 100, 60): "
        f"FPS {paper.avg_fps:,.0f} (highest of the sweep: "
        f"{paper.avg_fps >= max(p.avg_fps for p in result.feasible_points)}), "
        f"EPB {paper.avg_epb_pj_per_bit:.1f} pJ/bit, area {paper.area_mm2:.1f} mm2"
    )


if __name__ == "__main__":
    main()
