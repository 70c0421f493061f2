"""Compare CrossLight against prior photonic and electronic accelerators.

Reproduces the paper's headline comparison (Figs. 7-8 and Table III) in one
script: it simulates the four CrossLight variants, DEAP-CNN, and HolyLight on
the four Table-I DNN workloads, prints the per-model energy-per-bit table and
the Table III-style averages, and reports the improvement factors over the
best prior photonic accelerator (HolyLight).

Run with:  python examples/accelerator_comparison.py
"""

from __future__ import annotations

from repro.baselines import ELECTRONIC_PLATFORMS
from repro.study import run_experiment


def main() -> None:
    print(run_experiment("fig7").to_text())
    print()
    print(run_experiment("fig8").to_text())
    print()
    table3 = run_experiment("table3_summary")
    print(table3.to_text())

    result = table3.result
    best = result.row_for("Cross_opt_TED")
    print("\nHeadline comparison (Cross_opt_TED vs the rest):")
    print(
        f"  vs Holylight : {result.epb_improvement_over_holylight():5.1f}x lower EPB, "
        f"{result.perf_per_watt_improvement_over_holylight():5.1f}x higher kFPS/W "
        f"(paper: 9.5x / 15.9x)"
    )
    print(f"  vs DEAP-CNN  : {result.epb_improvement_over_deap():5.0f}x lower EPB (paper: 1544x)")
    for platform in ELECTRONIC_PLATFORMS:
        print(
            f"  vs {platform.name:<10}: "
            f"{platform.avg_epb_pj_per_bit / best.avg_epb_pj_per_bit:6.1f}x lower EPB "
            f"(published reference numbers)"
        )


if __name__ == "__main__":
    main()
