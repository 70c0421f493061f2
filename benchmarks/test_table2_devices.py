"""Benchmark E-T2: regenerate Table II (optoelectronic device parameters)."""

from __future__ import annotations

from repro.experiments import table2_devices
from repro.study import run_experiment


def test_table2_devices(benchmark):
    rows = benchmark(table2_devices.run)
    print("\n" + run_experiment("table2_devices").to_text())

    assert len(rows) == 5
    for row in rows:
        assert row.latency == row.paper_latency
        assert row.power == row.paper_power
