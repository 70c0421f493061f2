"""Golden records: every registered study reproduces its pinned output.

One :class:`~repro.study.StudyRunner` at seed 0 regenerates all 13 studies at
their paper defaults, as ``repro run --all`` does.  A study's digest is the
sha256 of its sorted-key JSON records followed by its rendered text, the
definition ``perfbench/digests.json`` pins them under.

Which check runs depends on the numerical stack:

* numpy 2.4.6 with OpenBLAS 0.3.31 (the stack the pinned digests were
  recorded on): every digest must equal the pinned one;
* any other stack, where BLAS kernels may round differently in the last
  bits: a second same-seed regeneration must reproduce every digest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.study import StudyRunner, experiment_names

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def _pinned_stack() -> bool:
    """Whether this numpy/BLAS build is the one the digests were pinned on."""
    if np.__version__ != "2.4.6":
        return False
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in blas.get("name", "") and blas.get("version", "").startswith("0.3.31")


def _regenerate() -> dict[str, str]:
    with StudyRunner(seed=0) as runner:
        reports = runner.run_all()
    return {
        report.experiment: hashlib.sha256(
            json.dumps(report.records, sort_keys=True).encode() + report.text.encode()
        ).hexdigest()
        for report in reports
    }


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return _regenerate()


@pytest.fixture(scope="module")
def expected() -> dict[str, str]:
    if _pinned_stack():
        stored = json.loads(DIGESTS.read_text())["paper_regen"]
        assert stored["seed"] == 0
        return stored["digests"]
    return _regenerate()


def test_every_study_has_a_golden_record(digests, expected):
    assert sorted(digests) == sorted(expected) == sorted(experiment_names())


@pytest.mark.parametrize("name", experiment_names())
def test_study_reproduces_golden_record(name, digests, expected):
    assert digests[name] == expected[name]
