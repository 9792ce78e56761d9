"""The benchmark's recorded reference, checked in the test suite.

Every input of ``bench/reference.json`` is computed again with
``bench/record_reference.record`` and each output summary is compared with its
recorded one by ``bench/workloads.compare``, the check every benchmark run
makes. A change that moves a recorded output fails here, not first in a
benchmark run. Nothing under ``bench/`` is written.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import record_reference  # noqa: E402
import run  # noqa: E402

run.import_library()
import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())
WORKLOADS = ("simulate_tuned", "decompose_fixed", "tune")


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    return record_reference.record(workloads.FULL, workloads.FIT_SEEDS,
                                   range(len(workloads.DATA_SEEDS)),
                                   tmp_path_factory.mktemp("record"))


@pytest.mark.parametrize("name", WORKLOADS)
def test_outputs_match_the_reference(recorded, name):
    assert set(recorded[name]) == set(REFERENCE[name])
    bad = {key: workloads.compare(summary, REFERENCE[name][key])
           for key, summary in recorded[name].items()}
    assert {key: b for key, b in bad.items() if b} == {}
