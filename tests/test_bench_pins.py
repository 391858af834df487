"""The benchmark's output pins, checked in the test suite.

perfbench/ref.json pins every output of the three benchmark workloads at
full size and the default seed, byte for byte: the verify report, the basin
raster hashes, the periodic points, the rotation rationals, the spectral
maxima and the exact layer.  One operation of each workload must reproduce
all of them.  ref.json is read directly: importing perfbench/run.py would
set the BLAS thread variables for the whole test process.
"""

import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads
    return workloads


def test_one_operation_of_each_workload_matches_every_reference(workloads):
    refs = json.loads((PERFBENCH / "ref.json").read_text(encoding="utf-8"))["full"]
    op = workloads.Op(refs, {})
    for name in ("verify", "basin", "explore"):
        make_inputs, run = workloads.WORKLOADS[name]
        run(make_inputs(workloads.DEFAULT_SEED, workloads.FULL), op)
    failed, problems, outputs = op.failed, op.problems, set(op.outputs)
    assert failed == 0, problems
    assert outputs == set(refs)
