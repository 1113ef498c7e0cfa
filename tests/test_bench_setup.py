"""The benchmark's set-up path, run as perfbench/run.py runs it: an
exception there ends a benchmark run, where one inside an op would only
count as a failed op."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402

regtri = run.import_program()

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_sets_up_and_checks_one_cycle(name, tmp_path):
    """For seed 1: reset the caches, set up, warm up and start a pass,
    run one cycle (four for census, so that one op takes the deep
    check), finish the pass and check every op.  Nothing may raise, and
    every failure must be a known defect."""
    run.reset_caches(regtri)
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    workload.setup()
    workload.warm_up()
    workload.start_pass()
    cycles = workload.deep_check_every if name == "census" else 1
    results = [(op, op.call()) for i in range(cycles) for op in workload.cycle(i)]
    workload.finish_pass([out for _, out in results])
    failures = [op.check(out) for op, out in results]
    assert [f for f in failures if f is not None and not f.known] == []
