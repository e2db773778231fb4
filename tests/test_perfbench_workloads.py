"""Every benchmark workload's operations pass their own correctness check.

``perfbench/workloads.py`` pairs each operation with a ``check`` against an
oracle; a check that finds a problem makes the whole benchmark run
incorrect.  Here each workload is built on one seed, warmed up, and each of
its operations run once and checked.
"""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ["verify", "classify-catalog", "filtered-grid", "fourier-transform"]


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))  # workloads imports its sibling oracles
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        mod = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, mod)  # its dataclasses look the module up
        spec.loader.exec_module(mod)
    return mod


def test_every_workload_is_covered(workloads):
    assert sorted(workloads.FACTORIES) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_operation_passes_its_check(workloads, name, tmp_path):
    ops, warmup = workloads.FACTORIES[name](31, str(tmp_path))
    warmup()
    problems = {op.label: op.check(op.run()) for op in ops}
    assert ops and {label: p for label, p in problems.items() if p} == {}
