"""Every operation of the benchmark's workloads, run in-process through
``latentpde.cli.main``: each returns its expected exit code and passes its
output checks, at the self-test's toy sizes and, for certify, at the
benchmark's full size."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from latentpde.cli import main as cli_main

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


CASES = [(name, "toy") for name in load_workloads().NAMES] + [("certify", "full")]


# the toy heat designs are rank deficient, and the fits say so
@pytest.mark.filterwarnings("ignore:rank-deficient design:RuntimeWarning")
@pytest.mark.parametrize("name, size", CASES, ids=[f"{name}-{size}" for name, size in CASES])
def test_every_workload_operation_passes_its_checks(name, size, tmp_path):
    workloads = load_workloads()
    problems = []
    for op in workloads.build(name, 7, size, str(tmp_path)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli_main(op.argv)
            except SystemExit as exc:
                rc = exc.code
        if rc != op.expected_rc:
            problems.append(f"{op.name}: exit code {rc}, expected {op.expected_rc}: "
                            f"{err.getvalue()[-300:]}")
            continue
        problems += [f"{op.name}: {problem}" for problem in
                     (check(out.getvalue()) for check in op.checks) if problem]
    assert not problems, problems
