"""The benchmark's own operations run through the CLI: every op of every
perfbench workload exits 0 and passes its checks, so a change that breaks an
option or a payload key the benchmark reads fails here rather than as a
lower pass fraction in a benchmark run."""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from frameport import cli

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / \
    "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.build(1, 0, 32)))
def test_benchmark_ops_pass_their_checks(name):
    # The smoke budget; standing checks are known to fail and the benchmark
    # does not count them either.
    for op in WORKLOADS.build(threads=1, seed=0, scale=32)[name].ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(op.argv))
        assert code == 0, op.label
        problems = WORKLOADS.run_checks(op.checks, json.loads(out.getvalue()))
        assert not problems, (op.label, problems)
