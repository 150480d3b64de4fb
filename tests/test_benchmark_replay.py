"""The benchmark's view of the program, read from ``hfkbench/`` as it stands.

The benchmark drives the program through `cli.main` with the arguments
that `workloads.Knot.argv` builds, and its traced runs replay each job
through the package functions that `tracing.replay` imports.  These tests
load both modules from their files, so a renamed option or a changed
signature fails tier-1 instead of the next benchmark run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from gridhfk import cli

HFKBENCH = Path(__file__).resolve().parent.parent / "hfkbench"


def load(name: str):
    """The module ``hfkbench/<name>.py``, imported under a private name."""
    key = f"_hfkbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, HFKBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


@pytest.mark.parametrize("workload", ["census-n7", "grid-n8n9"])
def test_every_job_argv_parses(workload):
    workloads = load("workloads")
    assert workload in workloads.WORKLOADS
    parser = cli.build_parser()
    jobs = workloads.generate(workload, 1)
    assert jobs
    for knot in jobs:
        args = parser.parse_args(knot.argv())
        assert args.strategy == "paths"
        assert (args.coeff, args.mode, args.skip) == (knot.coeff, knot.mode, knot.skip)
        assert args.crosscheck == ("on" if knot.crosscheck else "off")


@pytest.mark.parametrize("mode", ["hfk", "genus"])
def test_replay_reproduces_the_pinned_answer(mode):
    workloads = load("workloads")
    tracing = load("tracing")
    crosscheck = mode == "hfk"
    knot = workloads.Knot(
        "trefoil", False, workloads.NAMED_WORDS["trefoil"], "z", mode, "none", crosscheck
    )
    tr = tracing.Tracer()
    answer = tracing.replay(tr, knot)
    assert answer == workloads.expected(knot, workloads.load_pins())
    stage = "domains_paths.short_complex" if mode == "hfk" else "chains.long_slice"
    assert any(span.name == stage for span in tr.spans)
