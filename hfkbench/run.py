"""Benchmark of the gridhfk calculator: timed runs and traced runs.

Usage, from the repository root::

    python3 hfkbench/run.py --workload census-n7 --seed 1 --seconds 50 --trace 0

Each job of the workload is one in-process call of ``gridhfk.cli.main`` with
machine-format output, checked against the pinned answer.  Jobs run one
after another: a closed loop with a single client, no threads or pools.

``--trace 0`` repeats passes over the workload's jobs while another pass
still fits in ``--seconds`` (at least one pass), and reports the end-to-end
metrics.  ``--trace 1`` runs one pass with tracing: each job runs through
the stage-by-stage replay of `tracing.replay`, then through ``cli.run`` and
``cli.emit_report``; both answers must match the pinned one.  It reports
the per-layer metrics.  The last line of standard output is one JSON object; the line
before it stamps the machine.  The full record, spans included, goes to
``hfkbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: set-up is timed in this many fresh interpreters, half of them before the
#: timed passes and half after, so that the median spans two moments of a
#: machine whose speed drifts over minutes
SETUP_SAMPLES = 10

SPAN_METRICS = (
    "gridkit.parse",
    "simplifier.minimize",
    "gridkit.alexander",
    "ovalgeo.select_config",
    "ovalgeo.schedule",
    "domains_paths.engine_init",
    "chains.oval_generators",
    "domains_paths.short_complex",
    "domains_paths.find_domain",
    "reducer.reduce",
    "reducer.homology",
    "reducer.deconvolve",
    "reducer.cells",
    "chains.mos_complex",
    "reducer.top_invariants",
    "chains.long_slice",
    "cli.run",
    "cli.render",
)
COUNT_METRICS = (
    ("simplifier.size_drop", "count"),
    ("ovalgeo.events", "count"),
    ("chains.short_gens", "count"),
    ("domains_paths.short_entries", "count"),
    ("domains_paths.short_complex_rss_mb", "MB"),
    ("domains_paths.find_domain_calls", "count"),
    ("chains.mos_gens", "count"),
    ("chains.mos_entries", "count"),
    ("chains.long_slices_scanned", "count"),
    ("chains.long_slice_gens", "count"),
)
#: typed failures the pipeline stages raise; any other subclass of
#: GridHfkError counts as ``other_typed``, anything else as ``untyped``
ERROR_CLASSES = (
    "CrosscheckFailed",
    "ScheduleAssertionFailed",
    "NonUnitPivot",
    "InconsistentTensor",
    "UnderdeterminedSkip",
    "other_typed",
    "untyped",
)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def quartiles(values: list[float]) -> tuple[float, float]:
    """(median, 75th percentile), interpolating between samples."""
    if len(values) == 1:
        return values[0], values[0]
    _, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def answer(knot, text: str):
    """The answer printed in machine format, in the form `expected` uses."""
    from gridhfk.cli import parse_machine

    if knot.mode == "hfk":
        return parse_machine(text).groups
    records = [ln.split() for ln in text.splitlines() if ln and not ln.startswith("#")]
    if len(records) != 1 or len(records[0]) != 2 or records[0][0] != knot.mode:
        raise ValueError(f"unexpected {knot.mode} output: {text!r}")
    value = records[0][1]
    return int(value) if knot.mode == "genus" else value == "true"


def error_class(exc: BaseException) -> str:
    from gridhfk.errors import GridHfkError

    name = type(exc).__name__
    if name in ERROR_CLASSES:
        return name
    return "other_typed" if isinstance(exc, GridHfkError) else "untyped"


# --------------------------------------------------------------------------
# timed run (tracing off)


def run_job(knot, want) -> dict:
    from gridhfk.cli import main

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(knot.argv())
        failure = None
    except Exception as exc:  # a traceback escaping main is a failed job
        code, failure = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    ok = False
    if code == 0:
        try:
            ok = answer(knot, out.getvalue()) == want
        except ValueError as exc:
            failure = f"unparsable output: {exc}"
        if not ok and failure is None:
            failure = "answer differs from the pinned one"
    elif failure is None:
        failure = f"exit code {code}: {err.getvalue().strip()}"
    return {"latency_s": latency, "ok": ok, "failure": failure}


def timed_run(knots, wants, seconds: float) -> tuple[dict, list[dict], int, int]:
    passes: list[tuple[float, float]] = []
    jobs: list[dict] = []
    begin = time.perf_counter()
    while True:
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        for i, (knot, want) in enumerate(zip(knots, wants)):
            jobs.append({"pass": len(passes), "job": i, **run_job(knot, want)})
        passes.append((time.perf_counter() - wall0, cpu_seconds() - cpu0))
        if time.perf_counter() - begin + passes[-1][0] > seconds:
            break
    metrics = {
        "wall_s": metric(statistics.median(w for w, _ in passes), "s"),
        "cpu_s": metric(statistics.median(c for _, c in passes), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    failed = sum(not j["ok"] for j in jobs)
    return metrics, jobs, len(jobs), failed


# --------------------------------------------------------------------------
# traced run


def traced_run(knots, wants):
    from gridhfk import cli

    from tracing import PROBES, Tracer, replay

    tr = Tracer()
    errors = dict.fromkeys(ERROR_CLASSES, 0)
    jobs: list[dict] = []
    for i, (knot, want) in enumerate(zip(knots, wants)):
        tr.knot = i
        printed = traced = failure = None
        # the replay goes first, so that memory the untraced run has freed
        # cannot hide the replay's RSS growth
        with tr.span("knot"):
            try:
                traced = replay(tr, knot)
            except Exception as exc:  # recorded per class, the run goes on
                errors[error_class(exc)] += 1
                failure = f"replay: {type(exc).__name__}: {exc}"
            try:
                with tr.span("cli.run"):
                    cfg = cli.config_from_args(cli.build_parser().parse_args(knot.argv()))
                    result = cli.run(cfg)
                with tr.span("cli.render"):
                    printed = answer(knot, cli.emit_report(result))
            except Exception as exc:
                errors[error_class(exc)] += 1
                failure = failure or f"cli: {type(exc).__name__}: {exc}"
        ok = failure is None and printed == want and traced == printed
        if not ok and failure is None:
            failure = "printed, replayed and pinned answers differ"
        jobs.append({"job": i, "ok": ok, "failure": failure})

    own = tr.self_times()
    metrics = {f"{name}_s": metric(own.get(name, 0.0), "s") for name in SPAN_METRICS}
    for name, unit in COUNT_METRICS:
        metrics[name] = metric(tr.counts.get(name, 0), unit)
    inputs = tr.counts.get("reducer.input_gens", 0)
    metrics["reducer.cancelled_frac"] = metric(
        tr.counts.get("reducer.cancelled", 0) / inputs if inputs else 0.0, "frac"
    )
    for name in ERROR_CLASSES:
        metrics[f"errors.{name}"] = metric(errors[name], "count")
    p50, p75 = quartiles([s.end - s.start for s in tr.spans if s.name == "cli.run"])
    metrics["knot_s.p50"] = metric(p50, "s")
    metrics["knot_s.p75"] = metric(p75, "s")
    untraced = tr.total("cli.run")
    replayed = tr.total("replay") - sum(tr.total(p) for p in PROBES)
    metrics["trace.overhead_frac"] = metric(
        replayed / untraced - 1 if untraced else 0.0, "frac"
    )
    failed = sum(not j["ok"] for j in jobs)
    return metrics, jobs, len(jobs), failed, tr.records()


# --------------------------------------------------------------------------
# set-up, machine stamp, entry point


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    """Wall times of fresh interpreters importing and generating."""
    samples = []
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--setup-only",
    ]
    for _ in range(count):
        # no timeout: with one, the wait polls in steps of up to 50 ms; the
        # child repeats what this process has just done, so it cannot hang
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def machine_info() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_lines": src_lines,
    }


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import the calculator, generate the inputs and exit",
    )
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if not (SRC / "gridhfk" / "cli.py").is_file():
        print(f"error: no gridhfk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gridhfk.cli  # noqa: F401  (set-up ends once the calculator is loaded)

    from workloads import WORKLOADS, expected, generate, load_pins

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    knots = generate(args.workload, args.seed)
    if args.setup_only:
        return 0
    pins = load_pins()
    wants = [expected(k, pins) for k in knots]

    spans: list[dict] = []
    if args.trace:
        metrics, jobs, attempted, failed, spans = traced_run(knots, wants)
    else:
        samples = setup_samples(args.workload, args.seed, SETUP_SAMPLES // 2)
        metrics, jobs, attempted, failed = timed_run(knots, wants, args.seconds)
        samples += setup_samples(args.workload, args.seed, SETUP_SAMPLES - len(samples))
        metrics = {"setup_s": metric(statistics.median(samples), "s"), **metrics}
    info = machine_info()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    record = {
        "args": vars(args), "machine": info, "result": result, "spans": spans,
        "jobs": [{**asdict(knots[j["job"]]), **j} for j in jobs],
    }
    if not args.trace:
        record["setup_samples_s"] = samples
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("machine: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
