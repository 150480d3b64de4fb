"""Spans, counters and the traced replay of one job.

The replay calls the program's public functions in the order
`gridhfk.cli.run` calls them, one span per stage, so per-stage time and
counts can be read without instrumenting the program.  Spans live in
memory and are written out when the run ends.

Two spans are probes that `run` does not execute: `ovalgeo.schedule`
(`PathEngine` computes the schedule inside its constructor; the probe
recomputes it to time it alone) and `domains_paths.find_domain` (one domain
solve per nonzero short entry, the assertion `short_row` makes).  Probes are
left out of the tracing-overhead figure.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from gridhfk.chains import a2_range, long_complex, mos_complex, oval_generators
from gridhfk.cli import RunConfig
from gridhfk.domains_paths import PathEngine, find_domain
from gridhfk.gridkit import alexander_polynomial, parse_braid
from gridhfk.ovalgeo import (
    Arrangement,
    build_config,
    retraction_schedule,
    select_best_config,
)
from gridhfk.reducer import (
    auto_skip,
    deconvolve,
    homology,
    make_table,
    reconstruct_skipped,
    reduce_fast,
)
from gridhfk.simplifier import minimize

PROBES = ("ovalgeo.schedule", "domains_paths.find_domain")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    knot: int


@dataclass
class Tracer:
    """Spans and counters of one run, kept in memory."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    knot: int = -1
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.knot))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time of child spans."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        out: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s.name] = out.get(s.name, 0.0) + t
        return out

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def records(self) -> list[dict]:
        return [
            {
                "id": i,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "knot": s.knot,
            }
            for i, s in enumerate(self.spans)
        ]


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


#: seconds between two samples of the resident set
RSS_INTERVAL_S = 0.005


class RssSampler:
    """Peak resident-set growth over a block, sampled by a helper thread.

    ``ru_maxrss`` is a process-wide high-water mark that an earlier, larger
    call hides, so the current RSS is polled instead.
    """

    def __init__(self):
        self.growth = 0

    def _poll(self) -> None:
        while not self._stop.wait(RSS_INTERVAL_S):
            self._peak = max(self._peak, _rss_bytes())

    def __enter__(self) -> "RssSampler":
        self._start = self._peak = _rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.growth = max(self._peak, _rss_bytes()) - self._start


# --------------------------------------------------------------------------
# the replay


def _reduce_and_homology(tr: Tracer, cx):
    before = cx.generator_count
    with tr.span("reducer.reduce"):
        reduce_fast(cx)
    tr.add("reducer.input_gens", before)
    tr.add("reducer.cancelled", before - cx.generator_count)
    with tr.span("reducer.homology"):
        return homology(cx)


def _cells(tr: Tracer, g, ring: str):
    """`hfk_cells`: the rectangle complex and its table."""
    with tr.span("reducer.cells"):
        with tr.span("chains.mos_complex"):
            cx = mos_complex(g, ring)
        tr.add("chains.mos_gens", cx.generator_count)
        tr.add("chains.mos_entries", cx.entry_count)
        reduce_fast(cx)
        return make_table(deconvolve(homology(cx), g.n), ring)


def _top_invariants(tr: Tracer, g, ring: str) -> tuple[int, bool]:
    """`top_invariants`: scan long-complex slices from the top down."""
    with tr.span("reducer.top_invariants"):
        with tr.span("ovalgeo.select_config"):
            omit = select_best_config(g).omit
        lo, hi = a2_range(build_config(g, omit, "long"))
        for a2 in range(hi, lo - 1, -2):
            with tr.span("chains.long_slice"):
                cx = long_complex(g, omit, ring, keep_a2={a2})
            tr.add("chains.long_slices_scanned", 1)
            tr.add("chains.long_slice_gens", cx.generator_count)
            if not cx.grading:
                continue
            groups = _reduce_and_homology(tr, cx).groups
            if not groups:
                continue
            rank = sum(r for r, _ in groups.values())
            torsion = any(t for _, t in groups.values())
            return a2 // 2, rank == 1 and not torsion
    raise AssertionError("no nonzero slice found for a nonempty complex")


def _paths_table(tr: Tracer, g, ring: str, skip: str):
    """`hfk_paths` with the pipeline's engine, generators and reduction."""
    with tr.span("ovalgeo.select_config"):
        omit = select_best_config(g).omit
    with tr.span("domains_paths.engine_init"):
        engine = PathEngine(g, omit)
    with tr.span("ovalgeo.schedule"):
        tr.add("ovalgeo.events", len(retraction_schedule(g, omit)[2]))
    with tr.span("chains.oval_generators"):
        sizes: dict[int, int] = {}
        for _, a2 in oval_generators(engine.short_cfg):
            sizes[a2] = sizes.get(a2, 0) + 1
        skipped = auto_skip(sizes, g.n) if skip == "auto" else set()
        keep = set(sizes) - skipped if skipped else None
    with tr.span("domains_paths.short_complex"), RssSampler() as rss:
        cx = engine.short_complex(ring, keep_a2=keep)
    tr.peak("domains_paths.short_complex_rss_mb", rss.growth / 2**20)
    tr.add("chains.short_gens", cx.generator_count)
    tr.add("domains_paths.short_entries", cx.entry_count)
    with tr.span("domains_paths.find_domain"):
        arr = Arrangement(engine.short_cfg)
        for x, row in cx.rows.items():
            for y in row:
                find_domain(arr, x, y)
                tr.add("domains_paths.find_domain_calls", 1)
    h = _reduce_and_homology(tr, cx)
    with tr.span("reducer.deconvolve"):
        if skipped:
            groups = reconstruct_skipped(h, skipped, g.n)
        else:
            groups = deconvolve(h, g.n)
        return make_table(groups, ring)


def replay(tr: Tracer, knot) -> object:
    """Recompute one job stage by stage; returns the same answer `run` does.

    The answer is the table's groups for ``hfk`` jobs, the genus or the
    fibered flag otherwise.  The Euler-characteristic and crosscheck
    comparisons stay with `run`; the replay only repeats their work.
    """
    with tr.span("replay"):
        with tr.span("gridkit.parse"):
            g_in = parse_braid(knot.word)
        with tr.span("simplifier.minimize"):
            g = minimize(g_in, RunConfig.simplify_budget)
        tr.add("simplifier.size_drop", g_in.n - g.n)
        if knot.mode in ("genus", "fibered"):
            genus, fibered = _top_invariants(tr, g, knot.ring)
            if knot.crosscheck:
                _cells(tr, g, knot.ring)
            return genus if knot.mode == "genus" else fibered
        with tr.span("gridkit.alexander"):
            alexander_polynomial(g)
        table = _paths_table(tr, g, knot.ring, knot.skip)
        if knot.crosscheck:
            _cells(tr, g, knot.ring)
        return table.groups
