"""Domain existence tests and path-counted short differentials.

Two independent ways to probe a differential entry without building the
whole complex:

* `find_domain` solves — exactly, in integers — for the 2-chain in the
  oval arrangement whose corner behaviour matches a hypothetical
  contribution from one generator to another.  The solution is unique
  when it exists; a missing or negative solution certifies that the
  differential entry is zero.
  This is a one-sided test: a domain may exist while the signed count of
  contributions still cancels.

* `PathEngine` computes rows of the reduced (short-configuration)
  differential by expanding the pair-cancellation recursion lazily: each
  cancelled generator's reduced row is pulled on demand — following the
  retraction schedule's ordering — and cached for the current Alexander
  slice, so only generators actually reachable from the queried row are
  ever visited.

Everything is exact integer arithmetic.
"""

from __future__ import annotations

import os
from functools import cached_property
from heapq import heappop, heappush

from .chains import Gen, LongMoves, SparseComplex, oval_generators, slice_sizes
from .errors import (
    CancelledTargetReached,
    DomainSystemSingular,
    InvalidOmission,
    MissingDomain,
    ScheduleAssertionFailed,
    SliceWorkerDied,
)
from .gridkit import SCALE, GridDiagram, Point
from .ovalgeo import (
    Arrangement,
    on_boundary,
    retraction_schedule,
    select_best_config,
)

Domain = dict[int, int]

#: the fewest kept short generators whose slices are assembled on a
#: process pool; below it, forking costs more than a second core saves
PARALLEL_MIN_GENS = 2000


class DomainSolver:
    """The corner-index linear system of one arrangement, solved once.

    Unknowns are the multiplicities of the pieces, with punctured pieces
    and the unbounded piece pinned to zero.  The corner constraint matrix
    is reduced a single time, Gauss–Jordan over the integers with a ±1
    pivot in every column, and the applied row operations are recorded;
    each query then sums a few integer columns.  The pinned system has a
    trivial kernel (each oval's interior is excluded by its two punctures,
    and the constant chain by the unbounded piece), so solutions are
    unique; a column without a unit pivot raises.
    """

    def __init__(self, arr: Arrangement):
        self.arr = arr
        crossings = sorted(arr.config.all_points())
        self.row_of = {p: i for i, p in enumerate(crossings)}
        pinned = set(arr.puncture_pieces().values())
        pinned.add(arr.unbounded_piece())
        self.free = [k for k in range(arr.piece_count) if k not in pinned]
        col_of = {k: j for j, k in enumerate(self.free)}
        nrows = len(crossings)

        matrix = [[0] * len(self.free) for _ in range(nrows)]
        for i, p in enumerate(crossings):
            ne, nw, sw, se = arr.corner_pieces(p)
            for piece, s in ((ne, 1), (sw, 1), (nw, -1), (se, -1)):
                j = col_of.get(piece)
                if j is not None:
                    matrix[i][j] += s
        # reduce [matrix | identity]; the identity columns record the row
        # operations applied to any right-hand side
        ops = [[int(i == r) for r in range(nrows)] for i in range(nrows)]
        for c, piece in enumerate(self.free):
            pivot = next(
                (i for i in range(c, nrows) if matrix[i][c] in (1, -1)), None
            )
            if pivot is None:
                raise DomainSystemSingular(
                    f"piece {piece}: no unit pivot in the corner constraints"
                )
            matrix[c], matrix[pivot] = matrix[pivot], matrix[c]
            ops[c], ops[pivot] = ops[pivot], ops[c]
            if matrix[c][c] == -1:
                matrix[c] = [-a for a in matrix[c]]
                ops[c] = [-a for a in ops[c]]
            for i in range(nrows):
                f = matrix[i][c]
                if i != c and f:
                    matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[c])]
                    ops[i] = [a - f * b for a, b in zip(ops[i], ops[c])]
        # row i < rank now reads u_i = ops[i] . rhs; the rest reads 0
        self.rank = len(self.free)
        #: the transform, column by column: the transformed right-hand
        #: side of a unit corner index at crossing j is ops[j]
        self.ops = [list(col) for col in zip(*ops)]

    def solve(self, targets: dict[Point, int]) -> Domain | None:
        """The unique domain with the given corner indices, if one exists.

        ``targets`` assigns the required corner index to each crossing
        (omitted crossings require zero).  Returns None when the system is
        inconsistent or a multiplicity is negative.
        """
        transformed = [0] * len(self.row_of)
        for p, s in targets.items():
            if s:
                column = self.ops[self.row_of[p]]
                transformed = [a + s * b for a, b in zip(transformed, column)]
        rank = self.rank
        if any(transformed[rank:]) or min(transformed[:rank], default=0) < 0:
            return None
        return {k: v for k, v in zip(self.free, transformed) if v}


def find_domain(arr: Arrangement, x: Gen, y: Gen) -> Domain | None:
    """The unique domain joining two generators of one configuration.

    Corner index must be +1 at points of x∖y, −1 at points of y∖x, and 0
    at every other crossing; pieces containing punctures (and the
    unbounded piece) have multiplicity zero.  Returns the multiplicity map
    (zero entries omitted), or None when no nonnegative integral solution
    exists.  The zero chain is not a domain, so ``x == y`` yields None.
    """
    if set(x) == set(y):
        return None
    solver = getattr(arr, "_domain_solver", None)
    if solver is None:
        solver = DomainSolver(arr)
        arr._domain_solver = solver
    targets: dict[Point, int] = {}
    for p in set(x) - set(y):
        targets[p] = 1
    for p in set(y) - set(x):
        targets[p] = -1
    return solver.solve(targets)


class PathEngine:
    """Rows of the short differential by lazy cancellation paths.

    The retraction schedule orders the cancelled pairs (by event, then by
    the source generator); eliminating them all transforms the long
    differential into the short one.  A queried row folds in the reduced
    rows of cancelled generators only as their targets actually appear,
    depth-first with caching, so the complex is never materialized.  The
    result is exactly the faithful reduction's output: eliminating an
    invertible block yields the same complement in any order.  Inside, rows
    are keyed by the point ids of `LongMoves`; `short_row` takes and returns
    point tuples.  The omitted marking must lie on the boundary of the
    square (`on_boundary`); any other omission raises `InvalidOmission`.
    """

    def __init__(self, g: GridDiagram, omit: tuple[int, int] | None = None):
        if omit is None:
            omit = select_best_config(g).omit
        elif not on_boundary(g, omit):
            raise InvalidOmission(
                f"omitting {omit} leaves the region outside the square without "
                f"a basepoint: the omitted marking must lie in column 0 or "
                f"{g.n - 1} or in row 0 or {g.n - 1}"
            )
        self.grid = g
        self.omit = omit
        long_cfg, short_cfg, events = retraction_schedule(g, omit)
        self.short_cfg = short_cfg
        self.moves = LongMoves(long_cfg)
        self.event_count = len(events)
        #: point id -> the event killing it; survivors get the event count,
        #: which comes after every event
        self._event_of = [self.event_count] * len(self.moves.points)
        #: event -> (position of its vertical oval in a generator, the id of
        #: its Maslov-raising point)
        slot_of = {c: i for i, c in enumerate(long_cfg.kept_cols())}
        a2_of = self.moves.frame.a2_of
        id_of = self.moves.id_of
        self._raising: list[tuple[int, int]] = []
        for t, ev in enumerate(events):
            column = ev.p1[0] // SCALE
            if ev.p2[0] // SCALE != column:
                raise ScheduleAssertionFailed(
                    f"event {t} pairs points of two vertical ovals"
                )
            # slices are assembled apart, so a pair must share its slice
            if a2_of[ev.p1] != a2_of[ev.p2]:
                raise ScheduleAssertionFailed(
                    f"event {t} changes the Alexander grading"
                )
            p1, p2 = id_of[ev.p1], id_of[ev.p2]
            if self._event_of[p1] < t or self._event_of[p2] < t:
                raise ScheduleAssertionFailed(
                    f"event {t} kills a point a second time"
                )
            self._event_of[p1] = self._event_of[p2] = t
            self._raising.append((slot_of[column], p1))
        self._arr = Arrangement(short_cfg)
        #: reduced row of each cancelled source at its elimination step, in
        #: point ids
        self._rows: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}

    @cached_property
    def slice_sizes(self) -> dict[int, int]:
        """Short generators per nonempty a2 slice, counted without listing."""
        return slice_sizes(self.short_cfg)

    # -- schedule bookkeeping

    def _death(self, v: tuple[int, ...]):
        """(event, source) elimination key of ids ``v``; None for survivors.

        A generator dies at the first event killing one of its points; the
        pair's source is the generator holding the Maslov-raising point.
        Both points of an event lie on one vertical oval, which fixes the
        position of the dying point in ``v`` and keeps the source sorted.
        """
        t = min(map(self._event_of.__getitem__, v))
        if t == self.event_count:
            return None
        slot, source_point = self._raising[t]
        if v[slot] == source_point:
            return (t, v)
        return (t, v[:slot] + (source_point,) + v[slot + 1 :])

    # -- the cancellation recursion

    def _reduced_row(self, u: tuple[int, ...], limit) -> dict[tuple[int, ...], int]:
        """Row of ``u`` after eliminating every pair ordered before ``limit``.

        Entries to targets of earlier pairs fold in the source's reduced
        row (scaled through the unit pivot; each source's row is reduced
        once and kept in ``_rows``); entries to earlier sources disappear
        with their generator.  New entries die no earlier than the pair that
        created them, so a single heap pass suffices.  A dying source is
        never folded, so it is dropped on sight: removing it changes no
        other entry, nor the order of those that stay.
        """
        event_of = self._event_of.__getitem__
        raising = self._raising
        count = self.event_count
        limit_t = limit[0]

        def fold_key(v):
            # `_death(v)` when it precedes `limit`, else None; the event is
            # tested before the source is built
            t = min(map(event_of, v))
            if t > limit_t or t == count:
                return None
            slot, point = raising[t]
            if v[slot] == point:
                key = (t, v)
            else:
                key = (t, v[:slot] + (point,) + v[slot + 1 :])
            return key if t < limit_t or key < limit else None

        work = self.moves.row(u)
        heap: list[tuple] = []
        for v in list(work):
            key = fold_key(v)
            if key is None:
                continue
            if key[1] is v:
                del work[v]  # a dying source's column vanishes outright
            else:
                heappush(heap, (key, v))
        while heap:
            key, v = heappop(heap)
            coeff = work.pop(v, 0)
            if not coeff:
                continue
            srow = self._rows.get(key[1])
            if srow is None:
                srow = self._rows[key[1]] = self._reduced_row(key[1], key)
            pivot = srow.get(v, 0)
            if pivot not in (1, -1):
                raise ScheduleAssertionFailed(
                    f"event {key[0]}: path pivot {pivot} is not a unit"
                )
            factor = -coeff * pivot
            for w, cw in srow.items():
                if w == v:
                    continue
                old = work.get(w, 0)
                new = old + factor * cw
                if not new:
                    work.pop(w, None)
                    continue
                if not old:
                    wkey = fold_key(w)
                    if wkey is not None:
                        if wkey[1] is w:
                            continue  # a dying source never enters
                        heappush(heap, (wkey, w))
                work[w] = new
        return work

    # -- public API

    def short_row(self, x: Gen) -> dict[Gen, int]:
        """The row of the short differential at a short-config generator.

        Every nonzero entry must join ``x`` to a surviving generator through
        a domain of the short arrangement; either failure raises.
        """
        moves = self.moves
        out: dict[Gen, int] = {}
        for v, c in self._reduced_row(moves.encode(x), (self.event_count,)).items():
            y = moves.decode(v)
            if self._death(v) is not None:
                raise CancelledTargetReached(
                    f"short row of {x} reaches the cancelled generator {y}"
                )
            if find_domain(self._arr, x, y) is None:
                raise MissingDomain(
                    f"nonzero entry {c} from {x} to {y} has no domain"
                )
            out[y] = c
        return out

    def _slice_rows(self, gens: list[Gen]) -> list[tuple[Gen, dict[Gen, int]]]:
        """``(x, short_row(x))`` for the generators of one Alexander slice.

        The row cache is emptied before and after: the differential and
        every retraction event preserve a2, so no cached row serves
        another slice, and peak memory follows the largest slice.
        """
        self._rows.clear()
        rows = [(x, self.short_row(x)) for x in gens]
        self._rows.clear()
        return rows

    def _pooled_rows(self, slices: dict[int, list[Gen]], workers: int):
        """Every slice's rows, pulled on ``workers`` forked processes.

        The workers inherit this engine and the slices, so only a2 keys go
        in and rows come out.  Slices are submitted largest first and
        returned in the order of ``slices``.  A worker's exception reaches
        the caller as it was raised, after pending slices are cancelled.
        """
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt_engine,
            initargs=(self, slices),
        )
        try:
            order = sorted(slices, key=lambda a2: len(slices[a2]), reverse=True)
            futures = {a2: pool.submit(_pooled_slice_rows, a2) for a2 in order}
            for future in as_completed(futures.values()):
                future.result()
            return [futures[a2].result() for a2 in slices]
        except BrokenProcessPool as exc:
            raise SliceWorkerDied(
                f"a worker assembling Alexander slices died: {exc}"
            ) from exc
        finally:
            pool.shutdown(cancel_futures=True)

    def short_complex(self, ring: str = "Z", keep_a2=None) -> SparseComplex:
        """The short complex with its differential counted along paths.

        The differential and every retraction event preserve a2, so rows are
        pulled one Alexander slice at a time (`_slice_rows`).  When the
        kept complex has at least `PARALLEL_MIN_GENS` generators and the
        process may run on two or more CPUs, the slices are pulled on a
        pool of forked workers, one per CPU and at most one per slice
        (none where the ``fork`` start method is missing).  Either way the
        entries are added in slice order and, within a slice, in generator
        order, so the complex is the same, insertion order included.
        Only the generators of the kept slices (None keeps all) are
        listed, by one `oval_generators` walk of the short configuration.
        """
        cx = SparseComplex(ring)
        slices: dict[int, list[Gen]] = {}
        for x, a2 in oval_generators(self.short_cfg, keep_a2):
            cx.add_generator(x, a2, self.moves.frame.maslov(x))
            slices.setdefault(a2, []).append(x)
        workers = min(len(slices), _available_cpus())
        if (
            workers >= 2
            and hasattr(os, "fork")
            and cx.generator_count >= PARALLEL_MIN_GENS
        ):
            rows = self._pooled_rows(slices, workers)
        else:
            rows = map(self._slice_rows, slices.values())
        for slice_rows in rows:
            for x, row in slice_rows:
                for y, coeff in row.items():
                    cx.add_entry(x, y, coeff)
        return cx


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: the engine and slices of the pool a forked worker belongs to
_worker_job: tuple = ()


def _adopt_engine(engine: PathEngine, slices: dict[int, list[Gen]]) -> None:
    global _worker_job
    _worker_job = (engine, slices)


def _pooled_slice_rows(a2: int):
    engine, slices = _worker_job
    return engine._slice_rows(slices[a2])
