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
  differential by the pair-cancellation recursion, following the
  retraction schedule's ordering.  The long rows the queried rows can reach
  are formed breadth first, a frontier of generators per numpy batch, and
  the recursion then runs on integer numbers of those generators, so only
  generators reachable from the queried rows are ever visited.

Everything is exact integer arithmetic.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .chains import Gen, LongMoves, SparseComplex, oval_generators, slice_sizes
from .errors import (
    CancelledTargetReached,
    DomainSystemSingular,
    InvalidOmission,
    MissingDomain,
    ScheduleAssertionFailed,
)
from .gridkit import SCALE, GridDiagram, Point
from .ovalgeo import (
    Arrangement,
    on_boundary,
    retraction_schedule,
    select_best_config,
)

Domain = dict[int, int]


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
    """Rows of the short differential by cancellation paths, in batches.

    The retraction schedule orders the cancelled pairs (by event, then by
    the source generator); eliminating them all transforms the long
    differential into the short one.  A queried row folds in the reduced
    rows of cancelled generators only as their targets actually appear, so
    the complex is never materialized.  The result is exactly the faithful
    reduction's output: eliminating an invertible block yields the same
    complement in any order.

    The rows of a batch of short generators are found in three phases
    (`_short_rows`).  A breadth-first closure forms the long rows of a whole
    frontier of generators at once (`LongMoves.rows`), together with every
    target's elimination key (`_deaths`); the next frontier is the sources
    of the cancelled targets that are not sources themselves.  One sort
    then numbers every generator of the closure by its key, so that the
    integers order like the keys.  The cancellation recursion then runs on
    those integers, and only the short rows are turned back into point
    tuples.  The omitted marking must lie on the boundary of the square
    (`on_boundary`); any other omission raises `InvalidOmission`.
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
        event_of = [self.event_count] * len(self.moves.points)
        #: event -> the position of its vertical oval in a generator, and the
        #: id of its Maslov-raising point
        slot_of = {c: i for i, c in enumerate(long_cfg.kept_cols())}
        a2_of = self.moves.frame.a2_of
        id_of = self.moves.id_of
        raising: list[tuple[int, int]] = []
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
            if event_of[p1] < t or event_of[p2] < t:
                raise ScheduleAssertionFailed(
                    f"event {t} kills a point a second time"
                )
            event_of[p1] = event_of[p2] = t
            raising.append((slot_of[column], p1))
        self._event_of = np.array(event_of, dtype=np.int16)
        self._raising = np.array(raising, dtype=np.int64).reshape(-1, 2)
        self._arr = Arrangement(short_cfg)

    @cached_property
    def slice_sizes(self) -> dict[int, int]:
        """Short generators per nonempty a2 slice, counted without listing."""
        return slice_sizes(self.short_cfg)

    # -- schedule bookkeeping

    def _deaths(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(event, source)``: the elimination key of each row of ``ids``.

        A generator dies at the first event killing one of its points;
        survivors get the event count and themselves as source.  The pair's
        source is the generator holding the Maslov-raising point.  Both
        points of an event lie on one vertical oval, which fixes the
        position of the dying point and keeps the source sorted.
        """
        event = self._event_of[ids].min(axis=1, initial=self.event_count).astype(np.int64)
        source = ids.copy()
        dying = np.flatnonzero(event < self.event_count)
        slot, point = self._raising[event[dying]].T
        source[dying, slot] = point
        return event, source

    # -- the three phases

    def _closure(self, gens: list[Gen]) -> _Closure:
        """The long rows that the short rows of ``gens`` can fold in, numbered.

        Breadth first: each level forms the long rows of its frontier in one
        batch; the sources of its cancelled targets that are not sources
        themselves, and have no row yet, make the next frontier.  Then every
        generator met is numbered by its elimination key and its packed key,
        in that order: the cancelled generators come first, in the order the
        recursion eliminates them, and the survivors last.  Per entry only
        the target's key and the sign are kept; the elimination keys are
        worked out again for each distinct generator.

        An entry to a dying source (a cancelled generator that is its own
        source) is not kept at all.  Such an entry is never folded and adds
        to no other entry, and every short row drops it with its generator,
        so without it every short row is the same, order included.
        """
        moves, count = self.moves, self.event_count
        frontier = np.array([moves.encode(x) for x in gens], dtype=np.int64)
        frontier = frontier.reshape(len(gens), len(moves.frame.cols))
        # per level the owners' keys, whose rows are formed in that order;
        # per row its length, per entry the target's key and the sign
        owners, lengths = [moves.pack(frontier)], array("i")
        target_keys, signs = array("q"), array("b")
        known = [np.sort(owners[0])]
        while len(frontier):
            wanted = []
            for lo in range(0, len(frontier), _ROW_BATCH):
                batch = frontier[lo : lo + _ROW_BATCH]
                owner, target, sign = moves.rows(batch)
                event, source = self._deaths(target)
                key, source_key = moves.pack(target), moves.pack(source)
                keep = (event == count) | (source_key != key)  # no dying source
                wanted.append(source_key[keep & (event < count)])
                _extend(lengths, np.bincount(owner[keep], minlength=len(batch)))
                _extend(target_keys, key[keep])
                _extend(signs, sign[keep])
            fresh = _distinct(np.concatenate(wanted))
            fresh = fresh[~_among(fresh, known)]
            known.append(fresh)
            owners.append(fresh)
            frontier = moves.unpack(fresh)
        owner_key = np.concatenate(owners)
        del owners, known

        keys = _distinct(np.concatenate([owner_key, np.frombuffer(target_keys, np.int64)]))
        size = len(keys)
        owner_at = _positions(keys, owner_key)
        target_at = _positions(keys, np.frombuffer(target_keys, np.int64))
        del owner_key, target_keys
        # elimination key of every generator: its event, then its source
        rank = np.empty(size, dtype=np.int64)
        source_at = np.empty(size, dtype=np.int32)
        for lo in range(0, size, _BATCH):
            event, source = self._deaths(moves.unpack(keys[lo : lo + _BATCH]))
            source_at[lo : lo + _BATCH] = np.searchsorted(keys, moves.pack(source))
            rank[lo : lo + _BATCH] = event * size + source_at[lo : lo + _BATCH]
        # survivors are their own sources, and come last in key order
        survivors = keys[rank >= count * size]
        del keys
        # number by event, then source, then the generator itself
        order = np.argsort(rank, kind="stable")
        del rank
        number = np.empty(size, dtype=np.int32)
        number[order] = np.arange(size, dtype=np.int32)
        link = number[source_at][order]
        del source_at, order
        # a generator that is its own source needs no link but to its row
        link[link == np.arange(size)] = -1
        link[number[owner_at]] = -2 - np.arange(len(owner_at), dtype=np.int32)
        targets = array("i")
        for lo in range(0, len(target_at), _BATCH):
            _extend(targets, number[target_at[lo : lo + _BATCH]])
        return _Closure(
            survivors=survivors,
            link=_extend(array("i"), link),
            roots=number[owner_at[: len(gens)]].tolist(),
            bounds=_extend(array("i", [0]), np.cumsum(np.frombuffer(lengths, np.int32))),
            targets=targets,
            signs=signs,
        )

    def _reduce(self, cl: _Closure, groups: list[int]) -> list[dict[int, int]]:
        """The reduced row of each root of the closure, on its numbers.

        The row of a generator after eliminating every pair ordered before
        ``limit`` (a number): entries to targets of earlier pairs fold in the
        source's reduced row, scaled through the unit pivot; each source's
        row is reduced once, at its own pair, and kept until the roots of
        the current group (``groups`` counts them) are done.  New entries
        die no earlier than the pair that created them, so a single heap
        pass suffices.  The closure keeps no entry to a dying source, so
        every earlier target folds.  A pair's two members are its source and
        the target that names it, and they come first among the numbers of
        its key: the smaller of the two is the limit of the source's row.
        """
        link, bounds, targets, signs = cl.link, cl.bounds, cl.targets, cl.signs
        # per source, its pivot and then the other entries of its reduced
        # row, flattened: a third of the memory of a dict
        reduced: dict[int, tuple[int, ...]] = {}

        def reduce(u: int, limit: int) -> dict[int, int]:
            row = -2 - link[u]
            lo, hi = bounds[row], bounds[row + 1]
            work = dict(zip(targets[lo:hi], signs[lo:hi]))
            heap = [v for v in work if v < limit]
            heapify(heap)
            while heap:
                v = heappop(heap)
                coeff = work.pop(v, 0)
                if not coeff:
                    continue
                s = link[v]
                folded = reduced.get(s)
                if folded is None:
                    srow = reduce(s, min(s, v))
                    pivot = srow.pop(v, 0)
                    if pivot not in (1, -1):
                        raise ScheduleAssertionFailed(
                            f"path pivot {pivot} is not a unit, at the pair of "
                            f"source {s} in the elimination order"
                        )
                    folded = reduced[s] = (pivot, *chain.from_iterable(srow.items()))
                entries = iter(folded)
                factor = -coeff * next(entries)
                for w, cw in zip(entries, entries):
                    old = work.get(w, 0)
                    new = old + factor * cw
                    if not new:
                        work.pop(w, None)
                        continue
                    if not old and w < limit:
                        heappush(heap, w)
                    work[w] = new
            return work

        rows = []
        roots = iter(cl.roots)
        for size in groups:
            rows.extend(reduce(u, cl.cancelled) for u in islice(roots, size))
            reduced.clear()
        del reduce  # a recursive closure is a cycle; free the tables now
        return rows

    def _short_rows(self, slices: list[list[Gen]]) -> list[tuple[Gen, dict[Gen, int]]]:
        """``(x, short_row(x))`` for the generators of some Alexander slices.

        One closure serves every slice; the reduced rows of the sources are
        dropped after each slice, as the differential and every retraction
        event preserve a2.  Every nonzero entry must join ``x`` to a
        surviving generator through a domain of the short arrangement;
        either failure raises.  Nothing is kept once the rows are returned.
        """
        gens = [x for xs in slices for x in xs]
        if not gens:
            return []
        cl = self._closure(gens)
        rows = self._reduce(cl, [len(xs) for xs in slices])
        cancelled = cl.cancelled
        numbers = [v for row in rows for v in row if v >= cancelled]
        ids = self.moves.unpack(cl.survivors[np.array(numbers, dtype=np.int64) - cancelled])
        decoded = dict(zip(numbers, map(self.moves.decode, map(tuple, ids.tolist()))))
        out = []
        for x, row in zip(gens, rows):
            short: dict[Gen, int] = {}
            for v, c in row.items():
                if v < cancelled:
                    raise CancelledTargetReached(
                        f"short row of {x} reaches the cancelled generator "
                        f"number {v} of the elimination order"
                    )
                y = decoded[v]
                if find_domain(self._arr, x, y) is None:
                    raise MissingDomain(
                        f"nonzero entry {c} from {x} to {y} has no domain"
                    )
                short[y] = c
            out.append((x, short))
        return out

    # -- public API

    def short_row(self, x: Gen) -> dict[Gen, int]:
        """The row of the short differential at a short-config generator.

        A batch of one `_short_rows`, with the same checks.
        """
        return self._short_rows([[x]])[0][1]

    def short_complex(self, ring: str = "Z", keep_a2=None) -> SparseComplex:
        """The short complex with its differential counted along paths.

        Only the generators of the kept slices (None keeps all) are listed,
        by one `oval_generators` walk of the short configuration, and their
        rows come from one closure (`_short_rows`), all in this process, in
        slice order and, within a slice, in generator order.
        """
        cx = SparseComplex(ring)
        slices: dict[int, list[Gen]] = {}
        for x, a2 in oval_generators(self.short_cfg, keep_a2):
            cx.add_generator(x, a2, self.moves.frame.maslov(x))
            slices.setdefault(a2, []).append(x)
        for x, row in self._short_rows(list(slices.values())):
            for y, coeff in row.items():
                cx.add_entry(x, y, coeff)
        return cx


class _Closure(NamedTuple):
    """What the cancellation recursion reads, on the numbers of `_closure`."""

    #: the packed keys of the survivors, which take the last numbers
    survivors: np.ndarray
    #: per number: the number of its source, when that is another generator;
    #: else ``-2 - r`` when its long row is row ``r``, and -1 without one
    #: (a survivor met only as a target)
    link: array
    #: the numbers of the queried generators
    roots: list[int]
    #: row ``r`` is ``targets[bounds[r]:bounds[r + 1]]``, with coefficients
    #: ``signs[...]``
    bounds: array
    targets: array
    signs: array

    @property
    def cancelled(self) -> int:
        """How many generators are cancelled: the first survivor's number."""
        return len(self.link) - len(self.survivors)


def _extend(out: array, values: np.ndarray) -> array:
    """``out`` with ``values`` appended, converted to its item type.

    A compact array of integers that reads back as Python ints, as fast as
    a list does, in a fraction of the memory.
    """
    out.frombytes(memoryview(np.ascontiguousarray(values, dtype=out.typecode)).cast("B"))
    return out


def _positions(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The position of each of ``keys`` in ``sorted_keys``, batch by batch."""
    out = np.empty(len(keys), dtype=np.int32)
    for lo in range(0, len(keys), _BATCH):
        out[lo : lo + _BATCH] = np.searchsorted(sorted_keys, keys[lo : lo + _BATCH])
    return out


#: generators whose long rows `_closure` forms in one set of arrays, and
#: keys it looks up in one go
_ROW_BATCH = 1024
_BATCH = 4096


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending; ``keys`` is sorted in place."""
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _among(keys: np.ndarray, known: list[np.ndarray]) -> np.ndarray:
    """Whether each of ``keys`` lies in one of the sorted arrays ``known``."""
    hit = np.zeros(len(keys), dtype=bool)
    for sorted_keys in known:
        if len(sorted_keys):
            at = np.searchsorted(sorted_keys, keys).clip(max=len(sorted_keys) - 1)
            hit |= sorted_keys[at] == keys
    return hit
