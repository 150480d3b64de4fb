"""Eager reference computations that the tests hold the pipeline against.

The calculator itself never builds the long oval complex whole: the path
engine pulls short rows lazily.  These references do the slow, direct
thing on small grids (or single Alexander slices) so the lazy route has
something independent to agree with:

* `tuple_event_pairs` and `reduce_faithful` cancel the long complex pair by
  pair in the order the retraction schedule prescribes, asserting every
  matched entry is a unit; `faithful_short` applies them to the whole long
  complex or to some of its Alexander slices;
* `long_euler` is the graded Euler characteristic of the long complex as
  one small determinant; `enumerated_long_euler` sums it generator by
  generator, which is only affordable on small grids.
"""

from __future__ import annotations

from gridhfk.chains import (
    LongMoves,
    SparseComplex,
    _OvalFrame,
    long_complex,
    maslov,
    oval_generators,
)
from gridhfk.errors import NonUnitPivot, ScheduleAssertionFailed
from gridhfk.gridkit import LaurentPoly, laurent_determinant
from gridhfk.ovalgeo import build_config, retraction_schedule


def reduce_faithful(
    cx: SparseComplex, pairs_by_event: list[tuple[list, list]]
) -> SparseComplex:
    """Cancel the scheduled pairs event by event.  In place.

    Every matched entry must be a unit when its turn comes; anything else
    means the schedule's bookkeeping does not match the complex and raises
    `ScheduleAssertionFailed`.
    """
    for t, (srcs, dsts) in enumerate(pairs_by_event):
        for a, b in zip(srcs, dsts):
            if a not in cx.rows or b not in cx.rows:
                raise ScheduleAssertionFailed(
                    f"event {t}: pair member already cancelled"
                )
            if cx.rows[a].get(b, 0) not in (1, -1):
                raise ScheduleAssertionFailed(
                    f"event {t}: matched entry {cx.rows[a].get(b, 0)} is not a unit"
                )
            try:
                cx.cancel_pair(a, b)
            except NonUnitPivot as exc:  # pragma: no cover - guarded above
                raise ScheduleAssertionFailed(str(exc)) from exc
    return cx


def tuple_event_pairs(gens, events) -> list[tuple[list, list]]:
    """Schedule pairs for a tuple-keyed complex.

    A generator dies at the first event killing one of its points; at that
    event it contains exactly one dying point and its partner replaces that
    point by the other one.
    """
    death = {}
    for t, ev in enumerate(events):
        death[ev.p1] = t
        death[ev.p2] = t
    out: list[tuple[list, list]] = [([], []) for _ in events]
    for x in gens:
        t = min((death.get(p, len(events)) for p in x), default=len(events))
        if t == len(events):
            continue
        ev = events[t]
        if ev.p1 in x:
            partner = tuple(sorted(ev.p2 if p == ev.p1 else p for p in x))
            out[t][0].append(x)
            out[t][1].append(partner)
    return out


def faithful_short(g, omit, keep_a2=None) -> SparseComplex:
    """The long complex (or its ``keep_a2`` slices), reduced along the schedule."""
    events = retraction_schedule(g, omit)[2]
    cx = long_complex(g, omit, keep_a2=keep_a2)
    return reduce_faithful(cx, tuple_event_pairs(cx.generators(), events))


def enumerated_long_euler(g, omit) -> LaurentPoly:
    """Graded Euler characteristic of the long complex, one generator at a time."""
    moves = LongMoves(build_config(g, omit, "long"))
    terms: dict[int, int] = {}
    for x, _ in oval_generators(moves.frame.config):
        a2, m = moves.gradings(x)
        terms[a2 // 2] = terms.get(a2 // 2, 0) + 1 - 2 * (m % 2)
    return LaurentPoly(terms)


def long_euler(g, omit) -> LaurentPoly:
    """Graded Euler characteristic of the long oval complex, in t = T^(a2/2).

    A generator matches the k kept columns to the k kept rows by a
    permutation s and picks one of the crossings of each matched oval pair.
    Its points sort by column and by row alike, so its self-dominance count
    is the number of non-inversions of s, which has the parity of
    C(k, 2) + inv(s); the dominance counts against the O markings and the
    per-point Alexander terms are sums over single points.  Summing
    (-1)^Maslov t^Alexander over all generators is therefore

        (-1)^(C(k, 2) + (k + 1) I(O, O)) t^(c/2) det F,

    where c is the doubled-Alexander constant and F[i][j] sums
    (-1)^m(p) t^(a2(p)/2) over the crossings p of the i-th kept column with
    the j-th kept row, m(p) being the Maslov grading of the single point p.
    """
    frame = _OvalFrame(build_config(g, omit, "long"))
    o_punct = frame.o_punct
    points = frame.config.points
    matrix = []
    for c in frame.cols:
        row = []
        for r in frame.rows:
            terms: dict[int, int] = {}
            for p in points.get((c, r), ()):
                exp = frame.a2_of[p] // 2
                terms[exp] = terms.get(exp, 0) + 1 - 2 * (maslov((p,), o_punct, 0) % 2)
            row.append(LaurentPoly(terms))
        matrix.append(row)
    k = len(frame.cols)
    ioo = maslov((), o_punct, 0)  # I(O, O)
    sign = 1 - 2 * ((k * (k - 1) // 2 + (k + 1) * ioo) % 2)
    shift = LaurentPoly({frame.const2 // 2: sign})
    return shift * laurent_determinant(matrix)
