"""From boundary matrices to knot invariants.

The pipeline stages live here:

* greedy pair-cancellation reduction of a `SparseComplex` (unit pivots
  anywhere);
* exact homology over Z (Smith normal form) or Z/2 (bitset rank);
* removal of the rank-2 tensor factor that the full-size complexes carry
  once per grid size beyond one, leaving the knot invariant itself: one
  back-substitution from both ends of each diagonal, which also rebuilds
  up to n−1 consecutive Alexander slices that were never computed;
* the derived invariants: Seifert genus, fiberedness, torsion-freeness;
* `slice_groups`, the one slice routine of `hfk_paths` (on a pool of
  forked workers for large inputs) and `top_invariants`.

Every computation is exact integer arithmetic; nothing here is floating
point.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import comb, gcd, lcm

from .chains import SparseComplex, mos_complex
from .domains_paths import PathEngine
from .errors import (
    CrosscheckFailed,
    InconsistentHomology,
    InconsistentTensor,
    InvalidInvariant,
    SliceWorkerDied,
    UnderdeterminedSkip,
)
from .gridkit import GridDiagram

#: A graded group: free rank and the torsion invariant factors (> 1, each
#: dividing the next).
Group = tuple[int, tuple[int, ...]]


def _is_zero(group: Group) -> bool:
    return group[0] == 0 and not group[1]


@dataclass
class HomologyResult:
    """Graded homology groups, keyed by (doubled Alexander, Maslov)."""

    ring: str
    groups: dict[tuple[int, int], Group]

    def total_rank(self) -> int:
        return sum(r for r, _ in self.groups.values())

    def rank(self, a2: int, m: int) -> int:
        return self.groups.get((a2, m), (0, ()))[0]


@dataclass
class HFKTable:
    """The knot invariant: graded ranks keyed by (Alexander, Maslov)."""

    ring: str
    groups: dict[tuple[int, int], Group]
    genus: int
    fibered: bool
    torsion_free: bool

    def total_rank(self) -> int:
        return sum(r for r, _ in self.groups.values())

    def rank(self, a: int, m: int) -> int:
        return self.groups.get((a, m), (0, ()))[0]

    def ranks(self) -> dict[tuple[int, int], int]:
        return {k: r for k, (r, _) in self.groups.items() if r}


# --------------------------------------------------------------------------
# reduction


def reduce_fast(cx: SparseComplex) -> SparseComplex:
    """Greedily cancel unit entries until none remain.  In place.

    Rows are visited shortest-first, which empirically keeps fill-in flat
    on these geometric complexes; repeat passes handle entries revealed by
    earlier cancellations.
    """
    first = sorted(cx.rows, key=lambda x: len(cx.rows[x]))
    while True:
        done = 0
        for x in first:
            row = cx.rows.get(x)
            if not row:
                continue
            pick = next((y for y, c in row.items() if c in (1, -1)), None)
            if pick is not None:
                cx.cancel_pair(x, pick)
                done += 1
        if not done:
            return cx
        first = list(cx.rows)


# --------------------------------------------------------------------------
# exact linear algebra


def rank_mod2(rows: list[int]) -> int:
    """Rank over the 2-element field of rows given as bitmasks."""
    basis: list[int] = []
    rank = 0
    for r in rows:
        for b in basis:
            low = b & -b
            if r & low:
                r ^= b
        if r:
            basis.append(r)
            rank += 1
    return rank


def smith_invariant_factors(mat: list[list[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form, divisibility-ordered.

    The pivot is the smallest nonzero entry.  Integer division clears its
    column (row operations), then its row (column operations); a nonzero
    remainder is smaller than the pivot and becomes the next pivot.  A
    pivot alone in its row and column is set aside with them.  Replacing
    each pair of set-aside pivots by their gcd and lcm then puts them in
    divisibility order.  Arithmetic is exact arbitrary-precision integers.
    """
    m = [row[:] for row in mat]
    diag: list[int] = []
    while True:
        nonzero = [
            (abs(a), i, j) for i, row in enumerate(m) for j, a in enumerate(row) if a
        ]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        pivot_row = m[i]
        p = pivot_row[j]
        for k, row in enumerate(m):
            if k != i and row[j]:
                q = row[j] // p
                m[k] = [a - q * b for a, b in zip(row, pivot_row)]
        quotients = [(c, a // p) for c, a in enumerate(pivot_row) if a and c != j]
        for row in m:
            if row[j]:
                for c, q in quotients:
                    row[c] -= q * row[j]
        if sum(map(bool, pivot_row)) == sum(bool(row[j]) for row in m) == 1:
            diag.append(abs(p))
            del m[i]
            for row in m:
                del row[j]
    for a in range(len(diag)):
        for b in range(a + 1, len(diag)):
            diag[a], diag[b] = gcd(diag[a], diag[b]), lcm(diag[a], diag[b])
    return diag


# --------------------------------------------------------------------------
# homology


def homology(cx: SparseComplex) -> HomologyResult:
    """Exact graded homology of the complex (∂² = 0 assumed)."""
    by_grading: dict[tuple[int, int], list] = {}
    for x, gr in cx.grading.items():
        by_grading.setdefault(gr, []).append(x)

    # boundary block leaving each grading, with its rank and torsion data
    block_rank: dict[tuple[int, int], int] = {}
    block_torsion: dict[tuple[int, int], tuple[int, ...]] = {}
    for (a2, m), gens in by_grading.items():
        target = by_grading.get((a2, m - 1))
        if not target:
            block_rank[(a2, m)] = 0
            block_torsion[(a2, m)] = ()
            continue
        col_of = {y: i for i, y in enumerate(target)}
        if cx.ring == "Z2":
            rows = []
            for x in gens:
                bits = 0
                for y, c in cx.rows[x].items():
                    if c & 1:
                        bits |= 1 << col_of[y]
                rows.append(bits)
            block_rank[(a2, m)] = rank_mod2(rows)
            block_torsion[(a2, m)] = ()
        else:
            mat = [[0] * len(target) for _ in gens]
            for i, x in enumerate(gens):
                for y, c in cx.rows[x].items():
                    mat[i][col_of[y]] = c
            factors = smith_invariant_factors(mat)
            block_rank[(a2, m)] = len(factors)
            block_torsion[(a2, m)] = tuple(f for f in factors if f > 1)

    groups: dict[tuple[int, int], Group] = {}
    for (a2, m), gens in by_grading.items():
        free = len(gens) - block_rank[(a2, m)] - block_rank.get((a2, m + 1), 0)
        torsion = block_torsion.get((a2, m + 1), ())
        if free < 0:
            raise InconsistentHomology(
                f"negative free rank {free} at {(a2, m)}: boundary blocks inconsistent"
            )
        if free or torsion:
            groups[(a2, m)] = (free, torsion)
    # torsion may land in gradings that hold no generators of their own
    for (a2, m), tor in block_torsion.items():
        key = (a2, m - 1)
        if tor and key not in by_grading:
            raise InconsistentHomology(f"torsion attached to the empty grading {key}")
    return HomologyResult(cx.ring, groups)


def universal_coefficients_consistent(
    over_z: HomologyResult, over_z2: HomologyResult
) -> bool:
    """Mod-2 dimensions must equal free ranks plus adjacent even torsion."""
    keys = set(over_z.groups) | set(over_z2.groups)
    keys |= {
        (a2, m + 1)
        for (a2, m), (_, tor) in over_z.groups.items()
        if any(f % 2 == 0 for f in tor)
    }
    for a2, m in keys:
        free, tor = over_z.groups.get((a2, m), (0, ()))
        _, tor_below = over_z.groups.get((a2, m - 1), (0, ()))
        expected = (
            free
            + sum(1 for f in tor if f % 2 == 0)
            + sum(1 for f in tor_below if f % 2 == 0)
        )
        if over_z2.rank(a2, m) != expected:
            return False
    return True


# --------------------------------------------------------------------------
# tensor-factor removal

# The full-size complexes compute the knot invariant tensored with n−1
# copies of a rank-2 factor having one generator at (0, 0) and one at
# doubled gradings (−2, −1), so
#     H(a2, m) = Σ_k  C(n−1, k) · F(a2 + 2k, m + k),   k = 0 … n−1.
# Every relation stays on one diagonal of constant 2·maslov − a2, where it
# is a binomial convolution whose first and last taps are 1, so either end
# of the diagonal can be solved for by back-substitution.


def _collect_quantities(groups: dict[tuple[int, int], Group]):
    """Split graded groups into named nonnegative integer quantities.

    Quantity None is the free rank; an integer f > 1 names the multiplicity
    of the torsion factor Z/f.  Deconvolution treats each independently.
    """
    out: dict[tuple[int, int], dict] = {}
    for key, (rank, torsion) in groups.items():
        q: dict = {}
        if rank:
            q[None] = rank
        for f in torsion:
            q[f] = q.get(f, 0) + 1
        if q:
            out[key] = q
    return out


def _groups_from_quantities(quant: dict[tuple[int, int], dict]):
    groups: dict[tuple[int, int], Group] = {}
    for key, q in quant.items():
        rank = q.get(None, 0)
        torsion = []
        for f, mult in sorted((f, m) for f, m in q.items() if f is not None):
            torsion.extend([f] * mult)
        if rank or torsion:
            groups[key] = (rank, tuple(torsion))
    return groups


def deconvolve(h: HomologyResult, n: int) -> dict[tuple[int, int], Group]:
    """Remove the (n−1)-fold rank-2 tensor factor.  Keys stay doubled."""
    return reconstruct_skipped(h, set(), n)


def reconstruct_skipped(
    h_partial: HomologyResult, skipped: set[int], n: int
) -> dict[tuple[int, int], Group]:
    """Remove the tensor factor when some doubled Alexander gradings were skipped.

    On each diagonal, and for each quantity, let ``lo`` and ``hi`` span the
    computed and skipped gradings there.  Multiplicities are nonnegative,
    so the answer F lives in ``[lo + 2(n−1), hi]``.  Above the highest
    skipped grading F is solved top-down, each relation read at its own
    grading; up to that grading it is solved bottom-up, each relation read
    2(n−1) below, where the skipped gradings, which fit in n−1 consecutive
    slices, cannot be.  F is then convolved back and must reproduce every
    computed group.  Keys stay doubled.
    """
    if len(skipped) > n - 1:
        raise UnderdeterminedSkip(
            f"{len(skipped)} skipped gradings exceed the limit {n - 1}"
        )
    width = 2 * (n - 1)
    if skipped and max(skipped) - min(skipped) >= width:
        raise UnderdeterminedSkip(
            f"skipped gradings {sorted(skipped)} do not fit in {n - 1} "
            "consecutive slices"
        )
    quant = _collect_quantities(h_partial.groups)
    if any(key[0] in skipped for key in quant):
        raise InconsistentTensor("partial homology reports a skipped grading")

    diagonals: dict[tuple[int, object], dict[int, int]] = {}
    for (a2, m), q in quant.items():
        for name, mult in q.items():
            diagonals.setdefault((2 * m - a2, name), {})[a2] = mult
    taps = [comb(n - 1, k) for k in range(n)]
    out: dict[tuple[int, int], dict] = {}
    for (delta2, name), h in diagonals.items():
        lo = min(skipped | h.keys())
        hi = max(skipped | h.keys())
        # the highest grading solved bottom-up (none without skips)
        last = max(skipped, default=lo + width - 2)
        f: dict[int, int] = {}
        for a2 in [
            *range(hi, max(lo + width, last + 2) - 1, -2),
            *range(lo + width, last + 1, 2),
        ]:
            # the relation read at `base` has tap 1 on a2, whose F is unset
            base = a2 if a2 > last else a2 - width
            f[a2] = h.get(base, 0) - sum(
                taps[k] * f.get(base + 2 * k, 0) for k in range(n)
            )
        back: dict[int, int] = {}
        for a2, mult in f.items():
            if mult < 0:
                raise InconsistentTensor(
                    f"negative multiplicity {mult} at (a2={a2}, 2m−a2={delta2})"
                )
            for k in range(n):
                back[a2 - 2 * k] = back.get(a2 - 2 * k, 0) + taps[k] * mult
        if any(
            back.get(a2, 0) != h.get(a2, 0)
            for a2 in back.keys() | h.keys()
            if a2 not in skipped
        ):
            raise InconsistentTensor(
                f"diagonal 2m−a2={delta2} is not reproduced by the tensor product"
            )
        for a2, mult in f.items():
            if not mult:
                continue
            if (delta2 + a2) % 2:
                raise InconsistentTensor("half-integral Maslov grading")
            out.setdefault((a2, (delta2 + a2) // 2), {})[name] = mult
    return _groups_from_quantities(out)


# --------------------------------------------------------------------------
# the invariant table


def make_table(
    groups_doubled: dict[tuple[int, int], Group], ring: str
) -> HFKTable:
    """Fold doubled-Alexander groups into the final invariant table."""
    groups: dict[tuple[int, int], Group] = {}
    for (a2, m), group in groups_doubled.items():
        if _is_zero(group):
            continue
        if a2 % 2:
            raise InvalidInvariant(f"odd doubled Alexander grading {a2} for a knot")
        groups[(a2 // 2, m)] = group
    if not groups:
        raise InvalidInvariant("empty invariant table")
    genus = max(a for a, _ in groups)
    top_rank = sum(r for (a, _), (r, _) in groups.items() if a == genus)
    top_torsion = any(t for (a, _), (_, t) in groups.items() if a == genus)
    torsion_free = not any(t for _, t in groups.values())
    return HFKTable(
        ring=ring,
        groups=dict(sorted(groups.items())),
        genus=genus,
        fibered=top_rank == 1 and not top_torsion,
        torsion_free=torsion_free,
    )


def auto_skip(sizes: dict[int, int], n: int) -> set[int]:
    """The n−1 consecutive doubled Alexander gradings with the most generators.

    Windows start at each grading present, and ties go to the lowest start;
    `reconstruct_skipped` can rebuild any such window.
    """
    windows = [{a2 + 2 * k for k in range(n - 1)} & sizes.keys() for a2 in sorted(sizes)]
    return max(windows, key=lambda w: sum(sizes[a2] for a2 in w), default=set())


# --------------------------------------------------------------------------
# pipelines


@dataclass
class PipelineReport:
    """A computed table plus the checks performed along the way."""

    table: HFKTable
    homology: HomologyResult
    pipeline: str
    checks: tuple[str, ...] = ()


def hfk_cells(g: GridDiagram, ring: str = "Z") -> PipelineReport:
    """The n!-generator rectangle-complex pipeline.

    The gradings and ``d^2 = 0`` are checked on the complex before it is
    reduced, so every run of the oracle verifies its sign assignment.
    """
    cx = mos_complex(g, ring)
    cx.check_grading()
    cx.check_d_squared()
    reduce_fast(cx)
    h = homology(cx)
    table = make_table(deconvolve(h, g.n), ring)
    return PipelineReport(table, h, "cells")


#: the fewest kept short generators whose slices are reduced on a process
#: pool; below it, forking costs more than a second core saves
PARALLEL_MIN_GENS = 2000


def slice_groups(engine: PathEngine, ring: str, keep_a2: set[int] | None) -> dict:
    """The homology groups of some Alexander slices of the short complex.

    The kept slices (None keeps all) are assembled in this process, reduced,
    and their homology taken.  Over Z the reduced complex is also taken mod
    2, and the two homologies must satisfy the universal coefficient theorem,
    which holds slice by slice.
    """
    cx = engine.short_complex(ring, keep_a2)
    reduce_fast(cx)
    h = homology(cx)
    if ring == "Z" and not universal_coefficients_consistent(h, homology(cx.mod2())):
        raise CrosscheckFailed(
            "integer and mod-2 homology of the short complex break the "
            "universal coefficient theorem"
        )
    return h.groups


#: in a forked worker, the engine and ring of its pool, set as it starts
_worker_job: list = []


def _kept_groups(engine: PathEngine, ring: str, keep_a2: set[int] | None) -> dict:
    """`slice_groups` of the kept slices: in one call, or one task per slice.

    The pool has one forked worker per CPU, at most one per slice, and runs
    when the slices hold at least `PARALLEL_MIN_GENS` generators and two or
    more CPUs are free (never without ``fork``).  Workers inherit the engine:
    a2 keys go in, groups come out, merged in a2 order.  Slices go largest
    first; a worker's exception reaches the caller as it was raised, after
    pending slices are cancelled.
    """
    sizes = engine.slice_sizes
    kept = [a2 for a2 in sizes if keep_a2 is None or a2 in keep_a2]
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(len(kept), cpus) if hasattr(os, "fork") else 1
    if workers < 2 or sum(map(sizes.get, kept)) < PARALLEL_MIN_GENS:
        return slice_groups(engine, ring, keep_a2)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_worker_job.extend,
        initargs=((engine, ring),),
    )
    try:
        order = sorted(kept, key=sizes.get, reverse=True)
        futures = {a2: pool.submit(_pooled_slice_groups, a2) for a2 in order}
        for future in as_completed(futures.values()):
            future.result()
        return {k: grp for a2 in kept for k, grp in futures[a2].result().items()}
    except BrokenProcessPool as exc:
        raise SliceWorkerDied(f"a worker reducing Alexander slices died: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def _pooled_slice_groups(a2: int) -> dict:
    return slice_groups(*_worker_job, {a2})


def hfk_paths(
    g: GridDiagram,
    ring: str = "Z",
    skip: str = "none",
    omit: tuple[int, int] | None = None,
) -> PipelineReport:
    """The cancellation-path pipeline: short rows pulled lazily, slice by slice.

    The engine counts the generators of each Alexander slice without listing
    any.  The differential and every retraction event preserve a2, so the
    homology is the direct sum of the slices' (`slice_groups`, which over Z
    also checks the universal coefficient theorem).  Large inputs reduce
    each slice on its own forked worker (`_kept_groups`), so this process
    never lists a generator.
    """
    if skip not in ("auto", "none"):
        raise ValueError(f"unknown skip policy {skip!r}")
    engine = PathEngine(g, omit)
    sizes = engine.slice_sizes
    skipped = auto_skip(sizes, g.n) if skip == "auto" else set()
    keep = set(sizes) - skipped if skipped else None
    h = HomologyResult(ring, _kept_groups(engine, ring, keep))
    checks = ("universal coefficients Z vs Z/2: ok",) if ring == "Z" else ()
    table = make_table(reconstruct_skipped(h, skipped, g.n), ring)
    return PipelineReport(table, h, "ovals-paths", checks=checks)


def _first_nonzero_slice(engine: PathEngine, ring: str, order) -> tuple[int, dict]:
    """The first a2 in ``order`` whose short slice has nonzero homology."""
    for a2 in order:
        if groups := slice_groups(engine, ring, {a2}):
            return a2, groups
    raise InvalidInvariant("every Alexander slice has zero homology")


def top_invariants(
    g: GridDiagram,
    ring: str = "Z",
    omit: tuple[int, int] | None = None,
) -> tuple[int, bool]:
    """(Seifert genus, fibered) from the highest nonzero slice only.

    The stabilization factor in the computed homology only shifts gradings
    down, so at the globally highest nonzero Alexander slice the slice
    homology already equals the invariant there: `make_table` reads the
    genus and fiberedness from it as from a full table.  The short complex
    has the homology of the long one slice by slice, so the scan runs
    `slice_groups` (over Z with its universal-coefficients check) on one
    short slice at a time, from the top a2 downward, and stops at the first
    one with nonzero homology; the larger middle slices are never built.

    The lowest nonzero slice is found the same way, from the bottom up.
    It holds the invariant's bottom group shifted by the whole factor, so
    by the symmetry H(a, m) = H(−a, m − 2a) it must sit at
    ``a2_bot = −a2_top − 2(n−1)`` with ``H(a2_bot, m − a2_top − (n−1))``
    equal to ``H(a2_top, m)``; otherwise `CrosscheckFailed` is raised.
    """
    engine = PathEngine(g, omit)
    slices = list(engine.slice_sizes)
    top_a2, top = _first_nonzero_slice(engine, ring, reversed(slices))
    bot_a2, bot = _first_nonzero_slice(engine, ring, slices)
    shift = top_a2 + g.n - 1
    mirror = {(-top_a2 - 2 * (g.n - 1), m - shift): grp for (_, m), grp in top.items()}
    if bot != mirror:
        raise CrosscheckFailed(
            f"the lowest nonzero slice (a2={bot_a2}) does not mirror the highest "
            f"(a2={top_a2}): {sorted(bot.items())} vs {sorted(mirror.items())}"
        )
    table = make_table(top, ring)
    return table.genus, table.fibered
