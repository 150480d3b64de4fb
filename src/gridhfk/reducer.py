"""From boundary matrices to knot invariants.

The pipeline stages live here:

* `reduce_fast`, the one reduction: rounds of unit pivots of a
  `SparseComplex`, each round cancelled at once on its arrays;
* exact homology over Z (Smith normal form) or Z/2 (bitset rank);
* removal of the rank-2 tensor factor that the full-size complexes carry
  once per grid size beyond one, leaving the knot invariant itself: one
  back-substitution from both ends of each diagonal, per elementary
  divisor, which also rebuilds up to n−1 consecutive Alexander slices that
  were never computed;
* the derived invariants: Seifert genus, fiberedness, torsion-freeness;
* `slice_groups`, the one slice routine of `hfk_paths` (on a pool of
  forked workers for large inputs) and `top_invariants`.

Every computation is exact integer arithmetic; nothing here is floating
point.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from math import comb, gcd, lcm

import numpy as np

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
class HFKTable(HomologyResult):
    """The knot invariant: graded groups keyed by (Alexander, Maslov)."""

    genus: int
    fibered: bool
    torsion_free: bool

    def ranks(self) -> dict[tuple[int, int], int]:
        return {k: r for k, (r, _) in self.groups.items() if r}


# --------------------------------------------------------------------------
# reduction


def reduce_fast(cx: SparseComplex) -> SparseComplex:
    """Cancel unit entries on the arrays of ``cx`` until none is left, in
    rounds of pivots (`_pivots`) cancelled at once (`_cancel`).  In place."""
    alive = np.ones(len(cx.gens), dtype=bool)
    while (chosen := _pivots(cx)) is not None:
        _cancel(cx, alive, *chosen)
    index = np.cumsum(alive) - 1
    cx.gens = [cx.gens[i] for i in np.flatnonzero(alive).tolist()]
    cx.a2, cx.maslov = cx.a2[alive], cx.maslov[alive]
    cx.src, cx.dst = index[cx.src], index[cx.dst]
    return cx


def _pivots(cx: SparseComplex) -> tuple[np.ndarray, bool] | None:
    """The unit entries one round cancels, and whether the round fills in;
    None when no unit entry is left.

    The candidates are the unit entries alone at one end, in entry order
    (their cancellation adds no entry), or, when there is none, all unit
    entries, fewest fill-in products first.  An entry that is the first
    candidate at both its ends is a pivot; a round that fills in drops each
    pivot that an entry ``x_i -> y_j`` joins to an earlier one.
    """
    src, dst, n = cx.src, cx.dst, len(cx.gens)
    unit = (cx.coeff == 1) | (cx.coeff == -1)
    if not unit.any():
        return None
    into = np.bincount(dst, minlength=n)[dst]
    out = np.bincount(src, minlength=n)[src]
    lone = unit & ((into == 1) | (out == 1))
    fill = not lone.any()
    cand = np.flatnonzero(unit if fill else lone)
    if fill:
        cand = cand[np.argsort((into[cand] - 1) * (out[cand] - 1), kind="stable")]
    k = np.arange(len(cand))
    first = np.full(n, len(cand))
    np.minimum.at(first, src[cand], k)
    np.minimum.at(first, dst[cand], k)
    pivots = cand[(first[src[cand]] == k) & (first[dst[cand]] == k)]
    if fill:
        i, j = _numbered(n, src[pivots])[src], _numbered(n, dst[pivots])[dst]
        cross = (i >= 0) & (j >= 0) & (i != j)
        pivots = np.delete(pivots, np.maximum(i[cross], j[cross]))
    return pivots, fill


def _cancel(cx: SparseComplex, alive: np.ndarray, pivots: np.ndarray, fill: bool) -> None:
    """Cancel the entries ``pivots`` at once; ``alive`` marks the generators
    not yet cancelled, the only ones entries join.  The pivots' ends go, and
    with ``fill`` each ``u -> y_i`` with each ``x_i -> v`` adds ``-c(u, y_i)
    c(x_i, y_i) c(x_i, v)`` to ``u -> v`` (mod 2 over Z/2): as no ``x_i ->
    y_j`` joins two of these pivots, what cancelling them one by one gives.
    """
    src, dst, coeff, n = cx.src, cx.dst, cx.coeff, len(alive)
    x, y = src[pivots], dst[pivots]
    alive[x] = alive[y] = False
    keep = np.flatnonzero(alive[src] & alive[dst])
    cx.src, cx.dst, cx.coeff = src[keep], dst[keep], coeff[keep]
    if not fill:
        return
    into_y, from_x = _numbered(n, y)[dst], _numbered(n, x)[src]
    u = np.flatnonzero((into_y >= 0) & alive[src])
    v = np.flatnonzero((from_x >= 0) & alive[dst])
    v = v[np.argsort(from_x[v], kind="stable")]
    # u -> y_i meets the run of v out of x_i
    per = np.bincount(from_x[v], minlength=len(pivots))
    run = per[into_y[u]]
    skip = np.cumsum(per)[into_y[u]] - per[into_y[u]] - np.cumsum(run) + run
    u, v = np.repeat(u, run), v[np.repeat(skip, run) + np.arange(run.sum())]
    if coeff.dtype != object and np.abs(coeff).max() >= 2**20:
        coeff = coeff.astype(object)  # products and their sums stay exact
    fills = -coeff[u] * coeff[pivots][into_y[u]] * coeff[v]
    key = np.concatenate([cx.src * n + cx.dst, src[u] * n + dst[v]])
    order = np.argsort(key, kind="stable")
    heads = np.flatnonzero(np.diff(key[order], prepend=-1))
    sums = np.add.reduceat(np.concatenate([coeff[keep], fills])[order], heads)
    if cx.ring == "Z2":
        sums &= 1
    live = np.flatnonzero(sums)
    cx.src, cx.dst = np.divmod(key[order[heads[live]]], n)
    cx.coeff = sums[live]


def _numbered(n: int, ends: np.ndarray) -> np.ndarray:
    """Per generator, its place in ``ends`` (no repeats), else -1."""
    number = np.full(n, -1)
    number[ends] = np.arange(len(ends))
    return number


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
    pivot alone in its row and column is set aside with them, and
    `_divisibility_order` orders the set-aside pivots.  Arithmetic is exact
    arbitrary-precision integers.
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
    return _divisibility_order(diag)


def _divisibility_order(factors: list[int]) -> list[int]:
    """The cyclic factors of one group, each pair replaced by its gcd and lcm:
    the same group, each factor dividing the next."""
    for a in range(len(factors)):
        for b in range(a + 1, len(factors)):
            factors[a], factors[b] = gcd(factors[a], factors[b]), lcm(factors[a], factors[b])
    return factors


# --------------------------------------------------------------------------
# homology


def homology(cx: SparseComplex) -> HomologyResult:
    """Exact graded homology of the complex (∂² = 0 assumed), from one dense
    block per grading: `smith_invariant_factors`, or `rank_mod2` over Z/2."""
    keys = list(zip(cx.a2.tolist(), cx.maslov.tolist()))
    blocks: dict[tuple[int, int], dict] = {}
    for s, t, c in zip(cx.src.tolist(), cx.dst.tolist(), cx.coeff.tolist()):
        blocks.setdefault(keys[s], {}).setdefault(s, {})[t] = c

    # the rank of the block out of each grading, and the torsion it leaves below
    rank: dict[tuple[int, int], int] = {}
    torsion: dict[tuple[int, int], tuple[int, ...]] = {}
    for (a2, m), rows in blocks.items():
        targets = sorted({t for row in rows.values() for t in row})
        mat = [[row.get(t, 0) for t in targets] for row in rows.values()]
        if cx.ring == "Z2":
            rank[(a2, m)] = rank_mod2([sum(c << j for j, c in enumerate(row)) for row in mat])
        else:
            factors = smith_invariant_factors(mat)
            rank[(a2, m)] = len(factors)
            torsion[(a2, m - 1)] = tuple(f for f in factors if f > 1)

    groups: dict[tuple[int, int], Group] = {}
    for (a2, m), count in Counter(keys).items():
        free = count - rank.get((a2, m), 0) - rank.get((a2, m + 1), 0)
        if free < 0:
            raise InconsistentHomology(
                f"negative free rank {free} at {(a2, m)}: boundary blocks inconsistent"
            )
        if free or torsion.get((a2, m)):
            groups[(a2, m)] = (free, torsion.get((a2, m), ()))
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

    Quantity None is the free rank; a prime power q names the multiplicity
    of Z/q among the elementary divisors, which add under direct sum as
    invariant factors do not (Z/2 ⊕ Z/3 = Z/6).  Each is deconvolved alone.
    """
    out: dict[tuple[int, int], dict] = {}
    for key, (rank, torsion) in groups.items():
        q: dict = {}
        if rank:
            q[None] = rank
        for f in torsion:
            for power in _prime_powers(f):
                q[power] = q.get(power, 0) + 1
        if q:
            out[key] = q
    return out


def _prime_powers(f: int) -> list[int]:
    """The prime powers whose product is ``f`` > 0, one per prime, by trial division."""
    powers, p = [], 2
    while f > 1:
        p = f if p * p > f else p  # past the square root, what is left is prime
        if (q := gcd(f, p ** f.bit_length())) > 1:
            powers.append(q)
            f //= q
        p += 1
    return powers


def _groups_from_quantities(quant: dict[tuple[int, int], dict]):
    """The graded groups with these quantities, torsion as invariant factors."""
    groups: dict[tuple[int, int], Group] = {}
    for key, q in quant.items():
        rank = q.get(None, 0)
        powers = [f for f, mult in q.items() if f is not None for _ in range(mult)]
        torsion = tuple(f for f in _divisibility_order(powers) if f > 1)
        if rank or torsion:
            groups[key] = (rank, torsion)
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
        if not group[0] and not group[1]:
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


def _reduced_homology(cx: SparseComplex) -> HomologyResult:
    """`homology` after `reduce_fast`, for both pipelines; over Z the reduced
    complex's mod-2 homology must satisfy universal coefficients with it."""
    reduce_fast(cx)
    h = homology(cx)
    if cx.ring == "Z" and not universal_coefficients_consistent(h, homology(cx.mod2())):
        raise CrosscheckFailed(
            "integer and mod-2 homology of a reduced complex break the "
            "universal coefficient theorem"
        )
    return h


def hfk_cells(g: GridDiagram, ring: str = "Z") -> PipelineReport:
    """The n!-generator rectangle-complex pipeline.

    `mos_complex` checks the gradings and ``d^2 = 0`` as it builds the
    complex, before `reduce_fast` cancels anything, so every run of the
    oracle verifies its sign assignment; over Z its reduced complex is
    also held to the universal coefficient theorem (`_reduced_homology`).
    """
    h = _reduced_homology(mos_complex(g, ring))
    table = make_table(deconvolve(h, g.n), ring)
    return PipelineReport(table, h, "cells")


#: the fewest kept short generators whose slices are reduced on a process
#: pool; below it, forking costs more than a second core saves
PARALLEL_MIN_GENS = 2000


def slice_groups(engine: PathEngine, ring: str, keep_a2: set[int] | None) -> dict:
    """The homology groups of some Alexander slices of the short complex.

    The kept slices (None keeps all) are assembled in this process, reduced,
    and their homology taken, over Z with the universal-coefficients check
    (`_reduced_homology`), which holds slice by slice.
    """
    return _reduced_homology(engine.short_complex(ring, keep_a2)).groups


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
    sizes = engine.short_cfg.slice_sizes
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
    sizes = engine.short_cfg.slice_sizes
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
    slices = list(engine.short_cfg.slice_sizes)
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
