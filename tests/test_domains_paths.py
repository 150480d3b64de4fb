"""Domain solver and path-counted short differentials."""

import concurrent.futures
import os
import re
from array import array
from fractions import Fraction

import numpy as np
import pytest

from conftest import BRAIDS, random_grid
from references import (
    columns,
    corner_index,
    faithful_short,
    long_gradings,
    refilled,
    short_complex_digest,
    validate_periodic_domains,
)

from gridhfk import domains_paths, reducer
from gridhfk.chains import LongMoves, SparseComplex, long_complex, oval_generators
from gridhfk.domains_paths import DomainSolver, PathEngine, find_domain
from gridhfk.cli import main
from gridhfk.errors import (
    BoundarySquareNonzero,
    CancelledTargetReached,
    DomainSystemSingular,
    GradingViolation,
    MissingDomain,
    ScheduleAssertionFailed,
    SliceWorkerDied,
)
from gridhfk.gridkit import GridDiagram, parse_braid
from gridhfk.simplifier import minimize
from gridhfk.ovalgeo import (
    Arrangement,
    build_config,
    omission_candidates,
    on_boundary,
    select_best_config,
)
from gridhfk.reducer import (
    auto_skip,
    deconvolve,
    hfk_cells,
    hfk_paths,
    homology,
    make_table,
    reduce_fast,
)

UNKNOT2 = GridDiagram((1, 0), (0, 1))

# A grid whose short complex has a nonzero differential (32 unit entries);
# most small grids retract to a complex with no differential at all, which
# would leave the path machinery untested.
NONZERO_SHORT = GridDiagram((4, 1, 2, 3, 0), (2, 4, 3, 0, 1))


def rational_solver(arr):
    """Exact rational row reduction of the corner system, solved per query."""
    crossings = sorted(arr.config.all_points())
    pinned = set(arr.puncture_pieces().values()) | {arr.unbounded_piece()}
    free = [k for k in range(arr.piece_count) if k not in pinned]
    col_of = {k: j for j, k in enumerate(free)}
    rows = []
    for p in crossings:
        row = [Fraction(0)] * len(free)
        for piece, s in zip(arr.corner_pieces(p), (1, -1, 1, -1)):
            if piece in col_of:
                row[col_of[piece]] += s
        rows.append(row)

    def solve(targets):
        aug = [
            row + [Fraction(targets.get(p, 0))] for row, p in zip(rows, crossings)
        ]
        r = 0
        pivots = []
        for c in range(len(free)):
            pivot = next((i for i in range(r, len(aug)) if aug[i][c]), None)
            if pivot is None:
                continue
            aug[r], aug[pivot] = aug[pivot], aug[r]
            aug[r] = [v / aug[r][c] for v in aug[r]]
            for i in range(len(aug)):
                if i != r and aug[i][c]:
                    f = aug[i][c]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
            pivots.append(c)
            r += 1
        if any(aug[i][-1] for i in range(r, len(aug))):
            return None
        domain = {}
        for i, c in enumerate(pivots):
            val = aug[i][-1]
            if val < 0 or val.denominator != 1:
                return None
            if val:
                domain[free[c]] = int(val)
        return domain

    return solve


class TestFindDomain:
    def long_arrangement_n2(self):
        config = build_config(UNKNOT2, (1, 1), "long")
        return config, Arrangement(config)

    def test_identical_generators_have_no_domain(self):
        config, arr = self.long_arrangement_n2()
        for x, _ in oval_generators(config):
            assert find_domain(arr, x, x) is None

    def test_bigon_domain_is_one_piece_once(self):
        # frozen micro complex: the entry ((3,6),) -> ((3,4),) is a bigon
        config, arr = self.long_arrangement_n2()
        domain = find_domain(arr, ((3, 6),), ((3, 4),))
        assert domain is not None
        assert sorted(domain.values()) == [1]
        # corner indices of the found domain: +1 at the source point,
        # -1 at the target point, 0 at the other two crossings
        assert corner_index(arr, domain, (3, 6)) == 1
        assert corner_index(arr, domain, (3, 4)) == -1
        assert corner_index(arr, domain, (7, 4)) == 0
        assert corner_index(arr, domain, (7, 6)) == 0

    def test_punctured_cap_has_no_domain(self):
        # the reverse of the bigon flip would sweep the punctured cap
        config, arr = self.long_arrangement_n2()
        assert find_domain(arr, ((3, 4),), ((3, 6),)) is None

    def test_short_tip_bigon_is_punctured(self):
        # n=2 short configuration: two generators, their only connecting
        # bigon contains the shared puncture, so no domain and no entry
        config = build_config(UNKNOT2, (1, 1), "short")
        arr = Arrangement(config)
        gens = [x for x, _ in oval_generators(config)]
        assert len(gens) == 2
        for x in gens:
            for y in gens:
                assert find_domain(arr, x, y) is None

    def test_domain_exists_for_every_long_entry(self):
        config = build_config(UNKNOT2, (1, 1), "long")
        arr = Arrangement(config)
        cx = long_complex(UNKNOT2, (1, 1))
        for x, row in cx.rows.items():
            for y, coeff in row.items():
                assert coeff
                assert find_domain(arr, x, y) is not None

    def test_nonnegativity_rejects_reverse_rectangles(self, rng):
        # on random grids, every edge's reverse needs a negative domain
        for _ in range(3):
            g = random_grid(3, rng)
            omit = select_best_config(g).omit
            config = build_config(g, omit, "long")
            arr = Arrangement(config)
            cx = long_complex(g, omit)
            checked = 0
            rows = cx.rows
            for x, row in rows.items():
                for y in row:
                    assert find_domain(arr, x, y) is not None
                    if not rows[y].get(x):
                        assert find_domain(arr, y, x) is None
                        checked += 1
            assert checked

    def test_integer_solver_matches_rational_reduction(self, rng):
        found = 0
        for n, style in ((3, "long"), (4, "short"), (4, "long"), (5, "short")):
            g = random_grid(n, rng)
            for omit in omission_candidates(g):
                config = build_config(g, omit, style)
                arr = Arrangement(config)
                solver = DomainSolver(arr)
                reference = rational_solver(arr)
                gens = [x for x, _ in oval_generators(config)]
                for _ in range(30):
                    x, y = rng.choice(gens), rng.choice(gens)
                    targets = dict.fromkeys(set(x) - set(y), 1)
                    targets.update(dict.fromkeys(set(y) - set(x), -1))
                    domain = solver.solve(targets)
                    assert domain == reference(targets), (g, omit, style, x, y)
                    found += domain is not None
                # single unit corner indices: mostly inconsistent or negative
                for p in rng.sample(config.all_points(), 10):
                    assert solver.solve({p: 1}) == reference({p: 1})
        assert found

    def test_column_without_unit_pivot_raises(self, monkeypatch):
        omit = select_best_config(NONZERO_SHORT).omit
        arr = Arrangement(build_config(NONZERO_SHORT, omit, "short"))
        piece = DomainSolver(arr).free[0]
        corners = Arrangement.corner_pieces

        def doubled(self, p):
            # a corner at `piece` takes the opposite corner too, so every
            # entry of the piece's column, and of any row sum, is even
            ne, nw, sw, se = corners(self, p)
            if piece in (ne, sw):
                ne = sw = piece
            if piece in (nw, se):
                nw = se = piece
            return ne, nw, sw, se

        monkeypatch.setattr(Arrangement, "corner_pieces", doubled)
        with pytest.raises(DomainSystemSingular, match=f"piece {piece}:"):
            DomainSolver(arr)

    def test_solver_uniqueness_assertion_holds(self, rng):
        for n in (2, 3, 4):
            g = random_grid(n, rng)
            omit = select_best_config(g).omit
            for style in ("long", "short"):
                config = build_config(g, omit, style)
                arr = Arrangement(config)
                validate_periodic_domains(arr)
                solver = DomainSolver(arr)
                assert solver.rank == len(solver.free)


class TestPathEngine:
    def assert_matches_faithful(self, g, omit=None):
        if omit is None:
            omit = select_best_config(g).omit
        cx = faithful_short(g, omit)
        eng = PathEngine(g, omit)
        pcx = eng.short_complex()
        assert cx.grading == pcx.grading
        rows = pcx.rows
        for x, row in cx.rows.items():
            assert row == rows[x]
        # its entries keep the gradings and square to zero; units are not
        # checked: a short entry sums paths and need not be +-1
        refilled(pcx)
        return cx, eng

    def test_unknot_rows_empty(self):
        eng = PathEngine(UNKNOT2)
        for x, a2 in oval_generators(eng.short_cfg):
            assert eng.short_complex("Z", {a2}).rows[x] == {}

    def test_matches_faithful_on_trefoil(self):
        cx, eng = self.assert_matches_faithful(parse_braid(BRAIDS["trefoil"]))
        assert cx.entry_count == 0
        # short_complex keeps nothing on the engine, and the closure of the
        # short generators forms the long rows of only a fraction of the
        # long generators (229 of 6,144); the domain solver is built on the
        # first domain pass, and kept
        eng._columns
        state = engine_state(eng)
        eng.short_complex()
        assert engine_state(eng) == state
        long_count = len(oval_generators(build_config(eng.grid, eng.short_cfg.omit, "long")))
        closure = eng._closure(eng.moves.encode(list(cx.rows)))
        assert len(cx.rows) < len(closure.bounds) - 1 < long_count // 20

    def test_matches_faithful_on_nonzero_short(self):
        cx, _ = self.assert_matches_faithful(NONZERO_SHORT)
        assert cx.entry_count == 32
        coeffs = {c for row in cx.rows.values() for c in row.values()}
        assert coeffs == {1, -1}

    def test_matches_faithful_on_random_grids(self, rng):
        for _ in range(5):
            self.assert_matches_faithful(random_grid(rng.choice([3, 4]), rng))

    def test_every_omission_agrees(self, rng):
        # every marking the engine accepts as the omission, X or O
        g = random_grid(4, rng)
        markings = [(c, r) for c in range(g.n) for r in (g.xs[c], g.os[c])]
        boundary = [cell for cell in markings if on_boundary(g, cell)]
        assert len(boundary) >= 4
        for omit in boundary:
            self.assert_matches_faithful(g, omit)

    def test_no_domain_forces_zero_entry(self):
        # the prefilter is a sound one-sided test on the nonzero fixture
        eng = PathEngine(NONZERO_SHORT)
        arr = Arrangement(eng.short_cfg)
        pcx = eng.short_complex()
        grading, rows = pcx.grading, pcx.rows
        discarded = 0
        for x in grading:
            a2x, mx = grading[x]
            for y in grading:
                a2y, my = grading[y]
                if a2x != a2y or my != mx - 1:
                    continue
                if find_domain(arr, x, y) is None:
                    assert rows[x].get(y, 0) == 0
                    discarded += 1
        assert discarded

    def test_prefilter_runs_inside_short_row(self):
        eng = PathEngine(NONZERO_SHORT)
        for a2 in eng.short_cfg.slice_sizes:
            eng.short_complex("Z", {a2})  # raises if a nonzero entry lacks a domain

    def test_entry_without_domain_is_a_typed_failure(self, monkeypatch):
        eng = PathEngine(NONZERO_SHORT)
        cx = eng.short_complex()
        # the first row with an entry, in its slice too
        x = next(x for x, row in cx.rows.items() if row)
        monkeypatch.setattr(PathEngine, "_without_domain", no_domain_anywhere)
        with pytest.raises(MissingDomain, match=f"from {re.escape(str(x))} to .* has no domain"):
            eng.short_complex("Z", {cx.grading[x][0]})

    @pytest.mark.parametrize(
        "g, joined", [(NONZERO_SHORT, 32), (minimize(parse_braid(BRAIDS["5_2"])), 0)]
    )
    def test_domain_pass_agrees_with_find_domain(self, g, joined):
        # every ordered pair of short generators of one a2, x == y included;
        # this takes in the Maslov-adjacent pairs, which 5_2 lacks: each of
        # its slices lies in one Maslov grading.  ``joined`` pairs have a
        # domain: on NONZERO_SHORT, those of its 32 entries
        eng = PathEngine(g)
        arr = Arrangement(eng.short_cfg)
        slices = {}
        for x, a2 in oval_generators(eng.short_cfg):
            slices.setdefault(a2, []).append(x)
        pairs = [(x, y) for xs in slices.values() for x in xs for y in xs]
        xs, ys = zip(*pairs)
        missing = eng._without_domain(eng.moves.encode(xs), eng.moves.encode(ys)).tolist()
        assert missing == [find_domain(arr, x, y) is None for x, y in pairs]
        assert all(m for m, (x, y) in zip(missing, pairs) if x == y)
        assert missing.count(False) == joined

    def test_slices_are_assembled_apart(self):
        # dropping the reduced rows between Alexander slices, and forming
        # one closure per slice, change no entry
        eng = PathEngine(NONZERO_SHORT)
        eng._columns  # the domain solver, which the engine builds once and keeps
        state = engine_state(eng)
        rows = eng.short_complex().rows
        assert engine_state(eng) == state
        for a2 in eng.short_cfg.slice_sizes:
            for x, row in eng.short_complex("Z", {a2}).rows.items():
                assert row == rows[x]

    def test_solver_is_built_on_first_use(self, monkeypatch):
        built = []
        init = DomainSolver.__init__

        def counted(self, arr):
            built.append(arr)
            init(self, arr)

        monkeypatch.setattr(DomainSolver, "__init__", counted)
        # the top and bottom slices of 5_2 and 8_19 hold no short entry, so
        # genus and fiberedness certify none and build no domain solver
        for name in ("5_2", "8_19"):
            reducer.top_invariants(minimize(parse_braid(BRAIDS[name])))
        assert built == []
        # 8_20's top slice has entries; its engine builds one solver and keeps it
        reducer.top_invariants(minimize(parse_braid(BRAIDS["8_20"])))
        assert len(built) == 1
        # a table built in this process, slice by slice, builds one too
        monkeypatch.setattr(reducer, "PARALLEL_MIN_GENS", 10**9)
        hfk_paths(minimize(parse_braid(BRAIDS["figure8"])))
        assert len(built) == 2

    def test_homology_agrees_with_cell_pipeline(self):
        for g in (UNKNOT2, NONZERO_SHORT, parse_braid(BRAIDS["trefoil"])):
            pcx = PathEngine(g).short_complex()
            table = make_table(deconvolve(homology(pcx), g.n), "Z")
            assert table.groups == hfk_cells(g).table.groups


class TestRecursionChecks:
    """The checks of the cancellation recursion raise through the batched engine."""

    def test_non_unit_pivot_is_a_typed_failure(self, monkeypatch):
        closure = PathEngine._closure

        def doubled(self, ids):
            # every long entry doubled: every pivot is even
            cl = closure(self, ids)
            return cl._replace(signs=array("b", [2 * c for c in cl.signs]))

        monkeypatch.setattr(PathEngine, "_closure", doubled)
        with pytest.raises(ScheduleAssertionFailed, match="path pivot .* is not a unit"):
            PathEngine(NONZERO_SHORT).short_complex()

    def test_non_unit_pivot_at_a_dead_end_is_a_typed_failure(self, monkeypatch):
        prune = domains_paths._prune
        doubled = set()

        def doubling(link, owner, lengths, targets, signs):
            # only the dead ends' pivots doubled, and the recursion never
            # reaches a dead end: the pruning pass must check them
            dead = dead_ends(link, owner, lengths, targets)
            partner = {s: v for v, s in enumerate(link.tolist()) if s in dead}
            row_owner = np.repeat(owner, lengths).tolist()
            signs = signs.copy()
            for e, (s, w) in enumerate(zip(row_owner, targets.tolist())):
                if partner.get(s) == w:
                    signs[e] *= 2
            doubled.update(dead)
            return prune(link, owner, lengths, targets, signs)

        monkeypatch.setattr(domains_paths, "_prune", doubling)
        with pytest.raises(ScheduleAssertionFailed, match="path pivot -?2 is not a unit") as info:
            PathEngine(NONZERO_SHORT).short_complex()
        assert int(re.search(r"source (\d+)", str(info.value))[1]) in doubled

    def test_cancelled_target_is_a_typed_failure(self, monkeypatch):
        reduce = PathEngine._reduce

        def leaky(self, cl, groups):
            rows = reduce(self, cl, groups)
            assert cl.cancelled > 0
            rows[0][0] = 1  # number 0 is the first cancelled generator
            return rows

        monkeypatch.setattr(PathEngine, "_reduce", leaky)
        with pytest.raises(CancelledTargetReached):
            PathEngine(NONZERO_SHORT).short_complex()


class TestShortComplexChecks:
    """A fault planted in the short complex is found as it is built: its
    gradings and ``d^2 = 0`` are checked by `SparseComplex.from_arrays`."""

    #: 7_1 at grid size 9: its slice a2 = 2 (125 generators, 104 entries)
    #: is the cheapest whose boundary forms d∘d products (24 of them); no
    #: short complex of a `BRAIDS` knot forms any
    SEVEN_ONE = [1] * 7

    def test_negated_short_entry(self, monkeypatch):
        eng = PathEngine(minimize(parse_braid(self.SEVEN_ONE)))
        reduce = PathEngine._reduce
        planted = []

        def negated(self, cl, groups):
            # the first entry whose target has a row of its own: its
            # products no longer cancel
            rows = reduce(self, cl, groups)
            has_row = {u for u, row in zip(cl.roots, rows) if row}
            row = next(row for row in rows if has_row.intersection(row))
            v = next(v for v in row if v in has_row)
            row[v] = -row[v]
            planted.append(v)
            return rows

        monkeypatch.setattr(PathEngine, "_reduce", negated)
        points = r"^d\^2 has entry -?\d+ from \(\(.+\)\) to \(\(.+\)\)$"
        with pytest.raises(BoundarySquareNonzero, match=points):
            eng.short_complex("Z", {2})
        assert planted

    def test_shifted_short_maslov_grading(self, monkeypatch):
        eng = PathEngine(NONZERO_SHORT)
        cx = eng.short_complex()
        x = next(x for x, row in cx.rows.items() if row)
        maslov = LongMoves.maslov
        planted = eng.moves.encode([x])

        def shifted(moves, ids):
            return maslov(moves, ids) + (ids == planted).all(axis=1)

        monkeypatch.setattr(LongMoves, "maslov", shifted)
        with pytest.raises(GradingViolation, match=r"^edge .* goes from grading"):
            eng.short_complex()
        with pytest.raises(GradingViolation):
            eng.short_complex("Z2", {cx.grading[x][0]})

    def test_mod2_copy_is_checked(self):
        # a toy stored as it is given, unchecked, whose boundary does not
        # square to zero: its mod-2 copy is built, and checked, by
        # `from_arrays`, and the entry 2 is dropped from it
        labels, a2, maslov = ["a", "b", "c", "d"], np.zeros(4, int), np.array([2, 1, 0, 1])
        entries = np.array([0, 1, 0]), np.array([1, 2, 3]), np.array([1, 1, 2])
        cx = SparseComplex("Z", labels, a2, maslov, *entries)
        with pytest.raises(BoundarySquareNonzero, match=r"^d\^2 has entry 1 from a to c$"):
            cx.mod2()
        without_b_c = [0, 2]
        cx = SparseComplex("Z", labels, a2, maslov, *(e[without_b_c] for e in entries))
        assert cx.mod2().rows == {"a": {"b": 1}, "b": {}, "c": {}, "d": {}}


class TestMod2Route:
    def test_mod2_complex_is_reduction(self):
        eng = PathEngine(NONZERO_SHORT)
        z_cx = eng.short_complex("Z")
        z2_cx = eng.short_complex("Z2")
        assert z_cx.grading == z2_cx.grading
        z2_rows = z2_cx.rows
        for x, row in z_cx.rows.items():
            assert {y for y, c in row.items() if c % 2} == set(z2_rows[x])


def dead_ends(link, owner, lengths, targets):
    """The dead-end sources of the arguments of `domains_paths._prune`.

    One source row at a time, by increasing limit: each rests only on the
    sources of targets below its limit, whose limits are smaller.
    """
    link, targets = link.tolist(), targets.tolist()
    partner = {s: v for v, s in enumerate(link) if s >= 0}
    starts = np.concatenate([[0], np.cumsum(lengths)]).tolist()
    dead = set()
    for limit, s, r in sorted(
        (min(s, partner[s]), s, r) for r, s in enumerate(owner.tolist()) if s in partner
    ):
        if all(
            w == partner[s] or (w < limit and link[w] in dead)
            for w in targets[starts[r] : starts[r + 1]]
        ):
            dead.add(s)
    return dead


def test_dead_ends_are_pruned_on_8_20(monkeypatch):
    # the pruning leaves every digest as it is, so only counts can show it
    # happens: 8_20's full closure at its default placement
    eng = PathEngine(minimize(parse_braid(BRAIDS["8_20"])))
    calls = []
    prune = domains_paths._prune

    def spy(*args):
        calls.append(args)
        return prune(*args)

    monkeypatch.setattr(domains_paths, "_prune", spy)
    cl = eng._closure(eng.moves.encode([x for x, _ in oval_generators(eng.short_cfg)]))
    [(link, owner, lengths, targets, _)] = calls
    assert (len(owner), len(targets)) == (98_437, 193_796)
    dead = dead_ends(link, owner, lengths, targets)
    assert len(dead) == 60_112
    assert len(cl.targets) == 132_834
    # what is left: the entries to no dead end's partner, and the pivots
    link = link.tolist()
    pivot = {s: v for v, s in enumerate(link) if s in dead}
    kept = sum(
        link[w] not in dead or pivot.get(s) == w
        for s, w in zip(np.repeat(owner, lengths).tolist(), targets.tolist())
    )
    assert kept == len(cl.targets)


def no_domain_anywhere(eng, x, y):
    """A domain pass that finds no domain for any entry."""
    return np.ones(len(x), dtype=bool)


def ordered(cx):
    """Gradings, rows and columns of a complex, in insertion order."""
    return (
        list(cx.grading.items()),
        [(x, list(row.items())) for x, row in cx.rows.items()],
        [(y, list(col.items())) for y, col in columns(cx).items()],
    )


def walk_order_complex(eng, ring, keep):
    """The short complex built in the order of a fresh `oval_generators` walk,
    its rows formed as one slice."""
    listed = oval_generators(eng.short_cfg, keep)
    gens = [x for x, _ in listed]
    a2, maslov = np.array([long_gradings(eng.moves, x) for x in gens]).reshape(-1, 2).T
    rows = eng._short_rows(eng.moves.encode(gens), [len(gens)])
    return SparseComplex.from_arrays(ring, gens, a2, maslov, *rows)


def engine_state(eng):
    """The engine's attributes, by identity: unchanged by a call that keeps nothing."""
    return {name: id(value) for name, value in vars(eng).items()}


def kept_by_auto_skip(eng, n):
    """The a2 slices `hfk_paths` keeps with ``--skip auto``."""
    sizes = {}
    for _, a2 in oval_generators(eng.short_cfg):
        sizes[a2] = sizes.get(a2, 0) + 1
    return set(sizes) - auto_skip(sizes, n)


#: SHA-256 (`short_complex_digest`) of `PathEngine.short_complex` on the
#: minimized `BRAIDS` grids at their default omission, by knot, ring and
#: kept slices (all, those `--skip auto` keeps, the top one); any change to
#: an entry, a generator or their insertion order shows here.  Figure-eight
#: (at (0, 2), 72 entries) and 8_19 pin signs too: their Z and Z/2 digests
#: of the whole complex differ
SHORT_COMPLEX_DIGESTS = {
    ("figure8", "Z", "all"): "496b720af618a5d70bc1ca4ba93be6a12034c5b555caa6ef82ce2aaf70579f9b",
    ("figure8", "Z", "auto"): "80e4179e0255791f3f6d970af6777ee23d783857974b7f30fb91cd96d72ada72",
    ("figure8", "Z", "top"): "cef5c3dd9bd842ad6d31fa7894a3f5dfa2bf71a87c9a8a8b654ad7cbd68a1ac1",
    ("figure8", "Z2", "all"): "50032c2bd4bdb5e9f801e7c6ab17f3ea8cc5b119f8439e0b3d12f5e7d3b9a10d",
    ("figure8", "Z2", "auto"): "80e4179e0255791f3f6d970af6777ee23d783857974b7f30fb91cd96d72ada72",
    ("figure8", "Z2", "top"): "cef5c3dd9bd842ad6d31fa7894a3f5dfa2bf71a87c9a8a8b654ad7cbd68a1ac1",
    ("5_2", "Z", "all"): "44cc02d62fea95a18df514503ebaf63706c9c5f7b4659be0599badabfb6c771b",
    ("5_2", "Z", "auto"): "5a6188fe55081ef65bfb407ccf19adbcc38450009258b3ec66a63f466386c989",
    ("5_2", "Z", "top"): "5bc87d6ade7ecac14c558deae1b87098f1a70eeedd3bf836f5004e3463d8eff8",
    ("5_2", "Z2", "all"): "44cc02d62fea95a18df514503ebaf63706c9c5f7b4659be0599badabfb6c771b",
    ("5_2", "Z2", "auto"): "5a6188fe55081ef65bfb407ccf19adbcc38450009258b3ec66a63f466386c989",
    ("5_2", "Z2", "top"): "5bc87d6ade7ecac14c558deae1b87098f1a70eeedd3bf836f5004e3463d8eff8",
    ("8_19", "Z", "all"): "9b899ab7aaf6a96a0f9f9b137a3e9d9d09d03e1817e65b869780e57a638a6b31",
    ("8_19", "Z", "auto"): "1261adae9b95ccf8e9a79b31d66559713ec5d009ececef2e2cb337b50bfa97e8",
    ("8_19", "Z", "top"): "516f0e2c60027817390a4c00cc98f5bc8189254dc81b9955e6c33545cbe28a9b",
    ("8_19", "Z2", "all"): "ba16ca5a2730eb2929d6f116fec62b443b6254f77470b4b62da9cf70864c3ed9",
    ("8_19", "Z2", "auto"): "43664a102b734ef8606c397fecdeb2723b27046acb6efa764a43b75c379a17c2",
    ("8_19", "Z2", "top"): "516f0e2c60027817390a4c00cc98f5bc8189254dc81b9955e6c33545cbe28a9b",
    ("8_20", "Z", "all"): "22175d444b40acb19eeba94a3520985dcdbcdff6e2e8fc0c2387bcf826a47afb",
}


#: SHA-256 (`short_complex_digest`) over Z of single Alexander slices of the
#: grids the command line reaches past the crosscheck, at their default
#: placement: the lowest and highest slices and the third from each end
#: (which carry entries), recorded before the path engine was batched;
#: packed keys and their order are checked at n = 9, 10 and 11
LARGE_SLICE_DIGESTS = {
    "7_1": (
        ([1] * 7, 9),
        {
            -22: "ec3f62b66947f36644b98744bd3399cd922fef8d26742b543cb8710dcca036a4",
            -18: "fca7fb7106cfc2de641d4eb2b835c37cf15f986fc06c9a8cc2039435bd14bfe4",
            2: "f01a33712f87c663cac731204749287af9596346c163faa87af88c8d38faa7c3",
            6: "af955fecb48c0ef4ec0e2a6a444e8c4347b3441dfe8fe0e744c50c1e64f00385",
        },
    ),
    "T(3,7)": (
        ([1, 2] * 7, 10),
        {
            -30: "19ffe603423e72dcc3a5e9dfc19043c8987516c1f4973ac92468265eda98a6b2",
            -26: "797d2aaad4b1d44626aa3eea36e596e6e26cd04388fb7850a6a67a6e829133ed",
            8: "857fa63e81ae294f48dd7fba329a72a25b0a96f62cdac2e07497be287f0998c3",
            12: "c9134b159a76e0f5579a589ecfb7d1459ce31189f25f368199539dd3cd8edc0d",
        },
    ),
    "T(2,9)": (
        ([1] * 9, 11),
        {
            -28: "b6e979fca32a259bf2d5d51832d8042a1e3e6838780040ec5a36707e6249149d",
            -24: "f9a49d60e9af277411ad357a5bc4f929dbb84d33706cf04f02b8edbefcca7f0c",
            4: "1ac03d93b7b8af60eb0a3c50811f552462c2a3df223fb78d62d0164aa58fa1bf",
            8: "36e34c99c6f988dc2e62988d75f392c6eaad60afd914e89d18cb0ec1701282e8",
        },
    ),
}


@pytest.mark.parametrize("name", list(LARGE_SLICE_DIGESTS))
def test_large_grid_slices_are_pinned(name):
    (word, n), pins = LARGE_SLICE_DIGESTS[name]
    g = minimize(parse_braid(word))
    assert g.n == n
    eng = PathEngine(g)
    a2s = list(eng.short_cfg.slice_sizes)
    assert set(pins) == {a2s[0], a2s[2], a2s[-3], a2s[-1]}
    for a2, digest in pins.items():
        assert short_complex_digest(eng.short_complex("Z", {a2})) == digest, a2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
class TestPooledSlices:
    """`hfk_paths` on a process pool: each worker reduces its own slices, and
    the groups, the checks and the failures are those of one process."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @pytest.fixture
    def pools(self, monkeypatch):
        """Counts the executors `hfk_paths` creates."""
        created = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        return created

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("an executor was created")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)

    @pytest.fixture
    def in_workers_only(self, monkeypatch):
        """Makes ``name`` of ``owner`` raise in this process; forked workers
        inherit the patch and run the original."""
        parent = os.getpid()

        def patch(owner, name):
            original = getattr(owner, name)

            def guarded(*args, **kwargs):
                if os.getpid() == parent:
                    raise RuntimeError(f"{name} ran in the main process")
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, guarded)

        return patch

    @pytest.mark.parametrize("name", ["figure8", "5_2", "8_19"])
    def test_pooled_complex_is_identical(self, name, monkeypatch, two_cpus, pools):
        g = minimize(parse_braid(BRAIDS[name]))
        eng = PathEngine(g)
        slices = {a2 for _, a2 in oval_generators(eng.short_cfg)}
        keeps = {
            "top": {max(slices)},
            "auto": kept_by_auto_skip(eng, g.n),
            "all": None,
        }
        assert keeps["auto"] < slices
        # the pool reads the slice sizes, which the engine caches, and the
        # domain pass the solver, which the engine builds on first use
        assert set(eng.short_cfg.slice_sizes) == slices
        eng._columns
        state = engine_state(eng)
        for ring in ("Z", "Z2"):
            for kept, keep in keeps.items():
                pinned = SHORT_COMPLEX_DIGESTS[name, ring, kept]
                monkeypatch.setattr(reducer, "PARALLEL_MIN_GENS", 10**9)
                sequential = eng.short_complex(ring, keep)
                assert not pools
                assert short_complex_digest(sequential) == pinned
                # the engine's one walk, filtered, is the pruned walk
                assert ordered(sequential) == ordered(walk_order_complex(eng, ring, keep))
                inline = reducer._kept_groups(eng, ring, keep)
                assert not pools
                assert inline == reducer.slice_groups(eng, ring, keep)
                monkeypatch.setattr(reducer, "PARALLEL_MIN_GENS", 0)
                pooled = reducer._kept_groups(eng, ring, keep)
                # a single slice is never pooled
                assert pools == ([(2,)] if len(keep or slices) > 1 else [])
                pools.clear()
                assert pooled == inline
                assert engine_state(eng) == state
        if name == "8_19":
            assert sequential.entry_count and pooled

    def test_pooled_8_20_is_pinned(self, two_cpus, pools):
        g = minimize(parse_braid(BRAIDS["8_20"]))
        cx = PathEngine(g).short_complex("Z")
        assert not pools  # the engine assembles in this process
        assert (cx.generator_count, cx.entry_count) == (4480, 4464)
        assert short_complex_digest(cx) == SHORT_COMPLEX_DIGESTS["8_20", "Z", "all"]
        report = hfk_paths(g, "Z")
        assert pools == [(2,)]
        reduce_fast(cx)
        assert report.homology.groups == homology(cx).groups

    def test_main_process_lists_no_generator(
        self, monkeypatch, two_cpus, pools, in_workers_only
    ):
        g = minimize(parse_braid(BRAIDS["5_2"]))
        inline = {
            (ring, skip): hfk_paths(g, ring, skip)
            for ring in ("Z", "Z2")
            for skip in ("none", "auto")
        }
        assert not pools
        monkeypatch.setattr(reducer, "PARALLEL_MIN_GENS", 0)
        in_workers_only(PathEngine, "short_complex")
        in_workers_only(domains_paths, "oval_generators")
        for (ring, skip), report in inline.items():
            pooled = hfk_paths(g, ring, skip)
            assert pooled.table == report.table and pooled.checks == report.checks
            assert pooled.homology == report.homology
        assert pools == [(2,)] * len(inline)
        # the guard is in place: an inline run reaches it
        monkeypatch.setattr(reducer, "PARALLEL_MIN_GENS", 10**9)
        with pytest.raises(RuntimeError, match="short_complex ran in the main process"):
            hfk_paths(g)

    def test_one_cpu_never_pools(self, monkeypatch, no_pool):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(reducer, "PARALLEL_MIN_GENS", 0)
        assert hfk_paths(NONZERO_SHORT).table == hfk_cells(NONZERO_SHORT).table

    def test_small_complex_never_pools(self, monkeypatch, two_cpus, no_pool):
        g = minimize(parse_braid(BRAIDS["8_19"]))
        assert sum(PathEngine(g).short_cfg.slice_sizes.values()) < reducer.PARALLEL_MIN_GENS
        table = hfk_paths(g).table
        # the refusing executor is in place: lowering the threshold reaches it
        monkeypatch.setattr(reducer, "PARALLEL_MIN_GENS", 0)
        with pytest.raises(RuntimeError, match="executor was created"):
            hfk_paths(g)
        assert table == hfk_cells(g).table

    def test_one_slice_never_pools(self, monkeypatch, two_cpus, no_pool):
        monkeypatch.setattr(reducer, "PARALLEL_MIN_GENS", 0)
        eng = PathEngine(NONZERO_SHORT)
        a2 = next(a2 for _, a2 in oval_generators(eng.short_cfg))
        assert eng.short_complex(keep_a2={a2}).generator_count
        assert reducer._kept_groups(eng, "Z", {a2}) == reducer.slice_groups(eng, "Z", {a2})

    def test_worker_failure_keeps_its_type(self, monkeypatch, two_cpus):
        monkeypatch.setattr(reducer, "PARALLEL_MIN_GENS", 0)
        monkeypatch.setattr(PathEngine, "_without_domain", no_domain_anywhere)
        with pytest.raises(MissingDomain, match="has no domain") as info:
            hfk_paths(NONZERO_SHORT)
        # raised in a worker: the pool attaches the worker's traceback
        assert type(info.value.__cause__).__name__ == "_RemoteTraceback"

    def test_worker_failure_through_main(self, monkeypatch, two_cpus, capsys):
        monkeypatch.setattr(reducer, "PARALLEL_MIN_GENS", 0)
        monkeypatch.setattr(PathEngine, "_without_domain", no_domain_anywhere)
        word = " ".join(map(str, BRAIDS["8_19"]))
        argv = ["--braid", word, "--strategy", "paths", "--crosscheck", "off"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "has no domain" in err
        assert "Traceback" not in err

    def test_dead_worker_is_a_typed_failure(self, monkeypatch, two_cpus, capsys):
        parent = os.getpid()

        def die(self, ids, groups):
            # only ever reached in a forked worker: exiting here in the
            # main process would end the test run
            if os.getpid() == parent:
                raise RuntimeError("short rows pulled in the main process")
            os._exit(3)

        monkeypatch.setattr(reducer, "PARALLEL_MIN_GENS", 0)
        monkeypatch.setattr(PathEngine, "_short_rows", die)
        with pytest.raises(SliceWorkerDied):
            hfk_paths(NONZERO_SHORT)
        argv = ["--braid", "1 1 1 2 -1 2", "--strategy", "paths", "--crosscheck", "off"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "died" in err
        assert "Traceback" not in err
