"""Generators, gradings, and signed boundary maps of the two complexes."""

from __future__ import annotations

import sys
from collections import Counter
from itertools import permutations
from math import factorial
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import BRAIDS, random_grid
from references import (
    Laurent,
    alexander2_dominance,
    enumerated_long_euler,
    generator_count,
    long_euler,
    long_gradings,
    maslov,
    mos_generators,
    DictComplex,
    refilled,
)
from test_cells_oracle import reference_sign, table_sign
from gridhfk import chains, domains_paths, ovalgeo
from gridhfk.chains import (
    LongMoves,
    SparseComplex,
    a2_range,
    long_complex,
    mos_complex,
    oval_generators,
)
from gridhfk.errors import (
    AlexanderConstantInvalid,
    BoundarySquareNonzero,
    GradingViolation,
    InvalidOmission,
    NonUnitPivot,
    ScheduleAssertionFailed,
    SignAssignmentFailed,
)
from gridhfk.gridkit import (
    SCALE,
    GridDiagram,
    LaurentPoly,
    alexander_polynomial,
    parse_braid,
    winding_number,
)
from gridhfk.ovalgeo import (
    build_config,
    omission_candidates,
    on_boundary,
    select_best_config,
)
from gridhfk.reducer import auto_skip
from gridhfk.simplifier import minimize

UNKNOT2 = GridDiagram((1, 0), (0, 1))
# Grids that historically exposed sign errors; pinned as regressions.
REGRESSION_CELL = GridDiagram((3, 1, 0, 2), (0, 3, 2, 1))
REGRESSION_OVAL = (GridDiagram((1, 3, 0, 2), (2, 1, 3, 0)), (0, 2))


def euler_by_a2(cx: SparseComplex) -> dict[int, int]:
    out: Counter[int] = Counter()
    for a2, m in cx.grading.values():
        out[a2] += 1 if m % 2 == 0 else -1
    return {k: v for k, v in out.items() if v}


def euler_poly(cx: SparseComplex) -> LaurentPoly:
    terms: dict[int, int] = {}
    for a2, v in euler_by_a2(cx).items():
        assert a2 % 2 == 0, "doubled Alexander grading of a knot must be even"
        terms[a2 // 2] = v
    return LaurentPoly(terms)


class TestGradings:
    def test_micro_cell_complex(self):
        cx = mos_complex(UNKNOT2, "Z")
        assert sorted(cx.grading.values()) == [(-2, -1), (0, 0)]
        assert cx.entry_count == 0

    def test_micro_oval_complex(self):
        cx = long_complex(UNKNOT2, (1, 1), "Z")
        by_point = {x[0]: v for x, v in cx.grading.items()}
        assert by_point == {
            (3, 4): (0, -1),
            (3, 6): (0, 0),
            (7, 4): (0, 0),
            (7, 6): (-2, -1),
        }
        entries = {(x[0], y[0]): c for x, row in cx.rows.items() for y, c in row.items()}
        assert entries == {((3, 6), (3, 4)): 1, ((7, 4), (3, 4)): 1}

    def test_dominance_equals_winding_on_cell_generators(self, rng):
        grids = [parse_braid(BRAIDS["trefoil"])]
        grids += [random_grid(n, rng) for n in (3, 4, 5)]
        for g in grids:
            x_p, o_p = g.x_punctures(), g.o_punctures()
            const2 = alexander2_dominance((), x_p, o_p, g.n)
            for x in mos_generators(g):
                winding = sum(winding_number(g, p) for p in x)
                assert alexander2_dominance(x, x_p, o_p, g.n) == const2 - 2 * winding

    def test_dominance_equals_winding_per_point(self, rng):
        # an oval configuration reads each point's Alexander term off
        # marking counts; it is minus twice the winding number there, on
        # long and short configurations alike, and the constant is even
        grids = [parse_braid(BRAIDS["trefoil"])]
        grids += [random_grid(n, rng) for n in (3, 4, 5, 6)]
        for g in grids:
            for omit in omission_candidates(g)[:2]:
                for style in ("long", "short"):
                    config = build_config(g, omit, style)
                    assert config.const2 % 2 == 0
                    assert set(config.a2_of) == set(config.all_points())
                    assert config.a2_of == {
                        p: -2 * winding_number(g, p) for p in config.a2_of
                    }

    def test_frame_maslov_matches_dominance(self, rng):
        # `LongMoves.maslov` grades the id rows of a whole list of long or
        # short generators (short points are long ones) at once; the
        # reference `maslov` counts every dominance pair of each generator
        for n in (2, 3, 4, 5, 6):
            g = random_grid(n, rng)
            omit = rng.choice(omission_candidates(g))
            moves = LongMoves(build_config(g, omit, "long"))
            for style in ("long", "short"):
                gens = [x for x, _ in oval_generators(build_config(g, omit, style))]
                expected = [maslov(x, g.o_punctures(), 0) for x in gens]
                assert moves.maslov(moves.encode(gens)).tolist() == expected
        # a path engine grades the short generators on its long configuration
        for word in BRAIDS.values():
            g = minimize(parse_braid(word))
            o_punct = g.o_punctures()
            for omit in filter(lambda o: on_boundary(g, o), omission_candidates(g)):
                eng = domains_paths.PathEngine(g, omit)
                listed = oval_generators(eng.short_cfg)
                gens = [x for x, _ in listed]
                expected = [maslov(x, o_punct, 0) for x in gens]
                assert eng.moves.maslov(eng.moves.encode(gens)).tolist() == expected
                for (x, a2), m in zip(listed, expected):
                    assert long_gradings(eng.moves, x) == (a2, m)

    def test_grading_discipline(self):
        # `from_arrays` raises `GradingViolation` on an entry that does not
        # keep a2 and lower the Maslov grading by one
        g = parse_braid(BRAIDS["trefoil"])
        mos_complex(g, "Z")
        long_complex(g, omission_candidates(g)[0], "Z")


class TestSparseComplex:
    @staticmethod
    def build(ring, entries):
        """The reference `DictComplex`, filled entry by entry."""
        cx = DictComplex(ring)
        gens = sorted({g for e in entries for g in e[:2]})
        for i, g in enumerate(gens):
            cx.add_generator(g, 0, -i)
        for x, y, c in entries:
            cx.add_entry(x, y, c)
        return cx

    def test_rejects_unknown_ring(self):
        none = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError):
            SparseComplex.from_arrays("Q", [], none, none, none, none, none)

    def test_entries_accumulate_and_cancel(self):
        cx = self.build("Z", [("a", "b", 1), ("a", "b", -1)])
        assert cx.rows["a"].get("b", 0) == 0 and cx.entry_count == 0
        assert cx.cols["b"] == {}

    def test_mod_two_ring(self):
        cx = self.build("Z2", [("a", "b", 1), ("a", "b", 1), ("a", "c", 3)])
        assert cx.rows["a"].get("b", 0) == 0
        assert cx.rows["a"].get("c", 0) == 1

    def test_cancel_pair_transfers_through_inverse(self):
        cx = self.build("Z", [("x", "y", -1), ("u", "y", 1), ("x", "v", 1)])
        cx.cancel_pair("x", "y")
        # u -> v gains -coeff(u,y) * coeff(x,y)^{-1} * coeff(x,v) = +1
        assert list(cx.grading) == ["u", "v"]
        assert cx.rows["u"].get("v", 0) == 1
        assert cx.cols["v"] == {"u": 1}

    def test_cancel_pair_rejects_non_unit(self):
        cx = self.build("Z", [("x", "y", 1), ("x", "y", 1)])
        with pytest.raises(NonUnitPivot):
            cx.cancel_pair("x", "y")

    def test_square_violation_detected(self):
        cx = self.build("Z", [("a", "b", 1), ("b", "c", 1)])
        with pytest.raises(BoundarySquareNonzero, match=r"^d\^2 has entry 1 from a to c$"):
            refilled(cx)

    @staticmethod
    def one_entry(ring, maslov, coeff):
        """`SparseComplex.from_arrays` with the one entry ``a -> b``, both of a2 zero."""
        one = np.array([0]), np.array([1]), np.array([coeff])
        a2 = np.zeros(2, dtype=np.int64)
        return SparseComplex.from_arrays(ring, ["a", "b"], a2, np.array(maslov), *one)

    def test_from_arrays_rejects_an_entry_keeping_maslov(self):
        self.one_entry("Z", [0, -1], 1)
        kept = r"^edge a -> b goes from grading \(0, 0\) to \(0, 0\)$"
        with pytest.raises(GradingViolation, match=kept):
            self.one_entry("Z", [0, 0], 1)

    def test_from_arrays_rejects_a_non_unit_over_z(self, monkeypatch):
        # an entry counting one polygon is a unit, checked before
        # `from_arrays` builds the complex: a coefficient 2 planted in either
        # complex raises.  `from_arrays` itself takes a sum of paths
        signs, rows = chains._edge_signs, LongMoves.rows

        def doubled_sign(*args):
            out = signs(*args)
            out[:1] *= 2
            return out

        def doubled_row(self, x):
            owner, target, sign = rows(self, x)
            sign[0] *= 2
            return owner, target, sign

        g = parse_braid(BRAIDS["trefoil"])
        monkeypatch.setattr(chains, "_edge_signs", doubled_sign)
        with pytest.raises(SignAssignmentFailed, match=r"^non-unit entry -?2 at \d+ -> \d+$"):
            mos_complex(g, "Z")
        monkeypatch.setattr(LongMoves, "rows", doubled_row)
        points = r"^non-unit entry -?2 at \(\(.+\)\) -> \(\(.+\)\)$"
        with pytest.raises(SignAssignmentFailed, match=points):
            long_complex(g, omission_candidates(g)[0], "Z")
        assert self.one_entry("Z", [0, -1], 2).rows == {"a": {"b": 2}, "b": {}}
        # over Z/2 the entry is reduced to zero and dropped
        assert self.one_entry("Z2", [0, -1], 2).rows == {"a": {}, "b": {}}


def negate_first(signs):
    """``signs`` (a `_edge_signs`) with the first sign it returns negated, once."""
    planted = []

    def negated(*args):
        out = signs(*args)
        if not planted and len(out):
            out[0] = -out[0]
            planted.append(args)
        return out

    return negated


class TestPlantedFaults:
    """A sign fault planted in an array-built complex is found as it is built."""

    #: the message names two generators: permutation ranks, or point tuples
    RANKS = r"^d\^2 has entry -?\d+ from \d+ to \d+$"
    POINTS = r"^d\^2 has entry -?\d+ from \(\(.+\)\) to \(\(.+\)\)$"

    def test_negated_sign_of_the_rectangle_complex(self, monkeypatch):
        monkeypatch.setattr(chains, "_edge_signs", negate_first(chains._edge_signs))
        with pytest.raises(BoundarySquareNonzero, match=self.RANKS):
            mos_complex(parse_braid(BRAIDS["trefoil"]), "Z")

    def test_negated_sign_of_the_long_complex(self, monkeypatch):
        rows = LongMoves.rows

        def negated(self, x):
            owner, target, sign = rows(self, x)
            sign[0] = -sign[0]
            return owner, target, sign

        monkeypatch.setattr(LongMoves, "rows", negated)
        g = parse_braid(BRAIDS["trefoil"])
        with pytest.raises(BoundarySquareNonzero, match=self.POINTS):
            long_complex(g, omission_candidates(g)[0], "Z")

    def test_a_batch_never_splits_a_source(self, monkeypatch):
        # with a few products per batch, every source is a batch of its own:
        # a split source would leave a sum incomplete, and raise
        monkeypatch.setattr(chains, "_SQUARE_BATCH", 3)
        g = minimize(parse_braid(BRAIDS["8_20"]))
        mos_complex(g, "Z")
        monkeypatch.setattr(chains, "_edge_signs", negate_first(chains._edge_signs))
        with pytest.raises(BoundarySquareNonzero, match=self.RANKS):
            mos_complex(g, "Z")


class TestCellComplex:
    @pytest.mark.parametrize("n", [3, 4])
    def test_generator_count(self, rng, n):
        assert len(mos_generators(random_grid(n, rng))) == factorial(n)

    def test_square_zero_over_both_rings(self, rng):
        grids = [REGRESSION_CELL]
        grids += [random_grid(n, rng) for n in (3, 3, 4, 4, 5, 5, 6)]
        for g in grids:
            # each build checks d^2 = 0, its gradings and, over Z, unit entries
            cz = mos_complex(g, "Z")
            c2 = mos_complex(g, "Z2")
            # forgetting signs mod 2 gives exactly the unsigned count
            z_rows, z2_rows = cz.rows, c2.rows
            assert all(set(z_rows[x]) == set(z2_rows[x]) for x in z_rows)

    def test_euler_characteristic_is_alexander(self, rng):
        ring_drop = Laurent({0: 1, -1: -1})
        grids = [parse_braid(BRAIDS["trefoil"]), parse_braid(BRAIDS["figure8"])]
        grids += [random_grid(n, rng) for n in (4, 5)]
        for g in grids:
            expected = ring_drop ** (g.n - 1) * alexander_polynomial(g)
            assert euler_poly(mos_complex(g, "Z2")) == expected


class TestSpinCover:
    # Each property is checked on the lift table `mos_complex` reads and on
    # the on-demand reference section it replaced.
    SIGNS = (table_sign, reference_sign)

    @staticmethod
    def _swap(perm, i, j):
        out = list(perm)
        out[i], out[j] = out[j], out[i]
        return tuple(out)

    def test_disjoint_squares_anticommute(self, rng):
        for sign in self.SIGNS:
            for n in (4, 5):
                for _ in range(40):
                    perm = tuple(rng.sample(range(n), n))
                    i, j, k, l = rng.sample(range(n), 4)
                    i, j = min(i, j), max(i, j)
                    k, l = min(k, l), max(k, l)
                    one = sign(perm, i, j) * sign(self._swap(perm, i, j), k, l)
                    two = sign(perm, k, l) * sign(self._swap(perm, k, l), i, j)
                    assert one == -two

    def test_three_cycle_decompositions(self, rng):
        # A 3-cycle factors into two transpositions in exactly three ways;
        # their edge-sign products must pattern as {s, -s, -s} so that the
        # two factorizations realized by rectangle geometry can cancel.
        for sign in self.SIGNS:
            for n in (4, 5):
                self._three_cycles(sign, n, rng)

    def _three_cycles(self, sign, n, rng):
        for _ in range(25):
            perm = tuple(rng.sample(range(n), n))
            i, j, k = sorted(rng.sample(range(n), 3))
            cycled = list(perm)
            cycled[i], cycled[j], cycled[k] = perm[j], perm[k], perm[i]
            target = tuple(cycled)
            products = []
            for a, b in ((i, j), (i, k), (j, k)):
                mid = self._swap(perm, a, b)
                for c, d in ((i, j), (i, k), (j, k)):
                    if self._swap(mid, c, d) == target:
                        products.append(sign(perm, a, b) * sign(mid, c, d))
            assert len(products) == 3
            assert abs(sum(products)) == 1


class TestOvalComplex:
    def test_full_size_generator_count(self):
        g = parse_braid(BRAIDS["trefoil"])
        cx = mos_complex(g, "Z2")
        assert cx.generator_count == factorial(g.n)
        config = build_config(g, omission_candidates(g)[0], "long")
        gens = oval_generators(config)
        assert len(gens) == 4 ** (g.n - 1) * factorial(g.n - 1) == 6144
        assert len(gens) == generator_count(config)

    @pytest.mark.parametrize("name,count", [("trefoil", 48), ("figure8", 544)])
    def test_best_short_config_counts(self, name, count):
        config = select_best_config(parse_braid(BRAIDS[name]))
        gens = oval_generators(config)
        assert len(gens) == count == generator_count(config)

    def test_alexander_pruning_matches_filtered_enumeration(self):
        g = parse_braid(BRAIDS["trefoil"])
        for style in ("long", "short"):
            config = build_config(g, omission_candidates(g)[0], style)
            full = oval_generators(config)
            values = sorted({a2 for _, a2 in full})
            keep = set(values[::2])
            pruned = oval_generators(config, keep_a2=keep)
            assert sorted(pruned) == sorted((x, a) for x, a in full if a in keep)

    def test_square_zero_over_both_rings(self, rng):
        cases = [REGRESSION_OVAL]
        for n in (3, 3, 4, 4, 5):
            g = random_grid(n, rng)
            cases.append((g, rng.choice(omission_candidates(g))))
        for g, omit in cases:
            # each build checks d^2 = 0, its gradings and, over Z, unit entries
            lz = long_complex(g, omit, "Z")
            l2 = long_complex(g, omit, "Z2")
            z_rows, z2_rows = lz.rows, l2.rows
            assert all(set(z_rows[x]) == set(z2_rows[x]) for x in z_rows)

    def test_euler_characteristic_matches_cell_complex(self, rng):
        grids = [parse_braid(BRAIDS["trefoil"]), random_grid(4, rng), random_grid(5, rng)]
        for g in grids:
            cell = euler_by_a2(mos_complex(g, "Z2"))
            oval = euler_by_a2(long_complex(g, omission_candidates(g)[0], "Z2"))
            assert cell == oval

    def test_euler_determinant_matches_enumeration(self, rng):
        for n in (2, 3, 3, 4, 4, 5):
            g = random_grid(n, rng)
            for omit in omission_candidates(g):
                assert enumerated_long_euler(g, omit) == long_euler(g, omit), (g, omit)

    def test_restriction_is_a_subcomplex(self):
        g = parse_braid(BRAIDS["trefoil"])
        omit = omission_candidates(g)[0]
        full = long_complex(g, omit, "Z")
        keep = {0, 2}
        sub = long_complex(g, omit, "Z", keep_a2=keep)
        assert set(sub.grading) == {x for x, (a2, _) in full.grading.items() if a2 in keep}
        full_rows = full.rows
        for x, row in sub.rows.items():
            assert row == full_rows[x]


def knot_and_mirror_grids(words):
    """Minimized grids of each braid word and of its mirror."""
    return [
        minimize(parse_braid(braid))
        for word in words
        for braid in (word, [-a for a in word])
    ]


def walk_calls(config, keep):
    """``(oval_generators(config, keep), calls of its recursive walk)``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "walk" and code.co_filename == chains.__file__:
            calls += 1

    sys.setprofile(profile)
    try:
        gens = oval_generators(config, keep)
    finally:
        sys.setprofile(None)
    return gens, calls


class TestSliceSizes:
    """Slice sizes and the pruned walk, both read from the row-mask table."""

    def test_counts_every_short_configuration(self):
        for g in knot_and_mirror_grids(BRAIDS.values()):
            for omit in omission_candidates(g):
                if not on_boundary(g, omit):
                    continue
                config = build_config(g, omit, "short")
                counted = Counter(a2 for _, a2 in oval_generators(config))
                assert config.slice_sizes == counted, (g, omit)

    def test_counts_long_configurations(self):
        for g in knot_and_mirror_grids(BRAIDS.values()):
            if g.n > 6:
                continue
            config = build_config(g, omission_candidates(g)[0], "long")
            counted = Counter(a2 for _, a2 in oval_generators(config))
            assert config.slice_sizes == counted, g

    def test_ascending_and_nonempty(self):
        sizes = select_best_config(minimize(parse_braid(BRAIDS["8_20"]))).slice_sizes
        assert list(sizes) == sorted(sizes)
        assert min(sizes.values()) > 0

    @pytest.mark.parametrize(
        "word", [[1] * 7, [1, 2] * 7, [1] * 9], ids=["7_1", "T(3,7)", "T(2,9)"]
    )
    def test_total_is_the_generator_count(self, word):
        config = select_best_config(minimize(parse_braid(word)))
        assert sum(config.slice_sizes.values()) == generator_count(config)

    @pytest.mark.parametrize("name", ["trefoil", "5_2", "8_20", "8_21"])
    def test_pruned_walk_is_the_filtered_walk(self, name):
        for g in knot_and_mirror_grids([BRAIDS[name]]):
            config = select_best_config(g)
            full = oval_generators(config)
            sizes = config.slice_sizes
            keeps = [{a2} for a2 in sizes]
            keeps += [set(sizes) - auto_skip(sizes, g.n), set(), {min(sizes) - 2}]
            for keep in keeps:
                expected = [(x, a2) for x, a2 in full if a2 in keep]
                assert oval_generators(config, keep) == expected, (g, keep)

    def test_pruned_walk_calls_lead_to_generators(self):
        # every walked branch emits: a generator's root-to-leaf path is
        # k + 1 calls, so no more calls than that per emitted generator
        for g in knot_and_mirror_grids([BRAIDS["8_20"], [1] * 7]):
            config = select_best_config(g)
            k = len(config.kept_cols())
            sizes = config.slice_sizes
            for keep in [{max(sizes)}, {min(sizes)}, set(sizes) - auto_skip(sizes, g.n)]:
                gens, calls = walk_calls(config, keep)
                assert len(gens) == sum(sizes[a2] for a2 in keep)
                assert 0 < calls <= (k + 1) * len(gens), (g, keep)
            assert walk_calls(config, set()) == ([], 0)


def a2_extremes_by_matchings(config):
    """(least, greatest) a2 of the configuration's generators, matching by matching.

    `alexander2_dominance` is the constant of the empty tuple plus one term
    per point, and a generator picks any point of each matched oval pair,
    so a matching of kept columns to kept rows reaches exactly the sums of
    the per-pair extremes.
    """
    g = config.grid
    x_p, o_p = g.x_punctures(), g.o_punctures()
    const = alexander2_dominance((), x_p, o_p, g.n)
    span = {}
    for key, pts in config.points.items():
        terms = [alexander2_dominance((p,), x_p, o_p, g.n) - const for p in pts]
        span[key] = (min(terms), max(terms))
    cols = config.kept_cols()
    lows, highs = [], []
    for rows in permutations(config.kept_rows()):
        pairs = [span.get(key) for key in zip(cols, rows)]
        if None not in pairs:
            lows.append(sum(lo for lo, _ in pairs))
            highs.append(sum(hi for _, hi in pairs))
    return const + min(lows), const + max(highs)


class TestA2Range:
    """`a2_range` is exact: the least and greatest a2 that a generator has."""

    @pytest.mark.parametrize("name", sorted(BRAIDS))
    def test_extremes_of_the_listed_gradings(self, name):
        g = minimize(parse_braid(BRAIDS[name]))
        omit = select_best_config(g).omit
        for style in ("long", "short"):
            config = build_config(g, omit, style)
            lo, hi = a2_range(config)
            assert (lo, hi) == a2_extremes_by_matchings(config), (name, style)
            assert lo % 2 == hi % 2 == 0
            # listing a long configuration beyond n = 6 takes minutes
            if style == "short" or g.n <= 6:
                a2s = [a2 for _, a2 in oval_generators(config)]
                assert (lo, hi) == (min(a2s), max(a2s)), (name, style)

    def test_seven_one_long_top(self):
        # the sum of per-column extremes read (-22, 8) here
        g = minimize(parse_braid([1] * 7))
        config = build_config(g, select_best_config(g).omit, "long")
        assert a2_range(config) == a2_extremes_by_matchings(config) == (-22, 6)


class TestTypedFailures:
    """Each internal consistency check of the oval builders raises its own type."""

    def test_odd_winding_constant(self, monkeypatch):
        config = build_config(*REGRESSION_OVAL, "long")
        # the constants routine plants an odd doubled-Alexander constant
        monkeypatch.setattr(ovalgeo, "grading_constants", lambda g: (0, 1))
        with pytest.raises(AlexanderConstantInvalid, match="odd"):
            config.const2

    def test_move_target_outside_kept_slices(self, monkeypatch):
        g, omit = REGRESSION_OVAL
        by_a2 = {}
        for x, a2 in oval_generators(build_config(g, omit, "long")):
            by_a2.setdefault(a2, x)
        top, other = max(by_a2), min(by_a2)
        def rows(self, x):
            # one entry, from the first row to a generator of another slice
            target = self.encode([by_a2[other]])
            return np.zeros(1, dtype=np.int64), target, np.ones(1, dtype=np.int64)

        monkeypatch.setattr(LongMoves, "rows", rows)
        with pytest.raises(GradingViolation, match="kept a2 slices"):
            long_complex(g, omit, keep_a2={top})

    def test_non_square_full_oval_configuration(self, monkeypatch):
        g, omit = REGRESSION_OVAL
        kept_rows = ovalgeo.OvalConfig.kept_rows
        monkeypatch.setattr(
            ovalgeo.OvalConfig, "kept_rows", lambda self: kept_rows(self)[1:]
        )
        with pytest.raises(InvalidOmission, match="must be square"):
            long_complex(g, omit)

    def test_inconsistent_events(self, monkeypatch):
        g, omit = REGRESSION_OVAL
        long_cfg, short_cfg, events = ovalgeo.retraction_schedule(g, omit)
        domains_paths.PathEngine(g, omit)  # the real schedule is consistent
        ev = events[0]
        column = ev.p1[0] // SCALE
        a2_of = long_cfg.a2_of
        across = next(p for p in a2_of if p[0] // SCALE != column)
        shifted = next(
            p for p in a2_of if p[0] // SCALE == column and a2_of[p] != a2_of[ev.p1]
        )
        bad = [
            ([SimpleNamespace(p1=ev.p1, p2=across)], "two vertical ovals"),
            ([SimpleNamespace(p1=ev.p1, p2=shifted)], "Alexander grading"),
            ([ev, ev], "kills a point a second time"),
        ]
        for schedule, message in bad:
            monkeypatch.setattr(
                domains_paths,
                "retraction_schedule",
                lambda g, omit, schedule=schedule: (long_cfg, short_cfg, schedule),
            )
            with pytest.raises(ScheduleAssertionFailed, match=message):
                domains_paths.PathEngine(g, omit)
