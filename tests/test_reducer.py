"""Reduction, exact homology, tensor deconvolution, and the pipelines."""

import re
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, gcd, prod

import numpy as np
import pytest

from conftest import BRAIDS, random_grid, random_knot_grid
from references import decode, reduce_faithful, tuple_event_pairs

from gridhfk import chains, domains_paths, reducer
from gridhfk.chains import SparseComplex, long_complex, mos_complex, oval_generators
from gridhfk.domains_paths import PathEngine
from gridhfk.errors import (
    CrosscheckFailed,
    InconsistentTensor,
    InvalidInvariant,
    InvalidOmission,
    ScheduleAssertionFailed,
    UnderdeterminedSkip,
)
from gridhfk.gridkit import GridDiagram, parse_braid
from gridhfk.ovalgeo import (
    OvalConfig,
    omission_candidates,
    on_boundary,
    retraction_schedule,
    select_best_config,
)
from gridhfk.reducer import (
    HomologyResult,
    auto_skip,
    deconvolve,
    hfk_cells,
    hfk_paths,
    homology,
    make_table,
    rank_mod2,
    reconstruct_skipped,
    reduce_fast,
    smith_invariant_factors,
    top_invariants,
    universal_coefficients_consistent,
)
from gridhfk.simplifier import minimize

UNKNOT2 = GridDiagram((1, 0), (0, 1))

# Invariant tables computed independently by the rectangle pipeline and the
# oval pipelines, frozen here; Euler characteristics equal the Alexander
# polynomials of these knots.
TREFOIL_TABLE = {(-1, 0): 1, (0, 1): 1, (1, 2): 1}
FIG8_TABLE = {(-1, -1): 1, (0, 0): 3, (1, 1): 1}


def integer_det(mat):
    """Determinant by cofactor expansion along the first row."""
    if not mat:
        return 1
    return sum(
        (-1) ** j * a * integer_det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j, a in enumerate(mat[0])
        if a
    )


def fraction_rank(mat):
    rows = [[Fraction(v) for v in row] for row in mat]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


class TestExactLinearAlgebra:
    def test_snf_singletons(self):
        assert smith_invariant_factors([[0]]) == []
        assert smith_invariant_factors([[5]]) == [5]
        assert smith_invariant_factors([[-5]]) == [5]

    def test_snf_diagonal_merging(self):
        # diag(2, 3) is not in normal form; the invariant factors are 1, 6
        assert smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
        assert smith_invariant_factors([[4, 0], [0, 6]]) == [2, 12]

    def test_snf_known_matrix(self):
        mat = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        assert smith_invariant_factors(mat) == [2, 2, 156]

    def test_snf_divisibility_and_rank(self, rng):
        for t in range(60):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            mat = [
                [rng.randrange(-9, 10) for _ in range(cols)]
                for _ in range(rows)
            ]
            if t % 3 == 1:  # scaled: every factor takes the scale
                scale = rng.choice((2, 3, 6))
                mat = [[scale * a for a in row] for row in mat]
            elif t % 3 == 2:  # rank at most 2: a product through k columns
                k = rng.randrange(1, 3)
                left = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(rows)]
                right = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(k)]
                mat = [
                    [sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                    for row in left
                ]
            factors = smith_invariant_factors(mat)
            assert len(factors) == fraction_rank(mat)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0
            # the first k factors multiply to the gcd of the k x k minors
            for k in range(1, min(rows, cols) + 1):
                minors = [
                    integer_det([[mat[i][j] for j in cs] for i in rs])
                    for rs in combinations(range(rows), k)
                    for cs in combinations(range(cols), k)
                ]
                expected = prod(factors[:k]) if k <= len(factors) else 0
                assert gcd(*minors) == expected, (mat, factors, k)

    def test_snf_invariant_under_row_ops(self, rng):
        for _ in range(20):
            mat = [[rng.randrange(-6, 7) for _ in range(3)] for _ in range(3)]
            other = [row[:] for row in mat]
            # add twice row 0 to row 2, then swap two columns
            other[2] = [a + 2 * b for a, b in zip(other[2], other[0])]
            for row in other:
                row[0], row[1] = row[1], row[0]
            assert smith_invariant_factors(mat) == smith_invariant_factors(other)

    def test_rank_mod2(self):
        assert rank_mod2([]) == 0
        assert rank_mod2([0b011, 0b110, 0b101]) == 2
        assert rank_mod2([0b001, 0b010, 0b100]) == 3

    def test_rank_mod2_matches_snf_parity(self, rng):
        for _ in range(20):
            mat = [[rng.randrange(0, 2) for _ in range(4)] for _ in range(4)]
            bits = [sum(v << j for j, v in enumerate(row)) for row in mat]
            factors = smith_invariant_factors(mat)
            odd_rank = sum(1 for f in factors if f % 2)
            assert rank_mod2(bits) == odd_rank


def toy_complex(ring="Z", coeff=2):
    """One generator pair with ∂b = coeff·a."""
    cx = SparseComplex(ring)
    cx.add_generator("a", 0, 0)
    cx.add_generator("b", 0, 1)
    cx.add_entry("b", "a", coeff)
    return cx


class TestHomology:
    def test_torsion_of_doubling_map(self):
        h = homology(toy_complex())
        assert h.groups == {(0, 0): (0, (2,))}
        assert h.total_rank() == 0

    def test_unit_map_has_no_homology(self):
        assert homology(toy_complex(coeff=1)).groups == {}

    def test_zero_differential(self):
        cx = SparseComplex("Z")
        cx.add_generator("a", 0, 0)
        cx.add_generator("b", 2, 5)
        h = homology(cx)
        assert h.groups == {(0, 0): (1, ()), (2, 5): (1, ())}

    def test_mod2_sees_torsion_twice(self):
        h2 = homology(toy_complex("Z2"))
        assert h2.groups == {(0, 0): (1, ()), (0, 1): (1, ())}
        assert universal_coefficients_consistent(homology(toy_complex()), h2)

    def test_uct_rejects_wrong_mod2_ranks(self):
        hz = homology(toy_complex())
        bad = HomologyResult("Z2", {(0, 0): (1, ())})
        assert not universal_coefficients_consistent(hz, bad)

    def test_unknot_cell_homology(self):
        h = homology(mos_complex(UNKNOT2))
        assert h.groups == {(0, 0): (1, ()), (-2, -1): (1, ())}

    def test_homology_unchanged_by_reduction(self, rng):
        for _ in range(6):
            g = random_grid(rng.randrange(3, 5), rng)
            cx = mos_complex(g)
            before = homology(cx)
            reduce_fast(cx)
            assert homology(cx).groups == before.groups

    def test_mod2_reduction_matches(self, rng):
        for _ in range(4):
            g = random_grid(4, rng)
            cx = mos_complex(g, "Z2")
            before = homology(cx)
            reduce_fast(cx)
            assert homology(cx).groups == before.groups


class TestReduction:
    def test_fast_reduction_empties_cell_complex(self):
        g = parse_braid(BRAIDS["trefoil"])
        cx = mos_complex(g)
        reduce_fast(cx)
        # the trefoil's reduced rectangle complex has no differential left
        assert cx.entry_count == 0
        assert cx.generator_count == 3 * 2 ** (g.n - 1)

    def test_faithful_needs_units(self):
        cx = toy_complex(coeff=2)
        with pytest.raises(ScheduleAssertionFailed):
            reduce_faithful(cx, [(["b"], ["a"])])

    def test_faithful_needs_live_generators(self):
        cx = toy_complex(coeff=1)
        with pytest.raises(ScheduleAssertionFailed):
            reduce_faithful(cx, [(["b"], ["a"]), (["b"], ["a"])])

    def test_faithful_matches_schedule_on_tuple_complex(self, rng):
        for _ in range(4):
            g = random_grid(rng.randrange(3, 5), rng)
            omit = select_best_config(g).omit
            long_cfg, short_cfg, events = retraction_schedule(g, omit)
            cx = long_complex(g, omit)
            pairs = tuple_event_pairs(list(cx.grading), events)
            assert sum(len(s) for s, _ in pairs) * 2 + len(
                list(oval_generators(short_cfg))
            ) == cx.generator_count
            reduce_faithful(cx, pairs)
            survivors = set(cx.grading)
            expected = {gen for gen, _ in oval_generators(short_cfg)}
            assert survivors == expected

    def test_tuple_pairs_match_path_engine_deaths(self, rng):
        # the reference pairs and the path engine's elimination keys name
        # the same (event, source) for every cancelled long generator, on
        # every omission of nontrivial knots that the engine accepts
        for _ in range(2):
            g = random_knot_grid(rng, 5)
            for omit in omission_candidates(g):
                if not on_boundary(g, omit):
                    continue
                long_cfg, _, events = retraction_schedule(g, omit)
                engine = PathEngine(g, omit)
                encode = engine.moves.encode
                gens = [x for x, _ in oval_generators(long_cfg)]
                expected = {}
                pairs = tuple_event_pairs(gens, events)
                for t, (srcs, dsts) in enumerate(pairs):
                    for a, b in zip(srcs, dsts):
                        expected[a] = expected[b] = (t, a)
                event, source = engine._deaths(encode(gens))
                deaths = {}
                for x, t, s in zip(gens, event.tolist(), source.tolist()):
                    survives = t == engine.event_count
                    deaths[x] = None if survives else (t, decode(engine.moves, s))
                assert deaths == {x: expected.get(x) for x in gens}


class TestDeconvolve:
    def test_unknot_factor(self):
        h = HomologyResult("Z", {(0, 0): (1, ()), (-2, -1): (1, ())})
        assert deconvolve(h, 2) == {(0, 0): (1, ())}

    def test_binomial_pattern_collapses(self):
        groups = {
            (0, 0): (1, ()),
            (-2, -1): (3, ()),
            (-4, -2): (3, ()),
            (-6, -3): (1, ()),
        }
        h = HomologyResult("Z", groups)
        assert deconvolve(h, 4) == {(0, 0): (1, ())}

    def test_trefoil_pattern(self):
        table = {(2, 2): 1, (0, 1): 1, (-2, 0): 1}
        groups = {}
        for (a2, m), r in table.items():
            for k in range(5):
                key = (a2 - 2 * k, m - k)
                prev = groups.get(key, 0)
                groups[key] = prev + comb(4, k) * r
        h = HomologyResult("Z", {k: (v, ()) for k, v in groups.items()})
        assert deconvolve(h, 5) == {k: (v, ()) for k, v in table.items()}

    def test_torsion_deconvolves_independently(self):
        h = HomologyResult(
            "Z",
            {
                (0, 0): (1, (2,)),
                (-2, -1): (1, (2,)),
            },
        )
        assert deconvolve(h, 2) == {(0, 0): (1, (2,))}

    def test_negative_multiplicity_rejected(self):
        h = HomologyResult("Z", {(2, 1): (2, ()), (0, 0): (1, ())})
        with pytest.raises(InconsistentTensor):
            deconvolve(h, 2)

    def test_unbalanced_tail_rejected(self):
        h = HomologyResult("Z", {(0, 0): (1, ())})
        with pytest.raises(InconsistentTensor):
            deconvolve(h, 2)


class TestReconstructSkipped:
    def trefoil_homology(self):
        g = parse_braid(BRAIDS["trefoil"])
        cx = mos_complex(g)
        reduce_fast(cx)
        return g, homology(cx)

    def test_roundtrip_each_single_skip(self):
        g, h = self.trefoil_homology()
        full = deconvolve(h, g.n)
        for a2 in sorted({key[0] for key in h.groups}):
            partial = HomologyResult(
                "Z", {k: v for k, v in h.groups.items() if k[0] != a2}
            )
            assert reconstruct_skipped(partial, {a2}, g.n) == full

    def test_roundtrip_largest_slices(self):
        g, h = self.trefoil_homology()
        full = deconvolve(h, g.n)
        sizes = {}
        for (a2, _), (r, t) in h.groups.items():
            sizes[a2] = sizes.get(a2, 0) + r + len(t)
        skipped = auto_skip(sizes, g.n)
        assert len(skipped) == g.n - 1
        partial = HomologyResult(
            "Z", {k: v for k, v in h.groups.items() if k[0] not in skipped}
        )
        assert reconstruct_skipped(partial, skipped, g.n) == full

    def test_too_many_skips_rejected(self):
        g, h = self.trefoil_homology()
        skipped = {key[0] for key in h.groups} | {100}
        with pytest.raises(UnderdeterminedSkip):
            reconstruct_skipped(HomologyResult("Z", {}), skipped, g.n)

    def test_no_skip_is_plain_deconvolution(self):
        g, h = self.trefoil_homology()
        assert reconstruct_skipped(h, set(), g.n) == deconvolve(h, g.n)

    def test_underdetermined_data_rejected(self):
        # two adjacent unknowns, one equation relating them
        h = HomologyResult("Z", {(-2, -1): (2, ())})
        with pytest.raises(UnderdeterminedSkip):
            reconstruct_skipped(h, {0, 2}, 2)

    def test_random_roundtrip(self, rng):
        # drop no grading or a run of at most n−1 consecutive ones
        for _ in range(300):
            n = rng.randrange(2, 8)
            f = random_invariant(rng)
            h = tensor_factor_applied(f, n)
            slices = sorted({a2 for a2, _ in h})
            start = rng.choice(slices)
            skipped = {start + 2 * k for k in range(rng.randrange(0, n))}
            partial = HomologyResult(
                "Z", {k: v for k, v in h.items() if k[0] not in skipped}
            )
            assert reconstruct_skipped(partial, skipped, n) == f

    def test_corrupted_homology_rejected(self, rng):
        for _ in range(100):
            n = rng.randrange(2, 8)
            h = tensor_factor_applied(random_invariant(rng), n)
            key = rng.choice(sorted(h))
            rank, torsion = h[key]
            h[key] = (rank + rng.choice((-1, 1)) if rank else 1, torsion)
            with pytest.raises(InconsistentTensor):
                deconvolve(HomologyResult("Z", h), n)

    def test_wide_skip_rejected(self, rng):
        # n−1 gradings or fewer, but spread over n slices or more
        for _ in range(50):
            n = rng.randrange(3, 8)
            h = tensor_factor_applied(random_invariant(rng), n)
            low = rng.choice(sorted({a2 for a2, _ in h}))
            skipped = {low, low + 2 * (n - 1)}
            partial = HomologyResult(
                "Z", {k: v for k, v in h.items() if k[0] not in skipped}
            )
            with pytest.raises(UnderdeterminedSkip):
                reconstruct_skipped(partial, skipped, n)


def random_invariant(rng):
    """A random graded group table with free and torsion parts."""
    f = {}
    for _ in range(rng.randrange(1, 5)):
        torsion = tuple(sorted(rng.choice((2, 3, 4)) for _ in range(rng.randrange(2))))
        group = (rng.randrange(3), torsion)
        if group != (0, ()):
            f[2 * rng.randrange(-3, 4), rng.randrange(-3, 4)] = group
    return f or {(0, 0): (1, ())}


def tensor_factor_applied(f, n):
    """The table tensored with n−1 copies of the rank-2 factor."""
    h = {}
    for (a2, m), (rank, torsion) in f.items():
        for k in range(n):
            c = comb(n - 1, k)
            r, t = h.get((a2 - 2 * k, m - k), (0, ()))
            h[a2 - 2 * k, m - k] = (r + c * rank, tuple(sorted(t + torsion * c)))
    return h


def largest_slices(sizes, n):
    """The n−1 largest slices, ties to the lowest: the earlier `auto_skip` rule."""
    return set(sorted(sizes, key=lambda a2: (-sizes[a2], a2))[: n - 1])


class TestAutoSkip:
    def test_picks_largest(self):
        sizes = {0: 10, -2: 30, -4: 30, -6: 5}
        assert auto_skip(sizes, 3) == {-4, -2}

    def test_tie_break_is_deterministic(self):
        sizes = {0: 10, 2: 10, 4: 10}
        assert auto_skip(sizes, 2) == {0}

    def test_same_choice_as_largest_slices(self, rng):
        words = [BRAIDS[k] for k in sorted(BRAIDS)] + [[1] * 7]
        grids = [minimize(parse_braid(w)) for w in words]
        grids += [minimize(parse_braid([-a for a in w])) for w in words]
        grids += [random_grid(rng.randrange(3, 8), rng) for _ in range(40)]
        for g in grids:
            sizes = PathEngine(g).short_cfg.slice_sizes
            skipped = auto_skip(sizes, g.n)
            assert skipped == largest_slices(sizes, g.n), g
            assert max(skipped) - min(skipped) < 2 * (g.n - 1)


class TestMakeTable:
    def test_halves_alexander(self):
        table = make_table({(2, 1): (1, ()), (0, 0): (2, ())}, "Z")
        assert table.ranks() == {(1, 1): 1, (0, 0): 2}
        assert table.genus == 1
        assert table.fibered
        assert table.torsion_free

    def test_top_torsion_blocks_fiberedness(self):
        table = make_table({(2, 1): (1, (2,)), (0, 0): (1, ())}, "Z")
        assert not table.fibered
        assert not table.torsion_free

    def test_wide_top_blocks_fiberedness(self):
        table = make_table({(2, 1): (1, ()), (2, 0): (1, ())}, "Z")
        assert table.genus == 1
        assert not table.fibered

    def test_odd_doubled_grading_rejected(self):
        with pytest.raises(InvalidInvariant):
            make_table({(1, 0): (1, ())}, "Z")

    def test_empty_rejected(self):
        with pytest.raises(InvalidInvariant):
            make_table({}, "Z")


class TestPipelines:
    def expect(self, g, table, ring="Z"):
        rep_cells = hfk_cells(g, ring)
        rep_paths = hfk_paths(g, ring)
        rep_skip = hfk_paths(g, ring, skip="auto")
        for rep in (rep_cells, rep_paths, rep_skip):
            assert rep.table.ranks() == table
            assert rep.table.torsion_free
        assert rep_cells.table.groups == rep_paths.table.groups
        assert rep_paths.table.groups == rep_skip.table.groups
        return rep_cells.table

    def test_unknot(self):
        table = self.expect(UNKNOT2, {(0, 0): 1})
        assert table.genus == 0
        assert table.fibered

    def test_trefoil(self):
        g = parse_braid(BRAIDS["trefoil"])
        table = self.expect(g, TREFOIL_TABLE)
        assert table.genus == 1
        assert table.fibered
        assert table.total_rank() == 3

    def test_fig8(self):
        g = parse_braid(BRAIDS["figure8"])
        table = self.expect(g, FIG8_TABLE)
        assert table.genus == 1
        assert table.fibered
        assert table.total_rank() == 5

    def test_mod2_tables_match_on_thin_knots(self):
        for name, expected in (("trefoil", TREFOIL_TABLE), ("figure8", FIG8_TABLE)):
            g = parse_braid(BRAIDS[name])
            rep = hfk_paths(g, "Z2")
            assert rep.table.ranks() == expected

    def test_uct_on_trefoil(self):
        g = parse_braid(BRAIDS["trefoil"])
        hz = hfk_cells(g, "Z").homology
        h2 = hfk_cells(g, "Z2").homology
        assert universal_coefficients_consistent(hz, h2)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            hfk_paths(UNKNOT2, "Q")
        with pytest.raises(ValueError):
            hfk_paths(UNKNOT2, "Z", skip="most")

    def test_axis_omission_override(self):
        # an X on the boundary is as good an omission as an O there; an X
        # inside the square is refused like an O
        g = parse_braid(BRAIDS["trefoil"])
        base = hfk_paths(g, "Z").table.groups
        cells = [(c, g.xs[c]) for c in range(g.n)]
        boundary = [cell for cell in cells if on_boundary(g, cell)]
        assert boundary == [(0, 0), (4, 4)]
        for omit in boundary:
            assert hfk_paths(g, "Z", omit=omit).table.groups == base
        for omit in set(cells) - set(boundary):
            with pytest.raises(InvalidOmission, match=re.escape(str(omit))):
                hfk_paths(g, "Z", omit=omit)

    def test_minimized_input_feeds_pipeline(self):
        g = minimize(parse_braid(BRAIDS["trefoil"]))
        assert g.n == 5
        assert hfk_cells(g).table.ranks() == TREFOIL_TABLE


class TestPathsPipeline:
    def test_matches_rectangle_tables(self):
        for key in ("unknot", "trefoil", "figure8"):
            g = minimize(parse_braid(BRAIDS[key]))
            assert hfk_paths(g).table == hfk_cells(g).table

    def test_auto_skip_same_table(self):
        g = minimize(parse_braid(BRAIDS["trefoil"]))
        assert hfk_paths(g, skip="auto").table == hfk_paths(g).table

    def test_mod2_table(self):
        g = minimize(parse_braid(BRAIDS["figure8"]))
        assert hfk_paths(g, "Z2").table == hfk_cells(g, "Z2").table

    def test_rejects_unknown_skip(self):
        with pytest.raises(ValueError):
            hfk_paths(UNKNOT2, skip="sometimes")


class TestTopInvariants:
    def test_matches_full_tables(self):
        for key in ("unknot", "trefoil", "figure8"):
            g = minimize(parse_braid(BRAIDS[key]))
            table = hfk_cells(g).table
            assert top_invariants(g) == (table.genus, table.fibered)

    def test_detects_non_fibered(self):
        g = minimize(parse_braid(BRAIDS["5_2"]))
        assert top_invariants(g) == (1, False)

    def test_mod2_agrees(self):
        g = minimize(parse_braid(BRAIDS["trefoil"]))
        assert top_invariants(g, "Z2") == (1, True)

    def test_unmirrored_bottom_slice_rejected(self, unmirrored_bottom_slice):
        # an unknot grid whose interior omission (2, 2) gave a wrong table
        # with a spurious top slice; the engine now refuses that omission
        g = GridDiagram((3, 2, 1, 0), (1, 0, 2, 3))
        for ring in ("Z", "Z2"):
            with pytest.raises(InvalidOmission, match=r"\(2, 2\)"):
                top_invariants(g, ring, omit=(2, 2))
            with pytest.raises(CrosscheckFailed, match="mirror"):
                top_invariants(g, ring)

    def test_wrong_mod2_homology_fails_over_z(self, monkeypatch):
        # every slice the scan reads is checked against its mod-2 homology
        mod2 = SparseComplex.mod2
        copies = []

        def extra_generator(self):
            other = mod2(self)
            other.add_generator(("extra",), 0, 0)
            copies.append(other)
            return other

        monkeypatch.setattr(SparseComplex, "mod2", extra_generator)
        g = minimize(parse_braid(BRAIDS["trefoil"]))
        with pytest.raises(CrosscheckFailed, match="universal coefficient"):
            top_invariants(g, "Z")
        assert len(copies) == 1  # the first slice read fails the run
        # over Z/2 there is no second ring to compare with
        assert top_invariants(g, "Z2") == (1, True)
        assert len(copies) == 1


class TestOneWalk:
    """A run counts its slices without listing a generator, then walks the
    short configuration once per assembled complex, for its kept slices."""

    @pytest.fixture
    def short_walks(self, monkeypatch):
        walks = []
        walk = chains.oval_generators

        def counting(config, keep_a2=None):
            if config.style == "short":
                walks.append(None if keep_a2 is None else set(keep_a2))
            return walk(config, keep_a2)

        for module in (chains, domains_paths, reducer):
            monkeypatch.setattr(module, "oval_generators", counting, raising=False)
        return walks

    def test_reducer_does_not_walk(self):
        assert not hasattr(reducer, "oval_generators")

    def test_engine_lists_no_generator(self, short_walks):
        engine = PathEngine(minimize(parse_braid([1] * 7)))
        assert sum(engine.short_cfg.slice_sizes.values()) == 18176
        assert short_walks == []

    @pytest.mark.parametrize("skip", ["none", "auto"])
    def test_hfk_paths(self, skip, short_walks):
        # every slice with skip="none"; only the kept ones with skip="auto"
        g = minimize(parse_braid(BRAIDS["5_2"]))
        sizes = PathEngine(g).short_cfg.slice_sizes
        kept = set(sizes) - auto_skip(sizes, g.n) if skip == "auto" else None
        for _ in range(2):
            hfk_paths(g, skip=skip)
        assert short_walks == [kept, kept]

    def test_top_invariants(self, short_walks):
        # an unknot grid whose scan passes an empty slice before the nonzero
        # one; the scan stops at a2 = 0 from the top and at -2(n-1) from
        # the bottom, and walks one slice per step
        g = GridDiagram((2, 4, 3, 0, 5, 1), (4, 0, 1, 5, 3, 2))
        slices = list(PathEngine(g).short_cfg.slice_sizes)
        expected = [{a2} for a2 in reversed(slices) if a2 >= 0]
        expected += [{a2} for a2 in slices if a2 <= -2 * (g.n - 1)]
        assert len(expected) > 2
        for ring in ("Z", "Z2"):
            short_walks.clear()
            top_invariants(g, ring)
            assert short_walks == expected


class TestOneCountPerConfiguration:
    """A configuration builds its row-mask table at most once, and a run
    counts only the candidates of `select_best_config`: the engine keeps
    the configuration that counted itself there."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The configurations whose row-mask table is built, once per build."""
        built = []
        build = OvalConfig.rest_sums.func

        def counting(config):
            built.append(config)
            return build(config)

        table = cached_property(counting)
        table.__set_name__(OvalConfig, "rest_sums")
        monkeypatch.setattr(OvalConfig, "rest_sums", table)
        return built

    def test_engine_keeps_the_chosen_configuration(self, built, monkeypatch):
        chosen = []

        def choose(g):
            chosen.append(select_best_config(g))
            return chosen[-1]

        monkeypatch.setattr(domains_paths, "select_best_config", choose)
        g = minimize(parse_braid(BRAIDS["5_2"]))
        engine = PathEngine(g)
        assert len(chosen) == 1 and engine.short_cfg is chosen[0]
        assert engine.short_cfg in built
        count = len(built)
        for a2 in engine.short_cfg.slice_sizes:
            assert engine.short_complex("Z", {a2}).generator_count
        assert len(built) == count

    @pytest.mark.parametrize(
        "g, scans",
        [
            (minimize(parse_braid(BRAIDS["5_2"])), 2),
            # an unknot grid whose genus scan passes an empty slice
            (GridDiagram((2, 4, 3, 0, 5, 1), (4, 0, 1, 5, 3, 2)), 3),
        ],
        ids=["5_2", "unknot6"],
    )
    def test_one_table_per_candidate(self, g, scans, built, monkeypatch):
        candidates = [omit for omit in omission_candidates(g) if on_boundary(g, omit)]
        scanned = []
        slice_groups = reducer.slice_groups

        def counting(engine, ring, keep_a2):
            scanned.append(keep_a2)
            return slice_groups(engine, ring, keep_a2)

        monkeypatch.setattr(reducer, "slice_groups", counting)
        for run in (hfk_paths, top_invariants):
            built.clear()
            scanned.clear()
            run(g)
            assert scanned
            assert sorted(config.omit for config in built) == candidates, run
            assert all(config.style == "short" for config in built)
        assert len(scanned) == scans  # slices the genus scan read
