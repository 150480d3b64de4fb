from __future__ import annotations

import random

import pytest

from conftest import (
    BRAIDS,
    cyclic_col_shift,
    cyclic_row_shift,
    format_grid_text,
    random_grid,
    stabilize,
)
from references import Laurent, PointOnDiagram, laurent_determinant, winding_number
from gridhfk import gridkit
from gridhfk.errors import (
    CoincidentDecorations,
    DegenerateDeterminant,
    EmptyWord,
    IllegalCastling,
    MultiComponent,
    MultiComponentClosure,
    NotPermutation,
    TooSmall,
)
from gridhfk.gridkit import (
    SCALE,
    GridDiagram,
    LaurentPoly,
    alexander_polynomial,
    bareiss_determinant,
    canonical_key,
    castle_columns,
    column_destabilization_sites,
    component_count,
    destabilize_column,
    greedy_destabilize,
    parse_braid,
    parse_grid_text,
    transpose,
    validate,
    winding_matrix,
)
from gridhfk.simplifier import minimize

UNKNOT2 = GridDiagram((1, 0), (0, 1))

# Symmetric Alexander polynomials of the fixture knots (literature values).
ALEXANDER = {
    "unknot": LaurentPoly({0: 1}),
    "trefoil": LaurentPoly({1: 1, 0: -1, -1: 1}),
    "figure8": LaurentPoly({1: -1, 0: 3, -1: -1}),
    "5_2": LaurentPoly({1: 2, 0: -3, -1: 2}),
    "8_19": LaurentPoly({3: 1, 2: -1, 0: 1, -2: -1, -3: 1}),
    "8_20": LaurentPoly({2: 1, 1: -2, 0: 3, -1: -2, -2: 1}),
    "8_21": LaurentPoly({2: -1, 1: 4, 0: -5, -1: 4, -2: -1}),
}


class TestValidation:
    def test_unknot_is_valid(self):
        validate(UNKNOT2)
        assert component_count(UNKNOT2) == 1

    def test_not_permutation(self):
        with pytest.raises(NotPermutation):
            validate(GridDiagram((0, 0), (1, 1)))

    def test_length_mismatch(self):
        with pytest.raises(NotPermutation):
            validate(GridDiagram((1, 0), (0, 1, 2)))

    def test_coincident_markings(self):
        with pytest.raises(CoincidentDecorations):
            validate(GridDiagram((0, 1), (0, 1)))

    def test_too_small(self):
        with pytest.raises(TooSmall):
            validate(GridDiagram((0,), (0,)))

    def test_two_component_link_rejected(self):
        with pytest.raises(MultiComponent):
            validate(GridDiagram((1, 0, 3, 2), (0, 1, 2, 3)))


class TestWinding:
    def test_center_winding_positive(self):
        # The size-2 unknot traces a counterclockwise square.
        assert winding_number(UNKNOT2, (10, 10)) == 1

    def test_outside_winding_zero(self):
        assert winding_number(UNKNOT2, (0, 0)) == 0
        assert winding_number(UNKNOT2, (20, 10)) == 0

    def test_point_on_curve_raises(self):
        with pytest.raises(PointOnDiagram):
            winding_number(UNKNOT2, (5, 10))
        with pytest.raises(PointOnDiagram):
            winding_number(UNKNOT2, (10, 15))


class TestLaurent:
    def test_arithmetic(self):
        t = Laurent.monomial(1)
        p = (t + Laurent.one()) * (t - Laurent.one())
        assert p == LaurentPoly({2: 1, 0: -1})
        assert (-p).eval_at_unit(1) == 0
        assert p.eval_at_unit(-1) == 0
        assert p.inverse_t() == LaurentPoly({-2: 1, 0: -1})

    def test_determinant_matches_cofactor(self):
        c = Laurent.monomial
        m = [[c(0), c(1)], [c(1), c(2, 3)]]
        # det = t^2*3 - t^2 = 2t^2
        assert laurent_determinant(m) == LaurentPoly({2: 2})


class TestBareiss:
    def test_zero_leading_entry_swaps_rows(self):
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1
        assert bareiss_determinant([[0, 2, 1], [0, 1, 3], [4, 0, 0]]) == 20

    def test_singular(self):
        assert bareiss_determinant([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
        assert bareiss_determinant([[0, 1], [0, 2]]) == 0

    def test_matches_cofactor_on_random_matrices(self, rng: random.Random):
        for n in range(1, 7):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            ref = laurent_determinant([[Laurent.monomial(0, e) for e in row] for row in m])
            assert bareiss_determinant(m) == ref.coeff(0)


def reference_winding_matrix(g: GridDiagram) -> list[list[int]]:
    """The winding matrix, one `winding_number` call per lattice point."""
    n = g.n
    return [[winding_number(g, (SCALE * i, SCALE * j)) for j in range(n)] for i in range(n)]


class TestWindingMatrix:
    @pytest.mark.parametrize("name", sorted(BRAIDS))
    def test_knot_and_mirror_match_winding_number(self, name):
        for word in (BRAIDS[name], [-a for a in BRAIDS[name]]):
            g = parse_braid(word)
            assert winding_matrix(g) == reference_winding_matrix(g), word

    def test_random_grids_match_winding_number(self):
        rng = random.Random(20261021)
        for n in range(2, 13):
            for _ in range(8):
                g = random_grid(n, rng)
                assert winding_matrix(g) == reference_winding_matrix(g), g


def reference_matches(g: GridDiagram, delta: LaurentPoly) -> bool:
    """Whether the cofactor determinant of the winding matrix is +-t^s (1-t)^(n-1) delta."""
    n = g.n
    det = laurent_determinant(
        [[Laurent.monomial(winding_number(g, (SCALE * i, SCALE * j))) for j in range(n)]
         for i in range(n)]
    )
    p = (Laurent.one() - Laurent.monomial(1)) ** (n - 1) * delta
    p = p.shifted(det.support()[0] - p.support()[0])
    return det in (p, -p)


class TestAlexanderOracle:
    @pytest.mark.parametrize("name", sorted(BRAIDS))
    def test_fixture_polynomials(self, name):
        g = parse_braid(BRAIDS[name])
        assert alexander_polynomial(g) == ALEXANDER[name]

    def test_unknot_grid(self):
        assert alexander_polynomial(UNKNOT2) == LaurentPoly({0: 1})

    @pytest.mark.parametrize("name", sorted(BRAIDS))
    def test_knot_and_mirror_match_cofactor_reference(self, name):
        for word in (BRAIDS[name], [-a for a in BRAIDS[name]]):
            g = parse_braid(word)
            assert reference_matches(g, alexander_polynomial(g)), word

    def test_random_grids_match_cofactor_reference(self):
        rng = random.Random(20261020)
        sizes = [n for n in range(2, 13) for _ in range(20 if n <= 9 else 14)]
        assert len(sizes) >= 200
        for n in sizes:
            g = random_grid(n, rng)
            assert reference_matches(g, alexander_polynomial(g)), g

    @pytest.mark.parametrize(
        "word, p, q, n",
        [([1] * 7, 2, 7, 9), ([1, 2, 3] * 5, 4, 5, 9), ([1, 2] * 7, 3, 7, 10), ([1] * 9, 2, 9, 11)],
        ids=["T(2,7)", "T(4,5)", "T(3,7)", "T(2,9)"],
    )
    def test_torus_knots_past_the_oracle(self, word, p, q, n):
        # Delta of T(p, q) is t^(-(p-1)(q-1)/2) (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1))
        g = minimize(parse_braid(word))
        assert g.n == n
        t, one = Laurent.monomial(1), Laurent.one()
        lhs = (t**p - one) * (t**q - one) * alexander_polynomial(g)
        rhs = ((t ** (p * q) - one) * (t - one)).shifted(-(p - 1) * (q - 1) // 2)
        assert lhs == rhs

    @pytest.mark.parametrize("name", ["unknot", "trefoil"])
    def test_indivisible_determinant_raises(self, name, monkeypatch):
        # (1-t)^(n-2) (1+t) at t = 2^b passes n-2 of the n-1 divisions by (1-t)
        g = parse_braid(BRAIDS[name])
        t = 1 << (g.n * g.n.bit_length() + 1)
        det = (1 - t) ** (g.n - 2) * (1 + t)
        monkeypatch.setattr(gridkit, "bareiss_determinant", lambda matrix: det)
        with pytest.raises(DegenerateDeterminant, match="not divisible"):
            alexander_polynomial(g)

    def test_vanished_determinant_raises(self, monkeypatch):
        monkeypatch.setattr(gridkit, "bareiss_determinant", lambda matrix: 0)
        with pytest.raises(DegenerateDeterminant, match="vanished"):
            alexander_polynomial(parse_braid(BRAIDS["trefoil"]))

    def test_oracle_symmetry_random(self, rng: random.Random):
        for n in (3, 4, 5):
            for _ in range(5):
                g = random_grid(n, rng)
                p = Laurent(alexander_polynomial(g).terms)
                assert p == p.inverse_t()
                assert p.eval_at_unit(1) == 1


class TestMoves:
    def trefoil(self) -> GridDiagram:
        return parse_braid(BRAIDS["trefoil"])

    def test_cyclic_shifts_preserve_everything(self):
        g = self.trefoil()
        p = alexander_polynomial(g)
        for k in range(1, g.n):
            for h in (cyclic_row_shift(g, k), cyclic_col_shift(g, k)):
                validate(h)
                assert alexander_polynomial(h) == p
                assert canonical_key(h) == canonical_key(g)

    def test_castling_preserves_knot(self):
        # The minimal trefoil grid has no legal castling (all adjacent
        # intervals interleave), so test on a stabilized diagram.
        g = stabilize(self.trefoil(), 0, 0, "XO")
        p = alexander_polynomial(g)
        hit = 0
        for c in range(g.n - 1):
            try:
                h = castle_columns(g, c)
            except IllegalCastling:
                continue
            hit += 1
            validate(h)
            assert alexander_polynomial(h) == p
        for r in range(g.n - 1):
            try:
                h = transpose(castle_columns(transpose(g), r))
            except IllegalCastling:
                continue
            hit += 1
            validate(h)
            assert alexander_polynomial(h) == p
        assert hit > 0

    def test_castling_shared_row_raises(self):
        g = GridDiagram((2, 0, 1), (0, 1, 2))
        validate(g)
        # columns 1 and 2 have marking intervals [0,1] and [1,2]
        with pytest.raises(IllegalCastling):
            castle_columns(g, 1)

    def test_castling_interleaved_raises(self):
        g = GridDiagram((0, 1, 2, 3, 4, 5), (5, 4, 0, 1, 2, 3))
        validate(g)
        # columns 4 and 5 have intervals [2,4] and [3,5]
        with pytest.raises(IllegalCastling):
            castle_columns(g, 4)

    def test_destabilize_merges_rows(self):
        g = GridDiagram((2, 0, 1), (0, 1, 2))
        h = destabilize_column(g, 1)
        assert h == UNKNOT2
        h2 = destabilize_column(g, 2)
        assert h2 == UNKNOT2

    def test_destabilize_too_small(self):
        with pytest.raises(TooSmall):
            destabilize_column(GridDiagram((1, 0), (0, 1)), 0)

    def test_destabilize_bad_site(self):
        g = self.trefoil()
        bad = [c for c in range(g.n) if abs(g.xs[c] - g.os[c]) != 1]
        with pytest.raises(ValueError):
            destabilize_column(g, bad[0])

    def test_stabilize_then_destabilize_roundtrip(self):
        g = self.trefoil()
        key = canonical_key(g)
        p = alexander_polynomial(g)
        for r0 in range(g.n):
            for ci in (0, 2, g.n):
                for kind in ("XO", "OX"):
                    h = stabilize(g, r0, ci, kind)
                    validate(h)
                    assert h.n == g.n + 1
                    assert ci in column_destabilization_sites(h)
                    assert alexander_polynomial(h) == p
                    assert canonical_key(destabilize_column(h, ci)) == key

    def test_row_destabilization(self):
        g = self.trefoil()
        h = stabilize(g, 1, 3, "XO")
        ht = transpose(h)
        sites = column_destabilization_sites(transpose(ht))
        assert sites
        back = transpose(destabilize_column(transpose(ht), sites[0]))
        validate(back)
        assert alexander_polynomial(back) == alexander_polynomial(ht)

    def test_transpose_involution(self, rng: random.Random):
        for _ in range(5):
            g = random_grid(6, rng)
            assert transpose(transpose(g)) == g

    def test_moves_preserve_oracle_random(self, rng: random.Random):
        for _ in range(3):
            g = random_grid(5, rng)
            p = alexander_polynomial(g)
            for h in [cyclic_row_shift(g), cyclic_col_shift(g), stabilize(g, 2, 1, "OX")]:
                validate(h)
                assert alexander_polynomial(h) == p


class TestCanonicalKey:
    def test_invariant_under_translation(self, rng: random.Random):
        for _ in range(10):
            g = random_grid(6, rng)
            key = canonical_key(g)
            for dr in range(6):
                for dc in range(6):
                    h = cyclic_col_shift(cyclic_row_shift(g, dr), dc)
                    assert canonical_key(h) == key

    def test_key_is_reachable_translate(self):
        g = parse_braid(BRAIDS["figure8"])
        key = canonical_key(g)
        h = GridDiagram(*key)
        validate(h)
        assert canonical_key(h) == key
        assert h.xs[0] == 0


class TestParseBraid:
    def test_empty_word(self):
        with pytest.raises(EmptyWord):
            parse_braid([])

    def test_zero_letter(self):
        with pytest.raises(ValueError):
            parse_braid([1, 0])

    def test_multi_component_closure(self):
        with pytest.raises(MultiComponentClosure):
            parse_braid([2])

    def test_trefoil_size(self):
        g = parse_braid(BRAIDS["trefoil"])
        assert g.n == 5

    @pytest.mark.parametrize("name", sorted(BRAIDS))
    def test_size_at_most_strands_plus_letters(self, name):
        word = BRAIDS[name]
        k = max(abs(a) for a in word) + 1
        g = parse_braid(word)
        assert g.n <= k + len(word)

    def test_unpeeled_size(self):
        word = BRAIDS["figure8"]
        raw = parse_braid(word, peel=False)
        assert raw.n == 2 * 3 + 4
        assert alexander_polynomial(raw) == ALEXANDER["figure8"]
        assert alexander_polynomial(greedy_destabilize(raw)) == ALEXANDER["figure8"]

    def test_mirror_word_mirrors_alexander(self):
        # The Alexander polynomial cannot see mirrors, so the reversed-sign
        # word must give the same oracle value.
        g = parse_braid([-a for a in BRAIDS["trefoil"]])
        assert alexander_polynomial(g) == ALEXANDER["trefoil"]


class TestGridText:
    def test_round_trip(self):
        g = parse_braid(BRAIDS["5_2"])
        assert parse_grid_text(format_grid_text(g)) == g

    def test_parse_with_comments(self):
        text = "# a knot\n3\nX: 2 0 1\nO: 0 1 2\n"
        g = parse_grid_text(text)
        assert g.xs == (2, 0, 1)

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_grid_text("3\nY: 2 0 1\nO: 0 1 2\n")

    def test_invalid_grid_rejected(self):
        with pytest.raises(CoincidentDecorations):
            parse_grid_text("2\nX: 0 1\nO: 0 1\n")
