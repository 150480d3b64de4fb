"""Torus knot tables against the L-space staircase read off Δ.

Torus knots are L-space knots, so their table follows from the Alexander
polynomial alone (`references.staircase_table`).  The rectangle oracle
fixes the package's convention on the torus knots it reaches (grid size
at most 8); past it, the skip route is pinned to the staircase.
"""

import pytest

from references import staircase_table

from gridhfk.gridkit import alexander_polynomial, parse_braid
from gridhfk.reducer import hfk_cells, hfk_paths
from gridhfk.simplifier import minimize

#: positive braid words, (σ1 ⋯ σ_{p−1})^q for T(p, q)
ORACLE = {"trefoil": [1] * 3, "T(2,5)": [1] * 5, "8_19": [1, 2] * 4, "T(3,5)": [1, 2] * 5}
PAST_ORACLE = {"T(4,5)": [1, 2, 3] * 5, "T(2,9)": [1] * 9, "T(3,7)": [1, 2] * 7}


@pytest.mark.parametrize("word", ORACLE.values(), ids=ORACLE)
def test_oracle_reads_the_staircase(word):
    # a positive braid gives the staircase, its mirror the staircase mirrored
    for letters, sign in ((word, 1), ([-a for a in word], -1)):
        g = minimize(parse_braid(letters))
        assert g.n <= 8
        expected = {
            (sign * a, sign * m): grp
            for (a, m), grp in staircase_table(alexander_polynomial(g)).items()
        }
        assert hfk_cells(g, "Z").table.groups == expected


@pytest.mark.parametrize("word", PAST_ORACLE.values(), ids=PAST_ORACLE)
def test_skip_route_past_the_oracle(word):
    g = minimize(parse_braid(word))
    assert g.n > 8
    table = hfk_paths(g, skip="auto").table
    assert table.groups == staircase_table(alexander_polynomial(g))


def test_only_l_space_polynomials():
    g = minimize(parse_braid([1, -2, 1, -2]))  # figure-eight: Δ = −t + 3 − 1/t
    with pytest.raises(ValueError):
        staircase_table(alexander_polynomial(g))
