from __future__ import annotations

import random

from conftest import BRAIDS, random_grid, stabilize
from gridhfk.gridkit import (
    GridDiagram,
    alexander_polynomial,
    canonical_key,
    generalized_destabilizations,
    parse_braid,
    validate,
)
from gridhfk.simplifier import minimize


class TestMinimize:
    def test_zero_budget_is_identity_up_to_translation(self):
        g = parse_braid(BRAIDS["trefoil"])
        assert minimize(g, budget=0) == g

    def test_preserves_knot(self):
        for name in ("trefoil", "figure8", "5_2"):
            g = parse_braid(BRAIDS[name])
            m = minimize(g, budget=2000)
            validate(m)
            assert alexander_polynomial(m) == alexander_polynomial(g)
            assert m.n <= g.n

    def test_reduces_braid_presentations(self):
        # Grid sizes of small knots are known; the search should reach them
        # from the braid presentations quickly.
        expected = {"trefoil": 5, "figure8": 6, "5_2": 7, "8_19": 7}
        for name, size in expected.items():
            m = minimize(parse_braid(BRAIDS[name]), budget=4000)
            assert m.n == size, name

    def test_stabilized_unknot_collapses(self):
        g = GridDiagram((1, 0), (0, 1))
        h = g
        for i in range(4):
            h = stabilize(h, i % h.n, (2 * i) % (h.n + 1), "XO" if i % 2 else "OX")
        assert h.n == 6
        m = minimize(h, budget=5000)
        assert m.n == 2
        assert canonical_key(m) == canonical_key(g)

    def test_deterministic(self, rng: random.Random):
        for _ in range(3):
            g = random_grid(6, rng)
            a = minimize(g, budget=300)
            b = minimize(g, budget=300)
            assert a == b

    def test_budget_monotone(self):
        g = parse_braid(BRAIDS["5_2"])
        small = minimize(g, budget=5)
        big = minimize(g, budget=2000)
        assert big.n <= small.n


class TestGeneralizedDestabilizations:
    def test_unlocks_hidden_site(self):
        # This diagram has no direct destabilization site, but sliding one
        # line exposes one.
        g = GridDiagram((0, 1, 2, 3, 4, 5), (5, 4, 0, 1, 2, 3))
        validate(g)
        from gridhfk.gridkit import column_destabilization_sites, row_destabilization_sites

        assert not column_destabilization_sites(g)
        assert not row_destabilization_sites(g)
        out = generalized_destabilizations(g)
        assert out
        p = alexander_polynomial(g)
        for h in out:
            validate(h)
            assert h.n == g.n - 1
            assert alexander_polynomial(h) == p
