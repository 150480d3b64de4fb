from __future__ import annotations

import hashlib
import random

from conftest import BRAIDS, random_grid, stabilize
from gridhfk.errors import MultiComponentClosure
from gridhfk.gridkit import (
    GridDiagram,
    alexander_polynomial,
    canonical_key,
    column_destabilization_sites,
    moves,
    parse_braid,
    transpose,
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
        # line exposes one, so every smaller neighbour is slide-assisted.
        g = GridDiagram((0, 1, 2, 3, 4, 5), (5, 4, 0, 1, 2, 3))
        validate(g)
        assert not column_destabilization_sites(g)
        assert not column_destabilization_sites(transpose(g))
        out = [h for h in moves(g) if h.n < g.n]
        assert out
        p = alexander_polynomial(g)
        for h in out:
            validate(h)
            assert h.n == g.n - 1
            assert alexander_polynomial(h) == p


#: Torus knots pinned besides `BRAIDS`, at grid sizes 9 to 11.
TORUS = {"7_1": [1] * 7, "T(4,5)": [1, 2, 3] * 5, "T(3,7)": [1, 2] * 7, "T(2,9)": [1] * 9}


def key_text(g: GridDiagram) -> str:
    """The canonical key of ``g`` as ``"xs / os"``."""
    xs, os = canonical_key(g)
    return " ".join(map(str, xs)) + " / " + " ".join(map(str, os))


def keys_digest(grids) -> str:
    """SHA-256 of the canonical keys of ``grids``, in order."""
    return hashlib.sha256("\n".join(map(key_text, grids)).encode()).hexdigest()


def random_knot_words(rng: random.Random, count: int) -> list[list[int]]:
    """``count`` 3-strand braid words of 4-12 letters whose closures are knots."""
    words = []
    while len(words) < count:
        word = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(4, 12))]
        if 2 not in map(abs, word):
            continue
        try:
            parse_braid(word, peel=False)
        except MultiComponentClosure:
            continue
        words.append(word)
    return words


#: ``key_text`` of ``parse_braid(w)`` and of ``minimize(parse_braid(w))``, by
#: knot and mirror (every letter negated).  The benchmark's word pools and
#: the digests pinned on minimized grids elsewhere depend on these choices.
CHOSEN_GRIDS = {
    ("unknot", False): ("0 1 / 1 0", "0 1 / 1 0"),
    ("unknot", True): ("0 1 / 1 0", "0 1 / 1 0"),
    ("trefoil", False): ("0 1 2 3 4 / 3 4 0 1 2", "0 1 2 3 4 / 3 4 0 1 2"),
    ("trefoil", True): ("0 4 3 2 1 / 3 2 1 0 4", "0 4 3 2 1 / 3 2 1 0 4"),
    ("figure8", False): ("0 1 3 2 5 4 / 2 5 0 4 3 1", "0 1 3 2 5 4 / 2 5 0 4 3 1"),
    ("figure8", True): ("0 1 3 2 5 4 / 2 5 0 4 3 1", "0 1 3 2 5 4 / 2 5 0 4 3 1"),
    ("5_2", False): ("0 1 2 3 4 8 7 5 6 / 5 8 0 1 7 6 2 3 4", "0 1 2 3 4 6 5 / 4 6 0 5 1 3 2"),
    ("5_2", True): ("0 1 6 4 3 5 2 / 5 4 3 2 0 1 6", "0 1 6 4 3 5 2 / 4 5 3 2 1 0 6"),
    ("8_19", False): ("0 1 2 3 4 5 6 / 4 5 6 0 1 2 3", "0 1 2 3 4 5 6 / 4 5 6 0 1 2 3"),
    ("8_19", True): ("0 6 5 4 3 2 1 / 4 3 2 1 0 6 5", "0 6 5 4 3 2 1 / 4 3 2 1 0 6 5"),
    ("8_20", False): (
        "0 1 3 4 2 7 6 8 5 / 7 8 0 1 6 5 4 3 2",
        "0 1 2 7 5 4 6 3 / 5 6 0 4 3 1 2 7",
    ),
    ("8_20", True): ("0 1 3 2 5 7 6 4 / 5 7 0 6 1 4 3 2", "0 1 3 2 4 7 6 5 / 4 7 0 6 1 5 3 2"),
    ("8_21", False): (
        "0 1 2 3 4 10 9 8 5 6 7 / 6 10 0 1 9 8 7 2 3 4 5",
        "0 1 3 2 4 7 5 6 / 5 7 0 6 1 3 2 4",
    ),
    ("8_21", True): (
        "0 2 4 1 7 6 8 5 3 / 7 8 0 6 5 4 3 2 1",
        "0 1 7 5 4 6 3 2 / 5 6 4 3 0 2 1 7",
    ),
    ("7_1", False): ("0 1 2 3 4 5 6 7 8 / 7 8 0 1 2 3 4 5 6",) * 2,
    ("7_1", True): ("0 8 7 6 5 4 3 2 1 / 7 6 5 4 3 2 1 0 8",) * 2,
    ("T(4,5)", False): (
        "0 1 2 3 4 5 6 7 10 9 8 / 7 8 9 10 0 3 2 1 4 5 6",
        "0 1 2 3 4 5 6 7 8 / 5 6 7 8 0 1 2 3 4",
    ),
    ("T(4,5)", True): ("0 8 7 6 5 4 3 2 1 / 5 4 3 2 1 0 8 7 6",) * 2,
    ("T(3,7)", False): ("0 1 2 3 4 5 6 7 8 9 / 7 8 9 0 1 2 3 4 5 6",) * 2,
    ("T(3,7)", True): ("0 9 8 7 6 5 4 3 2 1 / 7 6 5 4 3 2 1 0 9 8",) * 2,
    ("T(2,9)", False): ("0 1 2 3 4 5 6 7 8 9 10 / 9 10 0 1 2 3 4 5 6 7 8",) * 2,
    ("T(2,9)", True): ("0 10 9 8 7 6 5 4 3 2 1 / 9 8 7 6 5 4 3 2 1 0 10",) * 2,
}

#: ``keys_digest`` of the 30 peeled closures of ``random_knot_words(Random(2701),
#: 30)`` followed by their 30 minimized grids.
RANDOM_WORDS_DIGEST = "512ff9e21a7b3d4fed712d0c03e18901308c3e7d56095cc0450ac33a40933143"

#: ``keys_digest`` of ``minimize(g, budget)`` over ten `random_grid`s of sizes
#: 5, 6, 7, 8, 5, ... drawn from ``Random(2702)``, by budget (``None``: the
#: default).  Budgets 1 and 2 stop mid-descent, so they pin which smaller
#: neighbour is taken first.
RANDOM_GRIDS_DIGESTS = {
    0: "19273e1f5f03584cc4d0103cb547533a1501c4d29ae0a65b8910a96fd8351dc2",
    1: "6f0c77ff49280418b2ceba995bf89efb312a2d8c1b768417b611fc6e3947334e",
    2: "efffd608cab61f668dae1f5c3db65cea8ae2c7c54b97861f8871af4c3a448643",
    5: "21e8ebf2c73d4ecb1ca653d198a545124422a3e0e6f3c21084629acf8a0eff1e",
    300: "cb1de88d1773116dd7158e4310146523e05f5075a59eed06d5de30b97d30ebd3",
    None: "cb1de88d1773116dd7158e4310146523e05f5075a59eed06d5de30b97d30ebd3",
}

#: ``keys_digest`` of ``minimize(parse_braid(w, peel=False), budget)`` over the
#: words of `BRAIDS` then `TORUS`, by budget.  Each stops mid-descent, so the
#: order the frontier is expanded in shows here.
UNPEELED_DIGESTS = {
    1: "3d3cef2184f3a877d4aa44db4bff6fe149686571eecc0506688b7d63d1b07777",
    3: "c31613c40e6badb7edb1972e9d6d199f512cd02733308b619f3e5ad0ba7dc094",
    10: "7fac77f9fb8d97bd823ca2498062ef33f1963019f0169fc016a02449ea802b5a",
    30: "e06f91d9e98864f9bb418397fe36c5ec89aaddb966c4addb4d450945f1076823",
}


#: ``keys_digest`` of every diagram `moves` yields, in order and duplicates
#: kept, from each `BRAIDS` grid and then from ten `random_grid`s of sizes
#: 5, 6, 7, 8, 9, 5, ... drawn from ``Random(2901)``: 745 diagrams.
MOVES_DIGEST = "bb6e62646c652588ef8ff18bdc1964e102b5ac28d55bb7f2d1ff72b114c05dda"


class TestChosenGrids:
    def test_moves_in_order(self):
        grids = [parse_braid(w) for w in BRAIDS.values()]
        rng = random.Random(2901)
        grids += [random_grid(5 + i % 5, rng) for i in range(10)]
        out = [h for g in grids for h in moves(g)]
        assert len(out) == 745
        assert keys_digest(out) == MOVES_DIGEST

    def test_named_words(self):
        for (name, mirror), pinned in CHOSEN_GRIDS.items():
            word = {**BRAIDS, **TORUS}[name]
            g = parse_braid([-a for a in word] if mirror else word)
            assert (key_text(g), key_text(minimize(g))) == pinned, (name, mirror)

    def test_random_words(self):
        peeled = [parse_braid(w) for w in random_knot_words(random.Random(2701), 30)]
        assert keys_digest(peeled + [minimize(g) for g in peeled]) == RANDOM_WORDS_DIGEST

    def test_random_grids_by_budget(self):
        rng = random.Random(2702)
        grids = [random_grid(5 + i % 4, rng) for i in range(10)]
        for budget, pinned in RANDOM_GRIDS_DIGESTS.items():
            minimized = [minimize(g) if budget is None else minimize(g, budget) for g in grids]
            assert keys_digest(minimized) == pinned, budget

    def test_unpeeled_words_by_budget(self):
        raw = [parse_braid(w, peel=False) for w in {**BRAIDS, **TORUS}.values()]
        for budget, pinned in UNPEELED_DIGESTS.items():
            assert keys_digest([minimize(g, budget) for g in raw]) == pinned, budget
