"""Seeded inputs of the benchmark's workloads and their pinned answers.

A workload is a list of `Knot` jobs.  Each workload fixes the knot,
chirality, ring and skip policy of every job; the seed picks each job's
braid word and alternates modes within a knot's jobs.  Jobs run in a fixed
order.

Every word comes from a pinned pool (``pins.json``, written by
``make_pins.py``) of presentations of one knot in one chirality that all
minimize to the same grid as the knot's named word.  The program still
has to find that grid from a different word each time, but every seed
then measures the same complexes: other grids of the same knot cost up to
40 % more, and on some grid-8 grids the paths pipeline returns wrong tables
(see the README).

The program itself sees nothing but the braid words and flags built by
`Knot.argv`.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from gridhfk.gridkit import canonical_key, parse_braid
from gridhfk.reducer import make_table
from gridhfk.simplifier import minimize

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: named knots as in the test suite's BRAIDS table; 7_1 is the grid-9 knot
NAMED_WORDS: dict[str, tuple[int, ...]] = {
    "trefoil": (1, 1, 1),
    "figure8": (1, -2, 1, -2),
    "5_2": (1, 1, 1, 2, -1, 2),
    "8_19": (1, 2, 1, 2, 1, 2, 1, 2),
    "8_20": (1, 1, 1, -2, -1, -1, -1, -2),
    "8_21": (1, 1, 1, 2, -1, -1, 2, 2),
    "7_1": (1, 1, 1, 1, 1, 1, 1),
}

#: 3-strand words from which random presentations grow (trefoil is
#: stabilized once from its 2-strand word), with the lengths they grow to
RANDOM_BASE: dict[str, tuple[int, ...]] = {
    "trefoil": (1, 1, 1, 2),
    "figure8": (1, -2, 1, -2),
    "5_2": (1, 1, 1, 2, -1, 2),
    "8_19": (1, 2, 1, 2, 1, 2, 1, 2),
    "8_20": (1, 1, 1, -2, -1, -1, -1, -2),
}
RANDOM_LENGTHS = (6, 8, 10)
POOL_SIZE = 24

_BOTH = (False, True)


def _cross(*factors) -> list[tuple]:
    return list(itertools.product(*factors))


#: one pass of census-n7: per knot, the (mirror, coeff, skip) combination of
#: each job.  8_19 always skips: its unskipped table takes 3-6 s.
CENSUS = {
    "trefoil": _cross(_BOTH, ("z", "z2"), ("none", "auto")) * 2,
    "figure8": _cross(_BOTH, ("z", "z2"), ("none", "auto")) * 2,
    "5_2": _cross(_BOTH, ("z", "z2"), ("none", "auto")),
    "8_19": _cross(_BOTH, ("z", "z2"), ("auto",)),
}
CENSUS_MAX_INPUT_GRID = 7
#: one pass of grid-n8n9: the full Z table of TABLE_KNOT, plus, per knot,
#: the (mirror, coeff) combination of each genus or fibered job.  The table
#: takes about 38 s, a 7_1 mirror job about 4 s, the others 0.1-1.5 s.
TABLE_KNOT = "8_20"
GENUS = {
    "7_1": [(False, "z"), (True, "z2")],
    "8_20": _cross(_BOTH, ("z", "z2")),
    "8_21": _cross(_BOTH, ("z", "z2")),
}

WORKLOADS = ("census-n7", "grid-n8n9")

#: the pools make_pins.py writes: (knot, mirror) -> kinds of presentation
POOLS = {
    **{(name, m): ("rotations", "random") for name in CENSUS for m in _BOTH},
    **{(name, m): ("rotations",) for name in GENUS for m in _BOTH},
    (TABLE_KNOT, False): ("rotations", "random"),
}


@dataclass(frozen=True)
class Knot:
    """One job: a knot presentation plus the flags it runs with."""

    name: str  # pinned knot this word presents (before mirroring)
    mirror: bool
    word: tuple[int, ...]
    coeff: str  # "z" | "z2"
    mode: str  # "hfk" | "genus" | "fibered"
    skip: str  # "none" | "auto"
    crosscheck: bool

    @property
    def ring(self) -> str:
        return "Z" if self.coeff == "z" else "Z2"

    def argv(self) -> list[str]:
        """Command-line arguments of ``gridhfk.cli.main`` for this job.

        The only place the benchmark chooses flags: the ``paths`` strategy
        and an explicit crosscheck setting for every job.
        """
        return [
            "--braid", " ".join(str(a) for a in self.word),
            "--coeff", self.coeff,
            "--mode", self.mode,
            "--strategy", "paths",
            "--skip", self.skip,
            "--crosscheck", "on" if self.crosscheck else "off",
            "--format", "machine",
        ]


# --------------------------------------------------------------------------
# braid words and their pools


def mirrored(word) -> tuple[int, ...]:
    """The word of the mirror image: every crossing changes sign."""
    return tuple(-a for a in word)


def rotated(word, r: int) -> tuple[int, ...]:
    """Cyclic rotation, a conjugation: the closure is the same knot."""
    r %= len(word)
    return tuple(word[r:]) + tuple(word[:r])


def scramble(base, length: int, rng: random.Random) -> tuple[int, ...]:
    """A random 3-strand word of ``length`` letters closing to ``base``'s knot.

    Only moves that keep the closure's knot type are used: conjugation by a
    random letter (which adds one letter and its inverse), the braid
    relation ``s1 s2 s1 = s2 s1 s2`` at a random site, the automorphism
    exchanging ``s1`` and ``s2``, and a final rotation.
    """
    w = list(base)
    if (length - len(w)) % 2 or length < len(w):
        raise ValueError(f"cannot grow a {len(w)}-letter word to {length}")
    while len(w) < length:
        x = rng.choice((1, -1, 2, -2))
        w = [x, *w, -x]
        r = rng.randrange(len(w))
        w = w[r:] + w[:r]
    for _ in range(3):
        sites = [
            i
            for i in range(len(w) - 2)
            if w[i] == w[i + 2]
            and abs(w[i]) != abs(w[i + 1])
            and (w[i] > 0) == (w[i + 1] > 0)
        ]
        if not sites:
            break
        i = rng.choice(sites)
        w[i : i + 3] = [w[i + 1], w[i], w[i + 1]]
    if rng.random() < 0.5:
        w = [(3 - abs(a)) * (1 if a > 0 else -1) for a in w]
    return rotated(w, rng.randrange(len(w)))


def build_pool(name: str, mirror: bool, rng: random.Random) -> dict[str, list]:
    """Presentations of one knot and chirality that reach the named grid.

    ``rotations`` are the rotations of the named word, ``random`` are
    `scramble` words; census knots also need an input grid of at most 7.
    """
    orient = mirrored if mirror else tuple
    named = NAMED_WORDS[name]
    target = canonical_key(minimize(parse_braid(orient(named))))
    limit = CENSUS_MAX_INPUT_GRID if name in CENSUS else None

    def fits(word) -> bool:
        g = parse_braid(word)
        return (limit is None or g.n <= limit) and canonical_key(minimize(g)) == target

    rotations = sorted({orient(rotated(named, r)) for r in range(len(named))})
    pool = {"rotations": [w for w in rotations if fits(w)]}
    if not pool["rotations"]:
        raise ValueError(f"no rotation of {name} reaches its grid")
    if "random" in POOLS[(name, mirror)]:
        base = RANDOM_BASE[name]
        lengths = [n for n in RANDOM_LENGTHS if n >= len(base)]
        words: list[tuple[int, ...]] = []
        while len(words) < POOL_SIZE:
            word = orient(scramble(base, rng.choice(lengths), rng))
            if word not in words and fits(word):
                words.append(word)
        pool["random"] = words
    return pool


# --------------------------------------------------------------------------
# workloads

Pools = dict[tuple[str, bool], dict[str, list]]


def in_run_order(jobs: list[Knot]) -> list[Knot]:
    """Jobs in a fixed order: by knot, chirality, ring, skip policy, mode.

    Which job runs first decides which one fills the process-wide caches
    (the spin lifts of the rectangle complex) and how the heap fragments,
    which moved peak RSS by 15 % between seeds when the order was shuffled.
    """
    knots = list(NAMED_WORDS)
    return sorted(
        jobs, key=lambda k: (knots.index(k.name), k.mirror, k.coeff, k.skip, k.mode)
    )


def census(rng: random.Random, pools: Pools) -> list[Knot]:
    """Knots of grid size <= 7, every check on, both rings and skip policies.

    Each knot's first job per chirality uses a rotation of its named word;
    the others use random 3-strand presentations.
    """
    jobs = []
    for name, combos in CENSUS.items():
        named_done: set[bool] = set()
        for mirror, coeff, skip in rng.sample(combos, len(combos)):
            kind = "random" if mirror in named_done else "rotations"
            named_done.add(mirror)
            word = tuple(rng.choice(pools[(name, mirror)][kind]))
            jobs.append(Knot(name, mirror, word, coeff, "hfk", skip, True))
    return in_run_order(jobs)


def grid(rng: random.Random, pools: Pools) -> list[Knot]:
    """Grid sizes 8 and 9, no crosscheck: one full table and the top-slice scan.

    The full Z table of 8_20 is one job on a random 3-strand presentation.
    The genus and fibered jobs use rotations of the named words; each
    knot's jobs alternate between the two modes, which run the same
    top-slice scan.
    """
    word = tuple(rng.choice(pools[(TABLE_KNOT, False)]["random"]))
    jobs = [Knot(TABLE_KNOT, False, word, "z", "hfk", "none", False)]
    for name, combos in GENUS.items():
        for i, (mirror, coeff) in enumerate(rng.sample(combos, len(combos))):
            word = tuple(rng.choice(pools[(name, mirror)]["rotations"]))
            mode = ("genus", "fibered")[i % 2]
            jobs.append(Knot(name, mirror, word, coeff, mode, "none", False))
    return in_run_order(jobs)


def load_pools() -> Pools:
    """The pinned word pools: (knot, mirror) -> kind -> words."""
    pools: Pools = {}
    for entry in json.loads(PINS_PATH.read_text(encoding="utf-8"))["pools"]:
        key = (entry["knot"], entry["mirror"])
        pools[key] = {kind: entry[kind] for kind in POOLS[key]}
    return pools


def generate(workload: str, seed: int) -> list[Knot]:
    """The jobs of one pass of ``workload``; the same seed gives the same jobs."""
    build = {"census-n7": census, "grid-n8n9": grid}
    if workload not in build:
        raise ValueError(f"unknown workload {workload!r}; one of {', '.join(WORKLOADS)}")
    return build[workload](random.Random(f"{workload}:{seed}"), load_pools())


# --------------------------------------------------------------------------
# pinned answers

Table = dict[tuple[int, int], tuple[int, tuple[int, ...]]]


def load_pins() -> dict[str, dict[str, Table]]:
    """Pinned tables per knot and ring: (a, m) -> (rank, torsion)."""
    raw = json.loads(PINS_PATH.read_text(encoding="utf-8"))["knots"]
    return {
        name: {
            ring: {(a, m): (rank, tuple(tors)) for a, m, rank, tors in records}
            for ring, records in entry["tables"].items()
        }
        for name, entry in raw.items()
    }


def mirror_table(t: Table) -> Table:
    """The mirror's table, (a, m) -> (-a, -m); valid only without torsion."""
    if any(tors for _, tors in t.values()):
        raise ValueError("mirroring a table with torsion needs the dual groups")
    return {(-a, -m): group for (a, m), group in t.items()}


def expected(knot: Knot, pins: dict[str, dict[str, Table]]):
    """The pinned answer of a job: a table, a genus or a fibered flag."""
    t = pins[knot.name][knot.ring]
    if knot.mirror:
        t = mirror_table(t)
    if knot.mode == "hfk":
        return t
    folded = make_table({(2 * a, m): group for (a, m), group in t.items()}, knot.ring)
    return folded.genus if knot.mode == "genus" else folded.fibered
