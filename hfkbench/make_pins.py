"""Regenerate ``pins.json``: expected answers and pools of braid words.

Every named knot's table is computed once, over Z and over Z/2, by the
rectangle (``cells``) pipeline on the minimized grid of its braid word.
That pipeline is independent of the oval pipelines the benchmark times.
The grid-9 knot 7_1 is out of reach of ``cells`` (9! generators), so its
table is written down from theory: 7_1 is alternating, hence thin, so the
table is fixed by its Alexander polynomial and signature -6, giving rank 1
at (a, a + 3) for a = -3..3.

The pools hold, per knot and chirality, the braid words the workloads draw
from (see `workloads.build_pool`); they are drawn with a fixed seed.

Run from the repository root (takes about two minutes)::

    python3 hfkbench/make_pins.py
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from gridhfk.gridkit import parse_braid  # noqa: E402
from gridhfk.reducer import hfk_cells  # noqa: E402
from gridhfk.simplifier import minimize  # noqa: E402
from workloads import NAMED_WORDS, POOLS, build_pool  # noqa: E402

POOL_SEED = "pools:1"

#: knots whose tables the rectangle pipeline computes (all but 7_1)
CELLS_KNOTS = ("trefoil", "figure8", "5_2", "8_19", "8_20", "8_21")


def table_records(table) -> list[list]:
    return [[a, m, rank, list(tors)] for (a, m), (rank, tors) in table.groups.items()]


def main() -> None:
    knots: dict[str, dict] = {}
    for name in CELLS_KNOTS:
        word = list(NAMED_WORDS[name])
        g = minimize(parse_braid(word))
        entry = {"braid": word, "grid": g.n, "source": "cells", "tables": {}}
        for ring in ("Z", "Z2"):
            t0 = time.perf_counter()
            entry["tables"][ring] = table_records(hfk_cells(g, ring).table)
            print(f"{name} {ring}: {time.perf_counter() - t0:.1f} s", flush=True)
        knots[name] = entry
    seven_one = list(NAMED_WORDS["7_1"])
    thin = [[a, a + 3, 1, []] for a in range(-3, 4)]
    knots["7_1"] = {
        "braid": seven_one,
        "grid": minimize(parse_braid(seven_one)).n,
        "source": "theory: thin, signature -6",
        "tables": {"Z": thin, "Z2": thin},
    }
    rng = random.Random(POOL_SEED)
    pools = [
        {"knot": name, "mirror": mirror, **build_pool(name, mirror, rng)}
        for name, mirror in POOLS
    ]
    out = HERE / "pins.json"
    out.write_text(
        json.dumps({"knots": knots, "pools": pools}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
