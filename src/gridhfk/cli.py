"""Command-line front end for the grid knot invariant calculator.

One invocation takes a knot — a braid word or a grid file — computes the
bigraded invariant table over Z or Z/2 with the path engine on the short
oval complex, runs the configured consistency checks, and prints either a
human-readable report or a machine-readable one that parses back
losslessly.

The genus and fibered modes avoid the full table: the stabilization factor
in the computed homology only shifts gradings down, so both invariants are
read off the highest nonzero Alexander slice alone, which the path engine
builds from the short complex.  The lowest nonzero slice must mirror it
(`top_invariants` raises otherwise), and the answer is checked against the
Alexander polynomial: the genus bounds its degree, and a fibered knot's
polynomial has degree equal to the genus and a leading coefficient of ±1.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass

from .errors import CrosscheckFailed, GridHfkError
from .gridkit import (
    GridDiagram,
    LaurentPoly,
    alexander_polynomial,
    parse_braid,
    parse_grid_text,
)
from .reducer import (
    HFKTable,
    hfk_cells,
    hfk_paths,
    make_table,
    top_invariants,
)
from .simplifier import minimize

#: the dual-pipeline crosscheck defaults to on up to this grid size; above
#: it the rectangle complex (n! generators) dominates the whole run time
CROSSCHECK_SIZE_LIMIT = 8

MACHINE_HEADER = "# gridhfk machine-format 1"

#: the allowed values of each choice field of `RunConfig`, read by both
#: `build_parser` and `RunConfig.validate`
CHOICES = {
    "coeff": ("z", "z2"),
    "mode": ("hfk", "genus", "fibered", "torsion"),
    "skip": ("none", "auto"),
    "fmt": ("text", "machine"),
}


@dataclass
class RunConfig:
    """One invocation's worth of choices; mirrors the command-line flags.

    The allowed values of the choice fields are in `CHOICES`.
    """

    braid: tuple[int, ...] | None = None
    grid_path: str | None = None
    coeff: str = "z"
    mode: str = "hfk"
    simplify_budget: int = 20000
    skip: str = "none"
    crosscheck: bool | None = None  # None: on iff the minimized grid is small
    fmt: str = "text"

    def input_label(self) -> str:
        if self.braid is not None:
            return "braid " + " ".join(str(a) for a in self.braid)
        return f"grid {self.grid_path}"

    def validate(self) -> None:
        if (self.braid is None) == (self.grid_path is None):
            raise ValueError(
                "exactly one of a braid word or a grid file is required"
            )
        for name, options in CHOICES.items():
            value = getattr(self, name)
            if value not in options:
                raise ValueError(
                    f"{name} must be one of {', '.join(options)}; got {value!r}"
                )
        if self.simplify_budget < 0:
            raise ValueError("simplify budget must be nonnegative")
        if self.mode == "torsion" and self.coeff != "z":
            raise ValueError(
                "torsion reporting requires integer coefficients (--coeff z)"
            )


@dataclass
class RunResult:
    """Everything a finished run knows, ready for rendering."""

    config: RunConfig
    input_size: int
    grid: GridDiagram
    pipeline: str
    ring: str
    table: HFKTable | None
    genus: int
    fibered: bool
    torsion_free: bool | None
    checks: tuple[str, ...]


def parse_braid_word(text: str) -> tuple[int, ...]:
    """Letters from a string like ``"1 1 1"`` or ``"1,-2,1,-2"``."""
    tokens = [tok for tok in re.split(r"[\s,]+", text.strip()) if tok]
    if not tokens:
        raise ValueError("empty braid word")
    try:
        return tuple(int(tok) for tok in tokens)
    except ValueError:
        raise ValueError(f"braid letters must be integers: {text!r}") from None


def _load(cfg: RunConfig) -> GridDiagram:
    """The input knot of a validated config: exactly one source is set."""
    if cfg.grid_path is None:
        return parse_braid(cfg.braid)
    with open(cfg.grid_path, encoding="utf-8") as handle:
        return parse_grid_text(handle.read())


def _table_euler(table: HFKTable) -> LaurentPoly:
    """Graded Euler characteristic of the table as a Laurent polynomial."""
    coeffs: dict[int, int] = {}
    for (a, m), (rank, _) in table.groups.items():
        if rank:
            coeffs[a] = coeffs.get(a, 0) + (rank if m % 2 == 0 else -rank)
    return LaurentPoly(coeffs)


def symmetry_violation(table: HFKTable) -> tuple[int, int] | None:
    """A grading (a, m) where the table breaks H(a, m) = H(-a, m - 2a).

    Knot Floer homology has this symmetry for every knot, in rank and in
    torsion, so any mismatch marks a wrong table.  Returns None when every
    group matches its partner.
    """
    zero = (0, ())
    for a, m in table.groups:
        if table.groups[a, m] != table.groups.get((-a, m - 2 * a), zero):
            return a, m
    return None


def alexander_genus_violation(
    delta: LaurentPoly, genus: int, fibered: bool
) -> str | None:
    """Why (genus, fibered) cannot belong to a knot with Alexander polynomial Δ.

    Knot Floer homology categorifies Δ, so the genus bounds its degree,
    and a fibered knot's top group is one copy of Z, so there Δ has degree
    equal to the genus and a leading coefficient of ±1.  Returns None when
    both hold.
    """
    degree = delta.support()[1]
    if genus < degree:
        return f"genus {genus} is below the Alexander degree {degree}"
    if fibered and (degree != genus or abs(delta.coeff(genus)) != 1):
        return (
            f"fibered with genus {genus}, but the Alexander polynomial has "
            f"degree {degree} and leading coefficient {delta.coeff(degree)}"
        )
    return None


def run(cfg: RunConfig) -> RunResult:
    """Parse, simplify, compute, verify; raises on any failed check."""
    cfg.validate()
    g_in = _load(cfg)
    g = minimize(g_in, cfg.simplify_budget)
    ring = "Z" if cfg.coeff == "z" else "Z2"
    crosscheck = (
        cfg.crosscheck
        if cfg.crosscheck is not None
        else g.n <= CROSSCHECK_SIZE_LIMIT
    )
    delta = alexander_polynomial(g)
    checks: list[str] = []
    table: HFKTable | None = None

    if cfg.mode in ("genus", "fibered"):
        genus, fibered = top_invariants(g, ring)
        pipeline = "ovals-top-slice"
        checks.append("lowest nonzero slice mirrors the highest: ok")
        broken = alexander_genus_violation(delta, genus, fibered)
        if broken is not None:
            raise CrosscheckFailed(
                f"top-slice scan contradicts the Alexander polynomial: {broken}"
            )
        checks.append("Alexander polynomial against genus: ok")
    else:
        report = hfk_paths(g, ring, skip=cfg.skip)
        table, pipeline = report.table, report.pipeline
        genus, fibered = table.genus, table.fibered
        checks.extend(report.checks)
        euler = _table_euler(table)
        if euler != delta:
            raise CrosscheckFailed(
                "graded Euler characteristic differs from the determinant "
                f"polynomial: {euler!r} vs {delta!r}"
            )
        checks.append("Euler characteristic against determinant: ok")
        broken = symmetry_violation(table)
        if broken is not None:
            a, m = broken
            raise CrosscheckFailed(
                f"table breaks the symmetry H(a, m) = H(-a, m - 2a): "
                f"H({a}, {m}) = {table.groups[a, m]} but "
                f"H({-a}, {m - 2 * a}) = {table.groups.get((-a, m - 2 * a), (0, ()))}"
            )
        checks.append("symmetry H(a, m) = H(-a, m - 2a): ok")

    if crosscheck:
        reference = hfk_cells(g, ring).table
        # a table is compared whole, a top-slice answer as (genus, fibered)
        if table is not None:
            ours, theirs = table, reference
        else:
            ours, theirs = (genus, fibered), (reference.genus, reference.fibered)
        if ours != theirs:
            raise CrosscheckFailed(
                f"{pipeline} and rectangle pipelines disagree: {ours} vs {theirs}"
            )
        checks.append("crosscheck against rectangle pipeline: ok")

    return RunResult(
        config=cfg,
        input_size=g_in.n,
        grid=g,
        pipeline=pipeline,
        ring=ring,
        table=table,
        genus=genus,
        fibered=fibered,
        torsion_free=table.torsion_free if table is not None else None,
        checks=tuple(checks),
    )


# --------------------------------------------------------------------------
# rendering


def _group_text(rank: int, torsion: tuple[int, ...], ring: str) -> str:
    parts: list[str] = []
    base = "Z" if ring == "Z" else "Z2"
    if rank == 1:
        parts.append(base)
    elif rank > 1:
        parts.append(f"{base}^{rank}")
    parts.extend(f"Z/{t}" for t in torsion)
    return " + ".join(parts) if parts else "0"


def _table_rows(table: HFKTable) -> list[str]:
    wa = max(len(str(a)) for a, _ in table.groups)
    wm = max(len(str(m)) for _, m in table.groups)
    rows = []
    for (a, m), (rank, torsion) in sorted(table.groups.items()):
        rows.append(
            f"  ({a:>{wa}}, {m:>{wm}}): {_group_text(rank, torsion, table.ring)}"
        )
    return rows


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _emit_text(result: RunResult) -> str:
    cfg = result.config
    lines = [
        f"input: {cfg.input_label()}",
        f"grid size: {result.grid.n} (input {result.input_size}), "
        f"pipeline {result.pipeline}, coefficients {result.ring}",
    ]
    table = result.table
    if table is None:  # genus and fibered runs read the top slice only
        if cfg.mode == "genus":
            lines.append(f"genus: {result.genus}")
        else:
            lines.append(f"fibered: {_yesno(result.fibered)}")
    elif cfg.mode == "torsion":
        lines.append(f"torsion-free: {_yesno(bool(result.torsion_free))}")
        torsion_rows = [
            f"  ({a}, {m}): " + " + ".join(f"Z/{t}" for t in torsion)
            for (a, m), (_, torsion) in sorted(table.groups.items())
            if torsion
        ]
        if torsion_rows:
            lines.append("torsion summands:")
            lines.extend(torsion_rows)
    else:
        lines.extend(_table_rows(table))
        lines.append(f"total rank: {table.total_rank()}")
        lines.append(f"genus: {table.genus}")
        lines.append(f"fibered: {_yesno(table.fibered)}")
        if result.ring == "Z":
            lines.append(f"torsion-free: {_yesno(table.torsion_free)}")
    for check in result.checks:
        lines.append(f"check: {check}")
    return "\n".join(lines)


def _emit_machine(result: RunResult) -> str:
    cfg = result.config
    lines = [
        MACHINE_HEADER,
        f"# input: {cfg.input_label()}",
        f"# n: {result.grid.n}",
        f"# pipeline: {result.pipeline}",
        f"# ring: {result.ring}",
        f"# mode: {cfg.mode}",
    ]
    table = result.table
    if table is None:  # genus and fibered runs read the top slice only
        if cfg.mode == "genus":
            lines.append(f"genus {result.genus}")
        else:
            lines.append(f"fibered {str(result.fibered).lower()}")
    else:  # one record per group; in torsion mode, per group with torsion
        if cfg.mode == "torsion":
            lines.append(f"torsion-free {str(result.torsion_free).lower()}")
        for (a, m), (rank, torsion) in sorted(table.groups.items()):
            if torsion or cfg.mode != "torsion":
                lines.append(" ".join(map(str, (a, m, rank, *torsion))))
    return "\n".join(lines)


def emit_report(result: RunResult) -> str:
    """Render a finished run in the configured output format."""
    if result.config.fmt == "machine":
        return _emit_machine(result)
    return _emit_text(result)


def parse_machine(text: str) -> HFKTable:
    """Rebuild the invariant table from machine-format ``hfk`` output.

    Inverse of the machine rendering: reads the ring from the header and
    one ``a m rank [factors...]`` record per line, then rebuilds the table
    (including genus, fiberedness, and the torsion flag) from the groups.
    A record no rendering emits raises: a negative rank, a factor below 2,
    factors out of divisibility order, or any factor over Z/2.
    """
    ring: str | None = None
    groups: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            head, _, value = line[1:].partition(":")
            key = head.strip()
            if key == "ring":
                ring = value.strip()
            elif key == "mode" and value.strip() != "hfk":
                raise ValueError(
                    f"only hfk-mode output parses to a table; got {value.strip()!r}"
                )
            continue
        fields = line.split()
        if len(fields) < 3:
            raise ValueError(f"malformed record: {line!r}")
        try:
            numbers = [int(tok) for tok in fields]
        except ValueError:
            raise ValueError(f"malformed record: {line!r}") from None
        a, m, rank = numbers[:3]
        torsion = tuple(numbers[3:])
        if rank < 0 or min(torsion, default=2) < 2 or any(
            later % f for f, later in zip(torsion, torsion[1:])
        ):
            raise ValueError(f"malformed record: {line!r}")
        if (a, m) in groups:
            raise ValueError(f"duplicate record for grading ({a}, {m})")
        groups[(a, m)] = (rank, torsion)
    if ring not in ("Z", "Z2"):
        raise ValueError("missing or unrecognized ring header")
    if ring == "Z2" and any(torsion for _, torsion in groups.values()):
        raise ValueError("torsion factors in a Z2 table")
    if not groups:
        raise ValueError("no records found")
    return make_table({(2 * a, m): grp for (a, m), grp in groups.items()}, ring)


# --------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridhfk",
        description=(
            "Compute the bigraded knot invariant table of a knot presented "
            "as a braid word or a grid diagram."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--braid",
        metavar="WORD",
        help='braid word, e.g. "1 1 1" (negative letters are inverses)',
    )
    source.add_argument(
        "--grid",
        metavar="FILE",
        help="grid file: a size line, then 'X: ...' and 'O: ...' row lists",
    )
    parser.add_argument(
        "--coeff",
        choices=CHOICES["coeff"],
        default=RunConfig.coeff,
        help="coefficient ring: integers or the two-element field",
    )
    parser.add_argument(
        "--mode",
        choices=CHOICES["mode"],
        default=RunConfig.mode,
        help="full table, or a single derived invariant",
    )
    parser.add_argument(
        "--strategy",
        choices=("paths",),
        help=(
            "accepted for older scripts: paths, lazy cancellation-path rows "
            "of the short complex, is the only route"
        ),
    )
    parser.add_argument(
        "--simplify-budget",
        type=int,
        default=RunConfig.simplify_budget,
        metavar="N",
        help="search-node budget for grid-size minimization (0 disables)",
    )
    parser.add_argument(
        "--skip",
        choices=CHOICES["skip"],
        default=RunConfig.skip,
        help="auto: skip the largest Alexander slices and reconstruct them",
    )
    parser.add_argument(
        "--crosscheck",
        choices=("on", "off"),
        default=None,
        help=(
            "also run the independent rectangle pipeline (n! generators) and "
            f"compare (default: on up to grid size {CROSSCHECK_SIZE_LIMIT})"
        ),
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=CHOICES["fmt"],
        default=RunConfig.fmt,
        help="human-readable report or line-delimited records",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        braid=parse_braid_word(args.braid) if args.braid is not None else None,
        grid_path=args.grid,
        coeff=args.coeff,
        mode=args.mode,
        simplify_budget=args.simplify_budget,
        skip=args.skip,
        crosscheck=None if args.crosscheck is None else args.crosscheck == "on",
        fmt=args.fmt,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = run(config_from_args(args))
        print(emit_report(result))
    except (GridHfkError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
