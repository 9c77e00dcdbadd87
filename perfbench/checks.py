"""Independent output checks for the benchmark.

Nothing here imports halfrare.  The reference is written from the paper's
formulas for one subset X of N events with marginals p:

    lower(X) = max{0, 1 - sum_{x in X} (1 - p_x) - sum_{x not in X} p_x}
    upper(X) = min{min_{x in X} p_x, min_{x not in X} (1 - p_x)}
    star(X)  = prod_{x in X} p_x * prod_{x not in X} (1 - p_x)

A table is a list of (lower, star, upper) Fractions indexed by subset
bitmask (bit i set: the i-th event is in X).  Decimal output is rounded to
`digits` places, so each printed value may sit up to half a unit of the
last place `h` from the exact one; exact output has h = 0.

Every check raises CheckFailed naming itself, so the self-test can show
that each one rejects the corruption aimed at it.
"""

from __future__ import annotations

import json
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

#: The reference checks every cell up to this N (0.5 s for one N=12
#: table, paid once per operation and run), a seeded sample above it.
ALL_CELLS_MAX_N = 12
SAMPLE_CELLS = 64


#: What parsing an output the program garbled can raise.
MALFORMED = (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError, ET.ParseError)


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def require(ok: bool, check: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(check, detail)


# -- reference --------------------------------------------------------------

def ref_lower(x: int, p) -> Fraction:
    return max(ZERO, ONE - sum((ONE - q) if x >> i & 1 else q for i, q in enumerate(p)))


def ref_upper(x: int, p) -> Fraction:
    return min(q if x >> i & 1 else ONE - q for i, q in enumerate(p))


def ref_star(x: int, p) -> Fraction:
    v = ONE
    for i, q in enumerate(p):
        v *= q if x >> i & 1 else ONE - q
    return v


def half_unit(digits: int | None) -> Fraction:
    """Largest rounding error of a value printed with `digits` decimals."""
    return ZERO if digits is None else Fraction(1, 2 * 10**digits)


def sample_cells(n: int, rng: random.Random) -> list[int]:
    if n <= ALL_CELLS_MAX_N:
        return list(range(1 << n))
    full = (1 << n) - 1
    return sorted({0, 1, full} | {rng.randrange(1 << n) for _ in range(SAMPLE_CELLS)})


# -- parsers ------------------------------------------------------------------

def subset_of(indicator: str) -> int:
    return sum(1 << i for i, c in enumerate(indicator) if c == "1")


def _rows(pairs) -> list:
    """(indicator, lower, star, upper) strings -> table; rows out of subset
    order fail the layout check."""
    table = []
    for k, (ind, lo, st, up) in enumerate(pairs):
        require(subset_of(ind) == k, "layout", f"row {k} is subset {ind!r}")
        table.append((Fraction(lo), Fraction(st), Fraction(up)))
    return table


def parse_csv(text: str) -> list:
    lines = text.splitlines()
    require(lines[:1] == ["subset,labels,lower,star,upper"], "layout", "bad CSV header")
    return _rows(
        (f[0], f[2], f[3], f[4]) for f in (line.split(",") for line in lines[1:])
    )


def parse_json(text: str) -> list:
    doc = json.loads(text)
    return _rows((r["subset"], r["lower"], r["star"], r["upper"]) for r in doc["rows"])


def parse_text_table(text: str, skip: int) -> list:
    """The `table` format (skip=1) and `phenomenon` output (skip=2); an
    empty label column collapses, so values are taken from the right."""
    rows = (line.split() for line in text.splitlines()[skip:])
    return _rows((f[0], f[-3], f[-2], f[-1]) for f in rows)


def parse_svg(text: str) -> dict[str, int]:
    root = ET.fromstring(text)
    counts: dict[str, int] = {}
    for e in root.iter("{http://www.w3.org/2000/svg}rect"):
        require(float(e.get("height")) >= 0, "svg-bars", "negative bar height")
        counts[e.get("class")] = counts.get(e.get("class"), 0) + 1
    return counts


# -- table checks ---------------------------------------------------------------

def check_layout(table, p) -> None:
    require(len(table) == 1 << len(p), "layout", f"{len(table)} rows for N={len(p)}")


def check_reference(table, p, h, cells) -> None:
    for x in cells:
        lo, st, up = table[x]
        for name, got, want in (
            ("lower", lo, ref_lower(x, p)),
            ("star", st, ref_star(x, p)),
            ("upper", up, ref_upper(x, p)),
        ):
            require(abs(got - want) <= h, "reference", f"{name}({x}) = {got}, paper gives {want}")


def check_sandwich(table, p, h) -> None:
    # Rounding is monotone, so the order survives decimal output.
    for x, (lo, st, up) in enumerate(table):
        require(lo <= st <= up, "sandwich", f"subset {x}: {lo} <= {st} <= {up} fails")


def check_envelope(table, p, h) -> None:
    slack = len(table) * h
    lo = sum((r[0] for r in table), ZERO)
    up = sum((r[2] for r in table), ZERO)
    require(lo <= ONE + slack and up >= ONE - slack, "envelope", f"sum lower {lo}, sum upper {up}")


def check_normalised(table, p, h) -> None:
    total = sum((r[1] for r in table), ZERO)
    require(abs(total - ONE) <= len(table) * h, "normalised", f"sum star = {total}")


def check_star_marginals(table, p, h) -> None:
    # Fold the top event away each step: the upper half's sum is its marginal,
    # a sum of half the table's printed values.
    slack = len(table) // 2 * h
    vals = [r[1] for r in table]
    for i in reversed(range(len(p))):
        half = len(vals) // 2
        got = sum(vals[half:], ZERO)
        require(abs(got - p[i]) <= slack, "star-marginals", f"event {i}: {got} != {p[i]}")
        vals = [a + b for a, b in zip(vals[:half], vals[half:])]


def check_zero_pattern(table, p, h) -> None:
    """Half-rare input: the lower bound vanishes off the empty set and the
    singleton of the most probable (first) event."""
    for x, (lo, _, _) in enumerate(table):
        require(x in (0, 1) or lo == ZERO, "zero-pattern", f"lower({x}) = {lo}")


def is_half_rare(p) -> bool:
    return p[0] <= Fraction(1, 2) and all(a >= b for a, b in zip(p, p[1:]))


def check_table(table, p, digits, cells) -> None:
    h = half_unit(digits)
    check_layout(table, p)
    check_reference(table, p, h, cells)
    check_sandwich(table, p, h)
    check_envelope(table, p, h)
    check_normalised(table, p, h)
    check_star_marginals(table, p, h)
    if is_half_rare(p):
        check_zero_pattern(table, p, h)


# -- LP verification ------------------------------------------------------------

def check_witness_distribution(rec, p) -> None:
    for key in ("witness_min", "witness_max"):
        atoms = rec[key]
        require(
            len(atoms) == 1 << len(p) and min(atoms) >= ZERO and sum(atoms) == ONE,
            "witness-distribution", f"{key} at subset {rec['subset']} is no distribution",
        )


def check_witness_marginals(rec, p) -> None:
    for key in ("witness_min", "witness_max"):
        atoms = rec[key]
        for i, q in enumerate(p):
            got = sum((a for w, a in enumerate(atoms) if w >> i & 1), ZERO)
            require(got == q, "witness-marginals", f"{key} at {rec['subset']}: event {i} has {got} != {q}")


def check_witness_attains(rec, p) -> None:
    x = rec["subset"]
    for key, val in (("witness_min", rec["lp_min"]), ("witness_max", rec["lp_max"])):
        require(rec[key][x] == val, "witness-attains", f"{key}[{x}] = {rec[key][x]} != {val}")


def check_lp_reference(rec, p) -> None:
    x = rec["subset"]
    require(rec["lp_min"] == ref_lower(x, p), "lp-reference", f"lp_min({x}) = {rec['lp_min']}")
    require(rec["lp_max"] == ref_upper(x, p), "lp-reference", f"lp_max({x}) = {rec['lp_max']}")


def parse_lp_reports(text: str) -> list[list[dict]]:
    """`halfrare verify` output, or the worker's in the same layout: one
    list of records per marginal set."""
    return [
        [
            {
                "subset": subset_of(r["subset"]),
                "lp_min": Fraction(r["lp_min"]),
                "lp_max": Fraction(r["lp_max"]),
                "witness_min": [Fraction(a) for a in r["witness_min"]],
                "witness_max": [Fraction(a) for a in r["witness_max"]],
            }
            for r in report["subsets"]
        ]
        for report in json.loads(text)
    ]


def check_lp(recs, p) -> None:
    require([r["subset"] for r in recs] == list(range(1 << len(p))), "layout", "subsets missing")
    for rec in recs:
        check_witness_distribution(rec, p)
        check_witness_marginals(rec, p)
        check_witness_attains(rec, p)
        check_lp_reference(rec, p)


# -- small CLI --------------------------------------------------------------------

DOUBLET_LOWER = (Fraction(3, 20), Fraction(1, 20), ZERO, ZERO)
DOUBLET_UPPER = (Fraction(11, 20), Fraction(9, 20), Fraction(2, 5), Fraction(2, 5))


def check_doublet_paper(table) -> None:
    lower = tuple(r[0] for r in table)
    upper = tuple(r[2] for r in table)
    require(lower == DOUBLET_LOWER and upper == DOUBLET_UPPER, "doublet-paper",
             f"lower {lower}, upper {upper}")


def check_svg_bars(counts, n) -> None:
    require(counts.get("blue", 0) + counts.get("red", 0) == 2 << n, "svg-bars",
             f"{counts} bars for N={n}")


def check_phenomenon_identity(phen_table, bounds_table) -> None:
    require(phen_table == bounds_table, "phenomenon-identity",
             "phenomenon with every event kept differs from the bounds table")
