"""The four workloads: which operations one round runs and how each
operation's output is checked.

A run draws one round of operations from its seed and repeats it until its
time is up, so every operation is timed several times on the same input.
A class is one command, output format and N.
Probabilities are decimal strings as users type them: one to three
decimals, trailing zeros dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks

DOUBLET = "0.45,0.40"
PENTAPLET = "0.45,0.40,0.35,0.30,0.25"
#: Stands in argv for the path of an output file the command writes itself;
#: the check then reads that file instead of standard output.
OUT_FILE = "{out}"


#: Six inputs at N=10.  In five 40-s runs of each size, alternating, an
#: operation's 90th percentile spread by 7-8 % (Q3 - Q1 over the median)
#: at N=10 and by 14 % at N=12: a run repeats a 0.05-s operation about 70
#: times, a 0.2-0.4-s one 30-45 times.
TABLE_SIZES = (10,) * 6


@dataclass
class Op:
    cls: str
    #: "cli": halfrare.cli.main in the worker; "verify": verify_bounds in
    #: the worker; "proc": a fresh `python -m halfrare` process.
    kind: str
    probs: str
    cells: int
    argv: list[str]
    #: Called with the operation's output text; raises CheckFailed.
    check: Callable[[str], None]


def decimal(rng: random.Random, hi: Fraction) -> str:
    digits = rng.choice((1, 2, 2, 2, 3, 3))
    scale = 10**digits
    k = rng.randint(1, int(hi * scale) - (hi == 1))
    return f"0.{k:0{digits}d}".rstrip("0")


def general_probs(rng: random.Random, n: int) -> list[str]:
    """Uniform in (0, 1) with at least one p > 1/2, so never half-rare."""
    while True:
        probs = [decimal(rng, Fraction(1)) for _ in range(n)]
        if max(Fraction(p) for p in probs) > Fraction(1, 2):
            return probs


def half_rare_probs(rng: random.Random, n: int) -> list[str]:
    probs = [decimal(rng, Fraction(1, 2)) for _ in range(n)]
    return sorted(probs, key=Fraction, reverse=True)


def _table_check(parse, digits, p, rng, extra=None):
    def check(text: str) -> None:
        table = parse(text)
        checks.check_table(table, p, digits, checks.sample_cells(len(p), rng))
        if extra:
            extra(table)

    return check


def _bounds_op(cls, probs, rng, fmt_args, parse, digits, kind="cli", extra=None):
    p = [Fraction(v) for v in probs]
    joined = ",".join(probs)
    return Op(
        cls, kind, joined, 1 << len(p), ["bounds", "-p", joined, *fmt_args],
        _table_check(parse, digits, p, rng, extra),
    )


def tables_general(rng: random.Random) -> list[Op]:
    return [
        _bounds_op(f"general-n{n}", general_probs(rng, n), rng,
                   ["--format", "csv", "--exact"], checks.parse_csv, None)
        for n in TABLE_SIZES
    ]


def tables_half_rare(rng: random.Random) -> list[Op]:
    return [
        _bounds_op(f"half-rare-n{n}", half_rare_probs(rng, n), rng,
                   ["--format", "json"], checks.parse_json, 6)
        for n in TABLE_SIZES
    ]


def _verify_op(cls, prob_sets, kind="verify", argv=()):
    """verify_bounds on a batch of marginal sets of one N, as
    `halfrare verify --random K` does."""
    ps = [[Fraction(v) for v in probs] for probs in prob_sets]

    def check(text: str) -> None:
        reports = checks.parse_lp_reports(text)
        checks.require(len(reports) == len(ps), "layout", f"{len(reports)} reports for {len(ps)} sets")
        for recs, p in zip(reports, ps):
            checks.check_lp(recs, p)

    probs = ";".join(",".join(probs) for probs in prob_sets)
    return Op(cls, kind, probs, sum(1 << len(p) for p in ps), list(argv), check)


#: An LP's time depends on its input: the pivot count of one set moved by
#: 20-30 % from one set to the next, and the median over a class of single
#: sets jumped by 17 % between seeds.  So an operation verifies a batch of
#: sets, and a round holds 48 of them, few enough that a run repeats each
#: operation five times or more; classes are interleaved so that changes in
#: machine speed meet each alike, and the N=4 half-rare class holds the
#: median.  N stops at 4: a half-rare N=5 set took 0.2-0.3 s, a general one
#: 1-2 s and an N=6 set 1-8 s, too long to repeat that many.
LP_BATCH = 4
LP_CLASSES = [(3, False), (3, True), (4, False), (4, True), (4, False), (4, True)] * 2


def lp_verify(rng: random.Random) -> list[Op]:
    draw = lambda n, hr: half_rare_probs(rng, n) if hr else general_probs(rng, n)
    return [
        _verify_op(f"{'half-rare' if hr else 'general'}-n{n}",
                   [draw(n, hr) for _ in range(LP_BATCH)])
        for n, hr in LP_CLASSES
    ]


def small_cli(rng: random.Random) -> list[Op]:
    text = lambda skip: (lambda t: checks.parse_text_table(t, skip))
    ops = [
        _bounds_op("doublet-bounds", DOUBLET.split(","), rng, [], text(1), 6,
                   kind="proc", extra=checks.check_doublet_paper),
        _verify_op("doublet-verify", [DOUBLET.split(",")], kind="proc",
                   argv=["verify", "-p", DOUBLET]),
        _bounds_op("pentaplet-bounds", PENTAPLET.split(","), rng, [], text(1), 6, kind="proc"),
    ]

    probs = ",".join(general_probs(rng, 8))
    ops.append(Op(
        "figure-n8", "proc", probs, 2 << 8, ["figure", "-p", probs, "--out", OUT_FILE],
        lambda svg: checks.check_svg_bars(checks.parse_svg(svg), 8),
    ))

    # The same input through `bounds` and through `phenomenon` keeping every
    # event, which must print the same table.
    probs = general_probs(rng, 6)
    kept = ",".join(f"x{i + 1}" for i in range(len(probs)))
    seen = {}
    base = _bounds_op("phenomenon-base", probs, rng, ["--exact"], text(1), None,
                      kind="proc", extra=lambda t: seen.setdefault("table", t))
    phen = _bounds_op("phenomenon-all-kept", probs, rng, [], text(2), None, kind="proc",
                      extra=lambda t: checks.check_phenomenon_identity(t, seen["table"]))
    phen.argv = ["phenomenon", "-p", phen.probs, "--kept", kept, "--exact"]
    return ops + [base, phen]


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "tables-general": tables_general,
    "tables-half-rare": tables_half_rare,
    "lp-verify": lp_verify,
    "small-cli": small_cli,
}
