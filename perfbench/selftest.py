#!/usr/bin/env python3
"""Shows that every output check of the benchmark rejects a corrupted output.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

It runs the checkout's program on small inputs and requires every check to
pass on the clean outputs.  Then it corrupts each output in one way aimed at
one check, and requires that check to reject it.  Prints one line per case
and exits 1 if a clean output fails or a corruption gets through.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SHIFT = Fraction(1, 1000)

GENERAL = "0.45,0.7,0.2,0.95,0.3"
HALF_RARE = "0.5,0.45,0.4,0.35,0.3,0.25,0.2,0.125,0.05"
LP = "0.45,0.7,0.2"


def program(*argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "halfrare", *argv], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True,
    ).stdout


def probs(text: str) -> list[Fraction]:
    return [Fraction(v) for v in text.split(",")]


def shifted(table, x, col, by=SHIFT):
    rows = list(table)
    row = list(rows[x])
    row[col] += by
    rows[x] = tuple(row)
    return rows


def bumped(values, i, by=SHIFT):
    values = list(values)
    values[i] += by
    return values


def moved(values, src, dst):
    """Move mass between two entries: the total stays, the marginals do not."""
    return bumped(bumped(values, src, -SHIFT), dst)


def dropped_rect(svg: str) -> str:
    start = svg.index("<rect")
    return svg[:start] + svg[svg.index("/>", start) + 2:]


def main() -> int:
    OUT.mkdir(exist_ok=True)
    svg_path = OUT / "selftest.svg"
    p_gen, p_hr, p_lp, p_two = probs(GENERAL), probs(HALF_RARE), probs(LP), probs("0.45,0.40")
    gen = checks.parse_csv(program("bounds", "-p", GENERAL, "--format", "csv", "--exact"))
    hr = checks.parse_json(program("bounds", "-p", HALF_RARE, "--format", "json"))
    doublet = checks.parse_text_table(program("bounds", "-p", "0.45,0.40"), 1)
    (lp,) = checks.parse_lp_reports(program("verify", "-p", LP))
    program("figure", "-p", GENERAL, "--out", str(svg_path))
    svg = svg_path.read_text()
    svg_path.unlink()
    kept = ",".join(f"x{i + 1}" for i in range(len(p_gen)))
    base = checks.parse_text_table(program("bounds", "-p", GENERAL, "--exact"), 1)
    phen = checks.parse_text_table(
        program("phenomenon", "-p", GENERAL, "--kept", kept, "--exact"), 2)

    h6 = checks.half_unit(6)
    hr_cells = checks.sample_cells(len(p_hr), random.Random(0))
    x_hr = hr_cells[len(hr_cells) // 2]
    # A record whose two witnesses differ at its own subset, and an atom
    # with mass to move.
    rec = next(r for r in lp if r["witness_min"][r["subset"]] != r["witness_max"][r["subset"]])
    w = next(i for i, a in enumerate(rec["witness_max"]) if a >= SHIFT)
    x_gen = next(x for x, r in enumerate(gen) if r[1] >= SHIFT)

    clean = [
        ("general CSV table", lambda: checks.check_table(gen, p_gen, None, range(len(gen)))),
        ("half-rare JSON table", lambda: checks.check_table(hr, p_hr, 6, hr_cells)),
        ("doublet table", lambda: (checks.check_table(doublet, p_two, 6, range(4)),
                                   checks.check_doublet_paper(doublet))),
        ("LP report", lambda: checks.check_lp(lp, p_lp)),
        ("SVG chart", lambda: checks.check_svg_bars(checks.parse_svg(svg), len(p_gen))),
        ("phenomenon table", lambda: checks.check_phenomenon_identity(phen, base)),
    ]
    cases = [
        ("layout", "a table with its last row missing",
         lambda: checks.check_layout(gen[:-1], p_gen)),
        ("reference", "an exact table with one star cell shifted by 1/1000",
         lambda: checks.check_reference(shifted(gen, 3, 1), p_gen, 0, range(len(gen)))),
        ("reference", "a decimal table with one upper cell shifted by 1/1000",
         lambda: checks.check_reference(shifted(hr, x_hr, 2), p_hr, h6, hr_cells)),
        ("sandwich", "a star cell raised 1/1000 above its upper bound",
         lambda: checks.check_sandwich(shifted(gen, 3, 1, gen[3][2] - gen[3][1] + SHIFT), p_gen, 0)),
        ("envelope", "every upper bound replaced by its lower bound",
         lambda: checks.check_envelope([(lo, st, lo) for lo, st, _ in gen], p_gen, 0)),
        ("normalised", "a decimal table with one star cell shifted by 1/1000",
         lambda: checks.check_normalised(shifted(hr, 5, 1), p_hr, h6)),
        ("star-marginals", "1/1000 of star mass moved across event x1",
         lambda: checks.check_star_marginals(
             [(lo, st, up) for (lo, _, up), st in
              zip(gen, moved([r[1] for r in gen], x_gen, x_gen ^ 1))], p_gen, 0)),
        ("zero-pattern", "a half-rare lower bound of 1/1000 at {x2}",
         lambda: checks.check_zero_pattern(shifted(hr, 2, 0), p_hr, h6)),
        ("witness-distribution", "a witness whose atoms sum to 1 + 1/1000",
         lambda: checks.check_witness_distribution(
             dict(rec, witness_max=bumped(rec["witness_max"], w)), p_lp)),
        ("witness-marginals", "a witness with a wrong marginal",
         lambda: checks.check_witness_marginals(
             dict(rec, witness_max=moved(rec["witness_max"], w, w ^ 1)), p_lp)),
        ("witness-attains", "the min and max witnesses swapped",
         lambda: checks.check_witness_attains(
             dict(rec, witness_min=rec["witness_max"], witness_max=rec["witness_min"]), p_lp)),
        ("lp-reference", "an LP minimum shifted by 1/1000",
         lambda: checks.check_lp_reference(dict(rec, lp_min=rec["lp_min"] + SHIFT), p_lp)),
        ("doublet-paper", "the doublet's lower bound at {x1} shifted by 1/1000",
         lambda: checks.check_doublet_paper(shifted(doublet, 1, 0))),
        ("svg-bars", "a chart with one bar missing",
         lambda: checks.check_svg_bars(checks.parse_svg(dropped_rect(svg)), len(p_gen))),
        ("phenomenon-identity", "a phenomenon table with one cell shifted by 1/1000",
         lambda: checks.check_phenomenon_identity(shifted(phen, 7, 2), base)),
    ]

    bad = 0
    for name, run in clean:
        try:
            run()
            print(f"ok    clean {name} passes every check")
        except checks.CheckFailed as e:
            bad += 1
            print(f"FAIL  clean {name} rejected: {e}")
    for name, what, run in cases:
        try:
            run()
            bad += 1
            print(f"FAIL  {name} accepts {what}")
        except checks.CheckFailed as e:
            ok = e.check == name
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'}  {name} rejects {what}"
                  + ("" if ok else f" (but as {e.check})"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
