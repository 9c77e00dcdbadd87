"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  All numeric comparisons are exact rational equalities; the
only tolerances here are wall-clock budgets."""

import json
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from halfrare import (
    boundary_distributions,
    covariance_bounds_doublet,
    doublet_bounds,
    independent_epd,
    lower_bound_general,
    lower_bound_half_rare,
    marginals_from_values,
    random_marginals,
    upper_bound_general,
    verify_bounds,
)
from halfrare.cli import main
from halfrare.core import HalfRareMarginalSet

F = Fraction


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok


def test_criterion_1_doublet_reproduction():
    start = time.perf_counter()
    bd = doublet_bounds(F(9, 20), F(2, 5))
    elapsed = time.perf_counter() - start
    ok = (
        bd.lower == (F(3, 20), F(1, 20), F(0), F(0))
        and bd.upper == (F(11, 20), F(9, 20), F(2, 5), F(2, 5))
        and elapsed < 0.001
    )
    report("criterion 1: doublet bound reproduction", ok)


def test_criterion_2_covariance_reproduction():
    cb = covariance_bounds_doublet(F(9, 20), F(2, 5))
    outer = (F(-9, 50), F(11, 50))   # -0.18 .. 0.22
    inner = (F(-11, 50), F(9, 50))   # -0.22 .. 0.18
    ok = cb.intervals == (outer, inner, inner, outer)
    report("criterion 2: doublet covariance intervals", ok)


def test_criterion_3_zero_pattern_sweep():
    start = time.perf_counter()
    ok = True
    for k in range(1000):
        m = random_marginals(2 + k % 7, 30_000 + k, half_rare=True)
        h = HalfRareMarginalSet(m.events, m.probs)
        for x in range(1 << m.n):
            closed = lower_bound_half_rare(x, h)
            if closed != lower_bound_general(x, m):
                ok = False
            if x not in (0, 1) and closed != 0:
                ok = False
    elapsed = time.perf_counter() - start
    report(f"criterion 3: half-rare zero-pattern sweep ({elapsed:.2f}s)", ok and elapsed < 5)


def test_criterion_4_projection_sweep():
    start = time.perf_counter()
    ok = True
    for k in range(500):
        m = random_marginals(2 + k % 7, 40_000 + k)
        via = boundary_distributions(m)
        for x in range(1 << m.n):
            if via.lower[x] != lower_bound_general(x, m) or via.upper[x] != upper_bound_general(x, m):
                ok = False
    elapsed = time.perf_counter() - start
    report(f"criterion 4: projection equivalence sweep ({elapsed:.2f}s)", ok and elapsed < 10)


def test_criterion_5_lp_sharpness():
    start = time.perf_counter()
    ok = True
    for k in range(100):
        m = random_marginals(2 + k % 4, 50_000 + k, half_rare=k % 2 == 0)
        rep = verify_bounds(m)
        if not rep.verdict:
            ok = False
        for r in rep.records:
            for value, witness in ((r.lp_min, r.witness_min), (r.lp_max, r.witness_max)):
                if witness.induced_marginals() != m.probs or witness[r.subset] != value:
                    ok = False
    elapsed = time.perf_counter() - start
    report(f"criterion 5: LP sharpness + witnesses ({elapsed:.2f}s)", ok and elapsed < 60)


def test_criterion_6_sandwich_and_normalization():
    ok = True
    for k in range(1000):
        m = random_marginals(1 + k % 10, 60_000 + k)
        bd = boundary_distributions(m)
        star = independent_epd(m)
        if sum(star.atoms) != 1:
            ok = False
        for x in range(1 << m.n):
            if not bd.lower[x] <= star[x] <= bd.upper[x]:
                ok = False
        if not sum(bd.lower) <= 1 <= sum(bd.upper):
            ok = False
    report("criterion 6: sandwich and sum envelopes", ok)


def test_criterion_7_pentaplet_figure(tmp_path, capsys):
    out = tmp_path / "pentaplet.svg"
    code = main(["figure", "-p", "0.45,0.40,0.35,0.30,0.25", "--out", str(out)])
    capsys.readouterr()
    root = ET.fromstring(out.read_text())
    rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
    reds = [r for r in rects if r.get("class") == "red"]
    blues = [r for r in rects if r.get("class") == "blue"]
    grid_ys = sorted(
        float(l.get("y1"))
        for l in root.findall(".//{http://www.w3.org/2000/svg}line")
        if l.get("class") == "grid"
    )
    y_zero, y_one = grid_ys[-1], grid_ys[0]
    unit = y_zero - y_one
    # every red bar bottoms out at the zero line (all lower bounds are 0)
    red_bottoms_ok = all(
        abs(float(r.get("y")) + float(r.get("height")) - y_zero) < 0.02 for r in reds
    )
    # the empty-set blue bar tops at 0.55
    empty_top = float(blues[0].get("y"))
    top_ok = abs((y_zero - empty_top) / unit - 0.55) < 1e-3
    ok = code == 0 and len(rects) == 64 and red_bottoms_ok and top_ok
    report("criterion 7: penta-plet figure structure", ok)


def test_criterion_8_cli_contract(capsys):
    def bounds_json(*extra):
        code = main(["bounds", "-p", "0.45,0.40", "--format", "json", *extra])
        out = capsys.readouterr().out
        assert code == 0
        return out

    first, second = bounds_json(), bounds_json()
    exact = json.loads(bounds_json("--exact"))
    expected = boundary_distributions(marginals_from_values(["0.45", "0.40"]))
    star = independent_epd(marginals_from_values(["0.45", "0.40"]))
    round_trip_ok = all(
        F(row["lower"]) == expected.lower[x]
        and F(row["star"]) == star[x]
        and F(row["upper"]) == expected.upper[x]
        for x, row in enumerate(exact["rows"])
    )
    report("criterion 8: CLI round-trip and determinism", round_trip_ok and first == second)
