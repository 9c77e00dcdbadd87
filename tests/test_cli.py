import argparse
import ast
import contextlib
import csv
import importlib
import io
import json
import os
import re
import resource
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import halfrare
from halfrare import (
    BoundaryDistributions,
    cli,
    lower_bound_general,
    oracle,
    transforms,
    upper_bound_general,
)
from halfrare.cli import main
from halfrare.core import format_decimal

from conftest import independent_value, tied_marginal_sets

F = Fraction

#: The environment of a child process: the checkout's src/ on its path.
_CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(halfrare.__file__).parents[1]))
#: The same under Python's lowest settable integer string limit.
_LIMITED_ENV = dict(_CHILD_ENV, PYTHONINTMAXSTRDIGITS="640")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_doublet_table(self, capsys):
        code, out, _ = run(capsys, "bounds", "-p", "0.45,0.40")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 5  # header + 4 subsets
        row = next(l for l in lines if l.startswith("10 "))
        assert "0.05" in row and "0.45" in row

    def test_pentaplet_all_lower_zero(self, capsys):
        code, out, _ = run(capsys, "bounds", "-p", "0.45,0.40,0.35,0.30,0.25",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["N"] == 5 and len(doc["rows"]) == 32
        assert all(r["lower"] == "0" for r in doc["rows"])

    def test_json_row_shape(self, capsys):
        _, out, _ = run(capsys, "bounds", "-p", "0.45,0.40", "--format", "json")
        row = json.loads(out)["rows"][1]
        assert row == {"subset": "10", "labels": ["x1"],
                       "lower": "0.05", "star": "0.27", "upper": "0.45"}

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "bounds", "-p", "0.45,0.40", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "subset,labels,lower,star,upper"
        assert lines[4] == "11,x1+x2,0,0.18,0.4"

    def test_exact_round_trip(self, capsys):
        _, out, _ = run(capsys, "bounds", "-p", "0.45,0.40", "--format", "json", "--exact")
        doc = json.loads(out)
        parsed = [
            {k: F(v) for k, v in r.items() if k in ("lower", "star", "upper")}
            for r in doc["rows"]
        ]
        assert parsed[0] == {"lower": F(3, 20), "star": F(33, 100), "upper": F(11, 20)}

    def test_validation_error_exit_3(self, capsys):
        code, _, err = run(capsys, "bounds", "-p", "1.2")
        assert code == 3
        assert "probability" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "bounds", "-p", "0.4,zebra")
        assert code == 2

    def test_json_input_file(self, capsys, tmp_path):
        doc = {"events": ["a", "b"], "probabilities": ["0.45", "2/5"]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "bounds", "-i", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"][1]["labels"] == ["a"]

    def test_json_numbers_are_read_as_written(self, capsys, tmp_path):
        # A JSON number keeps its own digits, as the same digits in a string do,
        # beside another number too; read through a float, the first would
        # print 1/10 and 1e400 'inf'.
        digits = "0.1000000000000000055511151231257827"
        outs = []
        for item in (digits, f'"{digits}"'):
            path = tmp_path / "m.json"
            path.write_text(f'{{"events": ["a,b", "c"], "probabilities": [{item}, 0.75]}}')
            code, out, _ = run(capsys, "bounds", "-i", str(path), "--format", "csv", "--exact")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        # Event "a,b" alone: its star is p/4, and its upper bound p itself.
        p = F(digits)
        assert list(csv.reader(outs[0].splitlines()))[2] == ["10", "a,b", "0", str(p / 4), str(p)]
        # The second is too long an exponent for decimal.Decimal, which ended
        # it in a traceback; a float would show the third as 'nan'.
        for number, reason in (("1e400", "exceeds 200 digits"),
                               ("1e99999999999999999999", "exceeds 200 digits"),
                               ("NaN", "is not a decimal or a fraction a/b, b > 0")):
            path.write_text(f'{{"events": ["a"], "probabilities": [{number}]}}')
            code, out, err = run(capsys, "bounds", "-i", str(path))
            assert (code, out) == (2, "")
            assert err == f"error: cannot parse probability #0: '{number}' {reason}\n"

    def test_bad_json_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "bounds", "-i", str(path))
        assert code == 2

    def test_missing_file_exit_5(self, capsys, tmp_path):
        code, _, _ = run(capsys, "bounds", "-i", str(tmp_path / "absent.json"))
        assert code == 5

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "bounds", "-p", "0.45,0.40", "--format", "json")
        _, second, _ = run(capsys, "bounds", "-p", "0.45,0.40", "--format", "json")
        assert first == second

    @given(tied_marginal_sets(max_n=7))
    def test_rows_match_per_cell_closed_forms(self, m):
        probs = ",".join(str(p) for p in m.probs)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["bounds", "-p", probs, "--format", "csv", "--exact"]) == 0
        rows = list(csv.DictReader(io.StringIO(out.getvalue())))
        assert len(rows) == 1 << m.n
        for r in rows:
            x = int(r["subset"][::-1], 2)
            assert F(r["lower"]) == lower_bound_general(x, m)
            assert F(r["star"]) == independent_value(x, m)
            assert F(r["upper"]) == upper_bound_general(x, m)

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["bounds", "-p", probs, "--format", "json", "--digits", "3"]) == 0
        for x, r in enumerate(json.loads(out.getvalue())["rows"]):
            for key, v in (("lower", lower_bound_general(x, m)),
                           ("star", independent_value(x, m)),
                           ("upper", upper_bound_general(x, m))):
                assert r[key] == format_decimal([v.numerator], v.denominator, 3)[0]

    @pytest.mark.parametrize("name, extra", [("format_decimal", []),
                                             ("format_exact", ["--exact"])])
    def test_bound_levels_formatted_once(self, capsys, monkeypatch, name, extra):
        calls = []
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a: calls.append(a) or fn(*a))
        probs = "0.45,0.7,1/3,1/3,0,1,0.5,2/3,0.9,0.2"
        code, out, _ = run(capsys, "bounds", "-p", probs, "--format", "csv", *extra)
        assert code == 0 and len(out.splitlines()) == 1 + 2**10
        # One star cell per row, plus the N+4 `level` calls.
        assert sum(len(nums) for nums, *_ in calls) == 2**10 + 10 + 4
        # One star column per block of 2^5 rows, and one call per level.
        assert len(calls) <= 2**(10 - 10 // 2) + 10 + 4


_TABLE_ARGVS = [
    ["bounds", "--format", "table"],
    ["bounds", "--format", "json"],
    ["bounds", "--format", "csv", "--exact"],
    ["phenomenon", "--kept", "x1,x4,x9"],
]


class _CountingStdout(io.StringIO):
    """Counts `write` calls; the inherited `writelines` makes one per line."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("argv", _TABLE_ARGVS, ids=["table", "json", "csv", "phenomenon"])
def test_one_write_per_block(argv):
    # N=10: 2^5 blocks of 2^5 rows, plus the header and footer writes.
    out = _CountingStdout()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "-p", ",".join(["0.3"] * 10)]) == 0
    assert len(out.getvalue().splitlines()) > 2**10
    assert out.writes <= 2**5 + 2


@pytest.mark.parametrize("argv", _TABLE_ARGVS, ids=["table", "json", "csv", "phenomenon"])
def test_traced_layers_called_once_per_table(monkeypatch, argv):
    # The benchmark's per-layer spans wrap these two module attributes; a
    # table that stopped calling them there would read 0 for both layers.
    calls = []
    for module, name in ((halfrare.bounds, "boundary_distributions"),
                         (transforms, "independent_epd")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, name=name, fn=fn, **k: calls.append(name) or fn(*a, **k))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "-p", "0.45,0.7,1/3,0,1,0.5,2/3,0.9,0.2"]) == 0
    assert sorted(calls) == ["boundary_distributions", "independent_epd"]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_table_columns_line_up_under_the_header(capsys, n):
    # "subset" is wider than an indicator string for N < 4.
    probs = ["0.45", "0.4", "1/3", "0.3", "0.25"][:n]
    _, out, _ = run(capsys, "bounds", "-p", ",".join(probs))
    header, empty_set, *rows = out.splitlines()

    def value_ends(line):
        return [t.end() for t in re.finditer(r"\S+", line)][-3:]

    labels_at = header.index("labels")
    for row in [empty_set, *rows]:
        assert value_ends(row) == value_ends(header), row
    for row in rows:
        assert row[labels_at - 1] == " " and row[labels_at] == "x", row


@pytest.mark.parametrize("probs, extra, length", [
    ("0.45,1/3", ["--digits", "14"], 7 + 12 + 3 * (1 + len("0.") + 14)),
    # Up to 971230540/971230541, the product of the denominators less 1 over it.
    ("1/997,1/991,1/983", ["--exact"], 7 + 12 + 3 * (1 + 19)),
], ids=["digits", "exact"])
def test_value_columns_fit_their_longest_text(capsys, probs, extra, length):
    _, out, _ = run(capsys, "bounds", "-p", probs, *extra)
    assert {len(line) for line in out.splitlines()} == {length}


@given(tied_marginal_sets(max_n=8))
def test_decimals_are_formatted_only_in_the_unit_interval(m):
    # format_decimal writes a probability, 0 <= num <= den, and nothing else.
    columns = []

    def recording(nums, den, digits):
        columns.append((nums, den))
        return format_decimal(nums, den, digits)

    probs = ",".join(str(p) for p in m.probs)
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(cli, "format_decimal", recording)
        for argv in (["bounds", "--format", "table"], ["bounds", "--format", "json"],
                     ["bounds", "--format", "csv"], ["phenomenon", "--kept", "x1"]):
            assert main([*argv, "-p", probs]) == 0
    assert columns and all(0 <= num <= den for nums, den in columns for num in nums)


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_most_digits_print_under_the_lowest_int_string_limit(capsys, fmt):
    # No int of more than --digits digits is printed, so the cap fits the limit.
    # N=11 splits into halves of 5 and 6 events, and holds 0, 1 and p > 1/2.
    for probs in ("1/3,2/7", "0.9,0.1,0.5,1,0,2/3,1/3,0.75,0.25,0.6,0.6"):
        argv = ["bounds", "-p", probs, "--digits", "640", "--format", fmt]
        proc = subprocess.run([sys.executable, "-m", "halfrare", *argv],
                              capture_output=True, text=True, env=_LIMITED_ENV, timeout=60)
        assert main(argv) == 0
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", capsys.readouterr().out)


_NINES = "1/" + "9" * 200
_COPRIME = ",".join(f"1/{10**199 + k}" for k in (1, 3, 7, 9))


@pytest.mark.parametrize("argv", [
    ["bounds", "-p", ",".join([_NINES] * 4), "--exact", "--format", "csv"],
    ["phenomenon", "-p", ",".join([_NINES] * 4), "--kept", "x1", "--exact"],
    ["verify", "-p", _COPRIME],
], ids=["bounds", "phenomenon", "verify"])
def test_exact_output_over_the_int_string_limit_exits_3(argv):
    # Denominators of 800 digits: stopped before any output, not a traceback.
    proc = subprocess.run([sys.executable, "-m", "halfrare", *argv],
                          capture_output=True, text=True, env=_LIMITED_ENV, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: exact output exceeds the 640-digit integer string limit\n"


@pytest.mark.parametrize("last, code", [(10**160, 3), (10**160 - 1, 0)],
                         ids=["641-digits", "640-digits"])
def test_exact_output_at_the_int_string_limit(capsys, last, code):
    # A common denominator of 10^640 has 641 digits; 10^640 - 10^480 has 640.
    argv = ["bounds", "-p", ",".join(f"1/{den}" for den in [10**160] * 3 + [last]), "--exact"]
    proc = subprocess.run([sys.executable, "-m", "halfrare", *argv],
                          capture_output=True, text=True, env=_LIMITED_ENV, timeout=60)
    assert main(argv) == 0
    assert proc.returncode == code
    assert proc.stdout == ("" if code else capsys.readouterr().out)


def test_json_table_same_with_unbuffered_stdout():
    probs = ",".join(["0.45", "0.4", "0.35", "0.3", "0.25", "0.2"] * 2)
    argv = [sys.executable, "-m", "halfrare", "bounds", "-p", probs, "--format", "json"]
    # An empty PYTHONUNBUFFERED leaves stdout buffered.
    buffered = subprocess.run(argv, capture_output=True, env=dict(_CHILD_ENV, PYTHONUNBUFFERED=""),
                              timeout=60)
    unbuffered = subprocess.run(argv, capture_output=True,
                                env=dict(_CHILD_ENV, PYTHONUNBUFFERED="1"), timeout=60)
    assert buffered.returncode == unbuffered.returncode == 0
    assert buffered.stdout.count(b'"subset"') == 2**12
    assert (buffered.stdout, buffered.stderr) == (unbuffered.stdout, unbuffered.stderr)


class TestVerifyCommand:
    def test_doublet_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "-p", "0.45,0.40")
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["verdict"] == "pass"
        assert len(reports[0]["subsets"]) == 4

    def test_non_half_rare_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "-p", "0.7,0.4")
        assert code == 0
        assert json.loads(out)[0]["verdict"] == "pass"

    def test_random_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--random", "5", "--n", "3",
                           "--half-rare", "--seed", "1")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 5
        assert all(r["verdict"] == "pass" for r in reports)

    def test_too_large_exit_3(self, capsys):
        code, _, _ = run(capsys, "verify", "-p", "0.1,0.1,0.1,0.1,0.1,0.1,0.1")
        assert code == 3

    def test_random_over_lp_cap_exits_before_drawing_the_rest(self, capsys, monkeypatch):
        draws = []
        real = oracle.random_marginals

        def counting(*args, **kwargs):
            # Stops a second draw at once, so an eager loop fails here
            # instead of drawing all K sets.
            draws.append(args)
            assert len(draws) == 1, "a second set was drawn before the LP cap was checked"
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "random_marginals", counting)
        code, out, err = run(capsys, "verify", "--random", "1000000000", "--n", "7")
        assert (code, out) == (3, "")
        assert "exceeds the LP cap 6" in err
        assert len(draws) == 1

    def test_each_report_is_written_before_the_next_set_is_verified(self, monkeypatch):
        out, seen = io.StringIO(), []
        real = oracle.verify_bounds

        def recording(m):
            seen.append(out.getvalue())
            return real(m)

        monkeypatch.setattr(oracle, "verify_bounds", recording)
        with contextlib.redirect_stdout(out):
            assert main(["verify", "--random", "2", "--n", "2"]) == 0
        assert seen[0] == ""
        # The whole first report, and nothing of the second, is out already.
        assert seen[1].startswith("[\n  {") and seen[1].endswith("\n  }")
        assert json.loads(seen[1] + "\n]") == json.loads(out.getvalue())[:1]

    def test_sharpness_mismatch_exit_4(self, capsys, monkeypatch):
        real = oracle.boundary_distributions

        def one_wrong_upper_cell(m):
            bd = real(m)
            upper = (*bd.upper[:-1], bd.upper[-1] + F(1, 7))
            return BoundaryDistributions(bd.events, bd.lower, upper)

        monkeypatch.setattr(oracle, "boundary_distributions", one_wrong_upper_cell)
        code, out, err = run(capsys, "verify", "-p", "0.45,0.40")
        assert code == 4
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: sharpness mismatch at subset 11")
        reports = json.loads(out)
        assert len(reports) == 1 and len(reports[0]["subsets"]) == 4
        assert reports[0]["verdict"] == "fail"

    def test_first_of_several_mismatches_is_the_one_named(self, capsys, monkeypatch):
        real_bounds, real_verify, made = oracle.boundary_distributions, oracle.verify_bounds, []

        def one_wrong_upper_cell(m):
            # Set k is off at subset k + 1, so the two sets' records differ.
            bd, x = real_bounds(m), len(made) + 1
            upper = (*bd.upper[:x], bd.upper[x] + F(1, 7), *bd.upper[x + 1:])
            return BoundaryDistributions(bd.events, bd.lower, upper)

        def recording(m):
            made.append(real_verify(m))
            return made[-1]

        monkeypatch.setattr(oracle, "boundary_distributions", one_wrong_upper_cell)
        monkeypatch.setattr(oracle, "verify_bounds", recording)
        code, out, err = run(capsys, "verify", "--random", "2")
        assert code == 4
        first, second = (r.first_mismatch() for r in made)
        assert (first.subset, second.subset) == (1, 2)
        assert err == f"error: sharpness mismatch at {first}\n"
        assert [r["verdict"] for r in json.loads(out)] == ["fail", "fail"]


class TestFigureCommand:
    def test_pentaplet_svg(self, capsys, tmp_path):
        out_path = tmp_path / "fig.svg"
        code, _, _ = run(capsys, "figure", "-p", "0.45,0.40,0.35,0.30,0.25",
                         "--out", str(out_path))
        assert code == 0
        root = ET.fromstring(out_path.read_text())
        assert (root.get("width"), root.get("height"), root.get("viewBox")) == (
            "640", "480", "0 0 640 480"
        )
        rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
        assert len(rects) == 64  # one blue + one red per subset
        blues = [r for r in rects if r.get("class") == "blue"]
        reds = [r for r in rects if r.get("class") == "red"]
        assert len(blues) == len(reds) == 32
        # red top edge coincides with blue bottom edge on every bar
        for b, r in zip(blues, reds):
            assert float(r.get("y")) == pytest.approx(
                float(b.get("y")) + float(b.get("height")), abs=1e-9
            )

    def test_gridlines(self, capsys, tmp_path):
        out_path = tmp_path / "fig.svg"
        run(capsys, "figure", "-p", "0.45,0.40", "--out", str(out_path))
        root = ET.fromstring(out_path.read_text())
        grid = [
            l for l in root.findall(".//{http://www.w3.org/2000/svg}line")
            if l.get("class") == "grid"
        ]
        assert len(grid) == 5
        ys = sorted(float(l.get("y1")) for l in grid)
        gaps = [b - a for a, b in zip(ys, ys[1:])]
        assert all(g == pytest.approx(gaps[0], abs=0.02) for g in gaps)

    def test_unwritable_path_exit_5(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figure", "-p", "0.4,0.3",
                         "--out", str(tmp_path / "nosuchdir" / "fig.svg"))
        assert code == 5

    def test_too_many_events_exit_3(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figure", "-p", ",".join(["0.1"] * 9),
                         "--out", str(tmp_path / "fig.svg"))
        assert code == 3


class TestPhenomenonCommand:
    def test_identity(self, capsys):
        code, out, _ = run(capsys, "phenomenon", "-p", "0.45,0.40", "--kept", "x1,x2")
        assert code == 0
        assert "x1=0.45" in out and "x2=0.4" in out

    def test_full_complement(self, capsys):
        code, out, _ = run(capsys, "phenomenon", "-p", "0.45,0.40", "--kept", "")
        assert code == 0
        assert "x1^c=0.55" in out and "x2^c=0.6" in out
        # renumbered lower bound of the full set equals the original at the
        # empty set
        rows = [l.split() for l in out.splitlines()[2:]]
        by_subset = {r[0]: r for r in rows}
        assert by_subset["11"][2] == "0.15"
        assert by_subset["00"][4] == "0.4"

    def test_unknown_label_exit_3(self, capsys):
        code, _, err = run(capsys, "phenomenon", "-p", "0.45,0.40", "--kept", "x9")
        assert code == 3
        assert "x9" in err

    def test_empty_label_column_prints_dash(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"events": ["", "b", '"'], "probabilities": ["0.45"] * 3}))
        _, out, _ = run(capsys, "phenomenon", "-i", str(path), "--kept", "b")
        labels = {l.split(" ")[0]: l.split(" ")[1] for l in out.splitlines()[2:]}
        assert (labels["000"], labels["100"], labels["111"]) == ("-", "^c", '^c+b+"^c')
        # --kept drops empty items and a complemented label gains "^c", so no
        # input keeps "" as a label; the identity map reaches the writer with it.
        monkeypatch.setattr(transforms.PhenomenonMap, "map_marginals", lambda self, m: m)
        _, out, _ = run(capsys, "phenomenon", "-i", str(path), "--kept", "b")
        labels = {l.split(" ")[0]: l.split(" ")[1] for l in out.splitlines()[2:]}
        assert (labels["000"], labels["100"], labels["110"], labels["011"]) == (
            "-", "-", "+b", 'b+"'
        )

    def test_matches_direct_bounds_on_complemented_marginals(self, capsys):
        _, phen, _ = run(capsys, "phenomenon", "-p", "0.45,0.40", "--kept", "",
                         "--exact")
        _, direct, _ = run(capsys, "bounds", "-p", "0.55,0.60", "--format", "csv",
                           "--exact")
        phen_rows = {l.split()[0]: l.split() for l in phen.splitlines()[2:]}
        direct_rows = {l.split(",")[0]: l.split(",") for l in direct.splitlines()[1:]}
        for subset, row in direct_rows.items():
            assert phen_rows[subset][2] == row[2]  # lower
            assert phen_rows[subset][3] == row[3]  # star
            assert phen_rows[subset][4] == row[4]  # upper


@pytest.mark.parametrize(
    "argv, doc, code",
    [
        (["bounds", "-p", "0.45,0.40", "--digits", "-1"], None, 2),
        (["phenomenon", "-p", "0.45,0.40", "--kept", "x1", "--digits", "-1"], None, 2),
        (["verify", "--random", "-2"], None, 2),
        (["verify", "--random", "0"], None, 2),
        (["verify", "--random", "1", "--n", "0"], None, 2),
        (["verify", "--random", "1", "--n", "-3"], None, 2),
        (["figure", "-p", "0.45,0.40", "--width", "640"], None, 2),
        (["figure", "-p", "0.45,0.40", "--height", "480"], None, 2),
        (["bounds", "-i", "DOC"], {"events": [1, 2], "probabilities": ["0.45", "0.4"]}, 2),
        (["bounds", "-i", "DOC"], {"events": "ab", "probabilities": ["0.45", "0.4"]}, 2),
        (["bounds", "-i", "DOC"], {"events": ["a"], "probabilities": "1"}, 2),
        (["phenomenon", "-p", "0.45,0.40", "--kept", "x1,x1"], None, 3),
        (["bounds", "-p", "0.45,0.40", "--general"], None, 2),
        (["bounds", "-p", "0.45,0.40", "--digits", "5000"], None, 2),
        (["phenomenon", "-p", "0.45,0.40", "--kept", "x1", "--format", "json"], None, 2),
        (["bounds", "-i", "DOC"], b'{"events": ["\xff"], "probabilities": ["0.4"]}', 2),
        (["bounds", "-i", "DOC", "-p", "0.3"], {"events": ["a"], "probabilities": ["0.4"]}, 2),
        (["verify", "-p", "0.3", "-i", "DOC"], {"events": ["a"], "probabilities": ["0.4"]}, 2),
        (["bounds", "-i", "DOC"], b"[" * 100_000 + b"]" * 100_000, 2),
        (["bounds", "-i", "DOC"], {"events": ["\ud800"], "probabilities": ["0.4"]}, 3),
        (["bounds", "-p", "1e-5000", "--exact"], None, 2),
        (["bounds", "-p", "1e-2000000"], None, 2),
        (["bounds", "-p", "0.5,1/1" + "0" * 200], None, 2),
        (["bounds", "-i", "DOC"], {"events": ["a"], "probabilities": ["1e-201"]}, 2),
        (["bounds", "-i", "DOC"], {"events": ["a\nb"], "probabilities": ["0.4"]}, 3),
        (["bounds", "-i", "DOC"], {"events": ["a", "\x1b[2J"], "probabilities": ["0.4", "0.1"]}, 3),
        (["bounds", "-p", ",".join(["1/" + "9" * 200] * 11 + ["1/" + "9" * 201])], None, 2),
        (["bounds", "-p", "0.5," + "7" * 300 + "x"], None, 2),
        (["bounds", "-p", "9" * 250], None, 2),
        (["bounds", "-p", "0.5," + "9" * 5000], None, 2),
        (["bounds", "-p", "1e200"], None, 3),
        (["bounds", "-i", "DOC"],
         {"events": ["a"], "probabilities": ["3" + "0" * 198 + "1/" + "1" * 200]}, 3),
        (["bounds", "-i", "DOC"], {"events": ["a", "b"], "probabilities": ["0.4", "z" * 500]}, 2),
        (["bounds", "-p", "0.5,1" + "0" * 150 + "/0"], None, 2),
        (["verify", "-p", "0.45,0.40", "--random", "1"], None, 2),
        (["verify", "--random", "0", "-p", "0.45,0.40"], None, 2),
        (["verify", "-i", "DOC", "--random", "2"], {"events": ["a"], "probabilities": ["0.4"]}, 2),
        (["verify", "-p", "0.45,0.40", "--n", "5", "--half-rare", "--seed", "3"], None, 2),
        (["verify", "-p", "0.45,0.40", "--seed", "0"], None, 2),
        (["bounds", "-p", "0.45,0.40", "--digits", "3", "--exact"], None, 2),
        (["bounds", "-p", "0.45,0.40", "--exact", "--digits", "6"], None, 2),
        (["phenomenon", "-p", "0.45,0.40", "--kept", "x1", "--digits", "6", "--exact"], None, 2),
        (["bounds", "-p", "0.4_5,0.4"], None, 2),
        (["bounds", "-i", "DOC"], {"events": ["a", "b"], "probabilities": ["1_0/2_0", "0.4"]}, 2),
        (["bounds", "-p", ",".join(["0.4"] * 20 + ["x"])], None, 3),
        (["phenomenon", "-i", "DOC", "--kept", "a,b"],
         {"events": ["", "a,b", '"'], "probabilities": ["0.4"] * 3}, 3),
        (["bounds"], None, 2),
        (["figure"], None, 2),
        (["phenomenon", "--kept", "x1"], None, 2),
        (["verify"], None, 2),
        (["bounds", "-p", ""], None, 2),
        (["bounds", "-i", ""], None, 5),
        (["bounds", "-i", "DOC"], [], 2),
        (["bounds", "-i", "DOC"], "ab", 2),
        (["bounds", "-i", "DOC"], {"probabilities": ["0.4"]}, 2),
        (["bounds", "-i", "DOC"],
         {"events": ["a" * 2500 + "\n" + "a" * 2499], "probabilities": ["0.4"]}, 3),
        (["bounds", "-i", "DOC"], {"events": ["b" * 5000] * 2, "probabilities": ["0.4", "0.3"]}, 3),
        (["phenomenon", "-p", "0.45,0.40", "--kept", "z" * 5000], None, 3),
        (["phenomenon", "-p", "0.45,0.40", "--kept", ",".join(["x1"] * 2000)], None, 3),
        (["bounds", "-i", "no\nsuch.json"], None, 5),
        (["bounds", "-i", "DOC"], b'{"events": [0.5], "probabilities": ["0.4"]}', 2),
        (["bounds", "-p", "1 / 2"], None, 2),
    ],
    ids=[
        "bounds-digits-negative",
        "phenomenon-digits-negative",
        "verify-random-negative",
        "verify-random-zero",
        "verify-n-zero",
        "verify-n-negative",
        "figure-width-removed",
        "figure-height-removed",
        "events-not-strings",
        "events-a-string",
        "probabilities-a-string",
        "kept-repeated-label",
        "general-flag-removed",
        "digits-above-cap",
        "phenomenon-format-removed",
        "input-not-utf8",
        "bounds-input-and-probs",
        "verify-probs-and-input",
        "input-nested-too-deep",
        "label-lone-surrogate",
        "exact-long-decimal",
        "huge-exponent",
        "long-denominator",
        "input-long-decimal",
        "label-newline",
        "label-escape",
        "long-list-one-too-long",
        "long-non-numeric",
        "long-integer-part",
        "integer-part-over-the-int-string-limit",
        "out-of-range-200-digits",
        "input-out-of-range-200-digit-fraction",
        "input-long-non-numeric",
        "zero-denominator",
        "verify-probs-and-random",
        "verify-random-zero-and-probs",
        "verify-input-and-random",
        "verify-random-flags-without-random",
        "verify-seed-default-without-random",
        "bounds-exact-and-digits",
        "bounds-exact-and-default-digits",
        "phenomenon-exact-and-default-digits",
        "probs-digit-separator",
        "input-digit-separator",
        "oversized-list-malformed-item",
        "kept-label-with-comma",
        "bounds-no-input",
        "figure-no-input",
        "phenomenon-no-input",
        "verify-no-input",
        "probs-empty",
        "input-empty-path",
        "document-a-list",
        "document-a-string",
        "document-without-events",
        "long-label-newline",
        "long-labels-repeated",
        "kept-long-unknown-label",
        "kept-many-repeated-labels",
        "input-path-newline",
        "events-a-number",
        "spaced-fraction",
    ],
)
def test_bad_input_exits_cleanly(tmp_path, argv, doc, code):
    # A fresh process, so that an uncaught exception shows as a traceback.  Dev
    # mode shows warnings, and -W error makes each one, such as an unclosed
    # file's, an error.
    if isinstance(doc, bytes):
        (tmp_path / "doc.json").write_bytes(doc)
    elif doc is not None:
        (tmp_path / "doc.json").write_text(json.dumps(doc))
    argv = [str(tmp_path / "doc.json") if a == "DOC" else a for a in argv]
    if argv[0] == "figure":
        argv += ["--out", str(tmp_path / "fig.svg")]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "halfrare", *argv],
        capture_output=True, text=True, env=_CHILD_ENV, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "fig.svg").exists()
    if not proc.stderr.startswith("usage:"):
        # One line that names the problem without echoing the whole input.
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert len(proc.stderr.replace(str(tmp_path), "").encode()) < 200
    if not {"-p", "-i", "--random"} & set(argv):
        assert proc.stderr.startswith("usage:") and " is required" in proc.stderr
    if "malformed input document" in proc.stderr:
        # One message for every wrong shape, naming both keys.
        assert '"events"' in proc.stderr and '"probabilities"' in proc.stderr
    if "1e-2000000" in argv:
        assert elapsed < 1.0  # rejected from the text, before 10^2000000 is built
    if argv[:2] == ["verify", "--random"]:
        assert "--random" in proc.stderr
        if "--n" in argv:
            assert "argument --n: must be >= 1" in proc.stderr


@pytest.mark.parametrize("text", ["1e-99999999999999999999", "1e99999999999999999999"])
def test_long_exponent_exits_2_at_once(text):
    # Decimal rejected an exponent this long, and Fraction then set out to
    # build 10**(10**20): the child ran until killed.
    proc = subprocess.run([sys.executable, "-m", "halfrare", "bounds", "-p", text],
                          capture_output=True, text=True, env=_CHILD_ENV, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: cannot parse probability #0: {text!r} exceeds 200 digits\n"


def test_missing_input_path_named_once(tmp_path):
    # The path as a repr, then the OS's reason alone: OSError's text would
    # name it again.
    path = str(tmp_path / "missing.json")
    proc = subprocess.run([sys.executable, "-m", "halfrare", "bounds", "-i", path],
                          capture_output=True, text=True, env=_CHILD_ENV, timeout=60)
    assert proc.returncode == 5
    assert proc.stderr == f"error: cannot read {path!r}: No such file or directory\n"


def test_unwritable_figure_path_named_once(tmp_path):
    out = str(tmp_path / "missing" / "fig.svg")
    proc = subprocess.run([sys.executable, "-m", "halfrare", "figure", "-p", "0.4", "--out", out],
                          capture_output=True, text=True, env=_CHILD_ENV, timeout=60)
    assert proc.returncode == 5
    assert proc.stderr == f"error: cannot write {out!r}: No such file or directory\n"


def test_huge_random_n_exits_3():
    # The size guard runs on n before any label is built.  Were it to run
    # after, the child would allocate until killed, so its address space is
    # capped to make that a quick failure here.
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "halfrare", "verify", "--random", "1", "--n", "1000000000000"],
        capture_output=True, text=True, env=_CHILD_ENV, timeout=20, preexec_fn=cap_memory,
    )
    assert proc.returncode == 3
    assert proc.stderr == "error: N=1000000000000 exceeds the dense cap 20\n"


@pytest.mark.parametrize("source", ["probs", "input"])
def test_oversized_input_rejected_before_any_probability_is_parsed(
    capsys, monkeypatch, tmp_path, source
):
    calls = []
    real = cli.parse_probability
    monkeypatch.setattr(cli, "parse_probability", lambda text: calls.append(text) or real(text))
    items = ["0.4"] * 21
    if source == "probs":
        argv = ["-p", ",".join(items)]
    else:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"events": [f"e{i}" for i in range(21)], "probabilities": items}))
        argv = ["-i", str(path)]
    code, out, err = run(capsys, "bounds", *argv)
    assert (code, out, err) == (3, "", "error: N=21 exceeds the dense cap 20\n")
    assert calls == []


@pytest.mark.parametrize(
    "argv, message",
    [(["bounds", "-p", ",".join(["0.1"] * 21)], "N=21 exceeds the dense cap 20"),
     (["verify", "-p", ",".join(["0.1"] * 7)], "N=7 exceeds the LP cap 6"),
     (["figure", "-p", ",".join(["0.1"] * 9), "--out", "FIG"], "N=9 exceeds the figure cap 8")],
    ids=["dense", "LP", "figure"],
)
def test_cap_messages(capsys, tmp_path, argv, message):
    argv = [str(tmp_path / "fig.svg") if a == "FIG" else a for a in argv]
    assert run(capsys, *argv) == (3, "", f"error: {message}\n")
    assert not (tmp_path / "fig.svg").exists()


def test_readme_names_every_cli_option():
    # Under any one of its option strings, as a whole token: -p counts for --probs.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            if action.option_strings and "-h" not in action.option_strings:
                assert any(
                    re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", readme)
                    for opt in action.option_strings
                ), (command, action.option_strings)


def test_readme_names_every_public_name():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert [
        name for name in halfrare.__all__ if not re.search(rf"(?<!\w){name}(?!\w)", readme)
    ] == []


def test_readme_library_example_states_its_values():
    # Each commented line of README's Library example is evaluated, and its
    # comment must open with the value, a tuple written as its items' str.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    namespace, stated = {}, []
    for line in re.search(r"```python\n(.*?)```", readme, re.S)[1].splitlines():
        code, _, comment = line.partition("  # ")
        if not comment:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        text = f"({', '.join(map(str, value))})" if isinstance(value, tuple) else str(value)
        assert comment.strip().startswith(text), (code, text, comment)
        stated.append(code.strip())
    assert stated == ["bd.lower", "bd.upper", "boundary_distributions(m, float).lower",
                      "verify_bounds(m).verdict"]


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # Together they cost about 20 ms of every CLI run's start-up.  -S keeps
    # whatever the site packages import out of the count.
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, halfrare.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=_CHILD_ENV, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_cli_import_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import halfrare.cli\n"
        "print(len(built))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=_CHILD_ENV, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_main_builds_its_parser_on_the_first_call_only(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    counts = []
    for _ in range(2):
        before = len(built)
        assert main(["bounds", "-p", "0.45,0.40"]) == 0
        counts.append(len(built) - before)
    assert counts[0] > 0 and counts[1] == 0


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_reused_parser_prints_what_a_fresh_process_does(capsys):
    # Calls that parse, fail to parse, print help or set other options leave
    # the shared parser as a fresh one: later calls print the same bytes.
    def exit_code(argv):
        try:
            return main(argv)
        except SystemExit as e:
            return e.code

    earlier = [
        (["bounds", "-p", "0.45,0.4", "--digits", "2"], 0),
        (["bounds", "-p", "0.45,0.4", "--digits", "x"], 2),
        (["bounds", "-p", "0.45,0.4", "--no-such-option"], 2),
        (["-h"], 0),
        (["verify", "--random", "1", "--n", "2", "--seed", "3"], 0),
        (["verify", "-p", "0.45,0.4"], 0),
        (["bounds", "-p", "0.45,0.4", "--exact", "--digits", "3"], 2),
    ]
    for argv, code in earlier:
        assert exit_code(argv) == code, argv
    capsys.readouterr()
    for argv in (["bounds", "-p", "0.45,0.4,1/3"], ["verify", "-p", "0.45,0.4"]):
        assert main(argv) == 0
        fresh = subprocess.run([sys.executable, "-m", "halfrare", *argv],
                               capture_output=True, text=True, env=_CHILD_ENV, timeout=60)
        assert fresh.returncode == 0
        assert capsys.readouterr().out == fresh.stdout, argv


def test_perfbench_span_targets_resolve():
    # The benchmark's traced runs wrap each (module, attribute) of
    # perfbench/spans.py TARGETS; one that no longer resolves stops them.
    # The file is parsed, not imported, so nothing is written next to it.
    source = (Path(__file__).parents[1] / "perfbench" / "spans.py").read_text()
    targets = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    assert targets
    for module, attr, _layer in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_closed_pipe_exits_5():
    with subprocess.Popen(
        [sys.executable, "-m", "halfrare", "bounds", "-p", ",".join(["0.3"] * 12)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_CHILD_ENV,
    ) as proc:
        # 4,097 lines overflow the pipe, so the writer is still writing when
        # the reader goes.
        assert proc.stdout.readline().startswith(b"subset")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 5
        assert proc.stderr.read() == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [["bounds", "-p", "0.45,0.40"],
     ["bounds", "-p", "0.45,0.40", "--format", "csv"],
     ["bounds", "-p", ",".join(["0.3"] * 12), "--format", "csv"],
     ["verify", "-p", "0.45,0.40"]],
    ids=["table", "csv", "csv-past-buffer", "verify"],
)
def test_stdout_write_error_exits_5(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "halfrare", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=_CHILD_ENV, timeout=60,
        )
    assert proc.returncode == 5
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot write standard output: ")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.skipif(shutil.which("sh") is None, reason="needs sh")
@pytest.mark.parametrize(
    "argv, code",
    [(["bounds", "-p", "0.45,0.40"], 5),
     (["bounds", "-p", "0.45,0.40", "--format", "json"], 5),
     (["verify", "-p", "0.45,0.40"], 5),
     (["phenomenon", "-p", "0.45,0.40", "--kept", "x1"], 5),
     (["figure", "-p", "0.45,0.40", "--out", "FIG"], 0),
     (["bounds", "-p", "0.4_5"], 2)],
    ids=["table", "json", "verify", "phenomenon", "figure", "parse-error-first"],
)
def test_closed_stdout_is_a_write_error(tmp_path, argv, code):
    # Python sets sys.stdout to None when fd 1 is closed at start.  A command
    # that prints fails as on any stdout write error; figure prints nothing.
    argv = [str(tmp_path / "fig.svg") if a == "FIG" else a for a in argv]
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh",
         sys.executable, "-X", "dev", "-W", "error", "-m", "halfrare", *argv],
        stderr=subprocess.PIPE, text=True, env=_CHILD_ENV, timeout=60,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 5:
        assert proc.stderr.startswith("error: cannot write standard output: ")
        assert len(proc.stderr.splitlines()) == 1
    elif code == 0:
        assert proc.stderr == "" and (tmp_path / "fig.svg").read_text().startswith("<svg")


@pytest.mark.parametrize(
    "argv, code",
    [(["bounds", "--format", "csv"], 5),
     (["bounds", "--format", "table"], 5),
     (["phenomenon", "--kept", "b"], 5),
     (["bounds", "--format", "json"], 0)],
    ids=["csv", "table", "phenomenon", "json"],
)
def test_stdout_encoding_error_exits_5(tmp_path, argv, code):
    # An ASCII stdout cannot print the label "é"; JSON escapes it.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"events": ["é", "b"], "probabilities": ["0.4", "0.3"]}))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "halfrare", *argv, "-i", str(path)],
        capture_output=True, text=True, env=dict(_CHILD_ENV, PYTHONIOENCODING="ascii"),
        timeout=60,
    )
    assert proc.returncode == code
    if code:
        assert proc.stderr.startswith("error: cannot write standard output: ")
        assert len(proc.stderr.splitlines()) == 1
    else:
        assert proc.stderr == "" and json.loads(proc.stdout)["rows"][1]["labels"] == ["é"]


@pytest.mark.parametrize(
    "labels",
    [["a"], ['q"uote', "back\\slash"], ["é", "日本", "\U0001f600"], ["", "b", "c,d"],
     [f"x{i}" for i in range(9)]],
    ids=["single", "quote-backslash", "non-ascii", "empty-and-comma", "nine"],
)
def test_json_stream_matches_json_dump(capsys, tmp_path, labels):
    doc = {"events": labels, "probabilities": (["0.45", "2/5", "0.7"] * 3)[: len(labels)]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    for extra in ([], ["--exact"], ["--digits", "0"]):
        code, out, _ = run(capsys, "bounds", "-i", str(path), "--format", "json", *extra)
        assert code == 0
        parsed = json.loads(out)
        buf = io.StringIO()
        json.dump(parsed, buf, indent=2)
        assert out == buf.getvalue() + "\n"
        assert [r["labels"] for r in parsed["rows"]] == [
            [lab for i, lab in enumerate(labels) if (x >> i) & 1] for x in range(1 << len(labels))
        ]


@pytest.mark.parametrize(
    "labels",
    [["a,b", 'q"', '"'], [",", '""', ""], [" lead", "trail ", " both ", "+"],
     ["é", "日本", "\U0001f600"], ["a,b", '"', "", " s ", "+", "日本"], ["", "a,b", '"']],
    ids=["comma-quote", "bare-comma-quotes-empty", "spaces-plus", "non-ascii", "mixed",
         "empty-in-low-half"],
)
def test_csv_stream_matches_csv_writer(capsys, tmp_path, labels):
    doc = {"events": labels, "probabilities": (["0.45", "2/5", "0.7"] * 2)[: len(labels)]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    for extra in ([], ["--exact"]):
        code, out, _ = run(capsys, "bounds", "-i", str(path), "--format", "csv", *extra)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out, newline="")))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert out == buf.getvalue()
        assert all(len(row) == 5 for row in rows)
        assert [row[1] for row in rows[1:]] == [
            "+".join(lab for i, lab in enumerate(labels) if (x >> i) & 1)
            for x in range(1 << len(labels))
        ]


@pytest.mark.parametrize(
    "argv",
    [
        ["--n-min", "3", "--n-max", "2"],
        ["--n-min", "3", "--n-max", "1"],
        ["--n-min", "7", "--n-max", "7"],
        ["--n-min", "0", "--n-max", "2"],
        ["--count", "-1"],
    ],
    ids=["empty-range", "reversed-range", "over-lp-cap", "n-min-zero", "negative-count"],
)
def test_sweep_rejects_bad_ranges(argv):
    script = Path(__file__).parents[1] / "scripts" / "verification_sweep.py"
    proc = subprocess.run(
        [sys.executable, str(script), *argv], capture_output=True, text=True, env=_CHILD_ENV,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("verification_sweep.py: error:")


def test_sweep_names_a_mismatching_subset_as_verify_does(monkeypatch, capsys):
    # One record off its LP optimum, at subset {x1, x2}: the sweep writes it
    # in `halfrare verify`'s words, as the indicator string 110, and exits 4.
    m = halfrare.marginals_from_values(["0.45", "0.4", "0.1"])
    report = oracle.verify_bounds(m)
    record = report.records[3]
    fields = {name: getattr(record, name) for name in record.__match_args__}
    off = oracle.SubsetRecord(**{**fields, "lp_max": record.lp_max + 1})
    records = (*report.records[:3], off, *report.records[4:])
    monkeypatch.setattr(halfrare, "verify_bounds", lambda m: oracle.VerificationReport(m, records))
    script = Path(__file__).parents[1] / "scripts" / "verification_sweep.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--count", "1", "--n-min", "3", "--n-max", "3"])
    with pytest.raises(SystemExit) as e:
        runpy.run_path(str(script), run_name="__main__")
    assert e.value.code == cli.EXIT_VERIFY == 4
    mismatch = capsys.readouterr().out.splitlines()[0]
    assert mismatch == f"MISMATCH n=3 seed=0 {off}"
    assert str(off).startswith("subset 110: closed-form [")


@pytest.mark.parametrize("outdir", ["FILE", "FILE/figures"], ids=["a-file", "under-a-file"])
def test_render_figures_rejects_bad_outdir(tmp_path, outdir):
    (tmp_path / "FILE").write_text("")
    script = Path(__file__).parents[1] / "scripts" / "render_figures.py"
    proc = subprocess.run(
        [sys.executable, str(script), str(tmp_path / outdir)],
        capture_output=True, text=True, env=_CHILD_ENV, timeout=60,
    )
    assert proc.returncode == 5
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: cannot write figures to ")
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.count(str(tmp_path)) == 1


@pytest.mark.parametrize("stdout", ["closed-pipe", "closed"])
@pytest.mark.parametrize(
    "script, args",
    [("render_figures.py", ["OUT"]), ("verification_sweep.py", ["--count", "4", "--n-max", "3"])],
    ids=["render-figures", "verification-sweep"],
)
def test_scripts_exit_5_on_a_stdout_write_error(tmp_path, script, args, stdout):
    # As the CLI: a reader gone leaves no message, a closed stdout one line.
    argv = [sys.executable, str(Path(__file__).parents[1] / "scripts" / script),
            *[str(tmp_path / "figures") if a == "OUT" else a for a in args]]
    if stdout == "closed-pipe":
        # No reader from the start, so every write fails, on every run.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, env=_CHILD_ENV, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (5, "")
    else:
        if shutil.which("sh") is None:
            pytest.skip("needs sh")
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv],
                              stderr=subprocess.PIPE, text=True, env=_CHILD_ENV, timeout=60)
        assert proc.returncode == 5
        assert proc.stderr.startswith("error: cannot write standard output: ")
        assert len(proc.stderr.splitlines()) == 1


@pytest.mark.skipif(shutil.which("sh") is None, reason="no sh")
def test_ci_checks_script_parses():
    # A syntax error in the CI script fails here, not only on GitHub.
    script = Path(__file__).parents[1] / "scripts" / "ci_checks.sh"
    proc = subprocess.run(["sh", "-n", str(script)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# Numbers as the CLI reads them.  Accepted exponents stay within +-30: an
# exponent e gives every value a 10^|e| denominator, so run time grows with
# |e|, which is slow, not wrong.  Past +-200 the text is rejected unparsed,
# also with an exponent of 19 digits or more, which decimal.Decimal refused.
_probability = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=40).map(str),
    st.builds("0.{:02d}".format, st.integers(0, 99)),
)
_number = st.one_of(
    _probability,
    st.fractions(min_value=-1, max_value=2, max_denominator=40).map(str),
    st.builds(
        "{}e{}".format,
        st.integers(-10**4, 10**4),
        st.integers(-30, 30) | st.sampled_from([-201, 201, -2000000, -10**20, 10**20]),
    ),
    st.builds("{}/{}".format, st.integers(-3, 9), st.integers(-1, 9)),
    # Fraction reads these from Python 3.12 on; the CLI never does.
    st.builds("{}{}{}".format, st.integers(0, 9), st.sampled_from([" / ", " /", "/ "]),
              st.integers(1, 9)),
    st.sampled_from(["0.45", "nan", "inf", "", " ", "zebra", "1_0", "0x1"]),
)
# Lone surrogates are valid JSON escapes but cannot be written as UTF-8.
_text_label = st.one_of(
    st.sampled_from(["x1", "x2", "a", "é", "", "\ud800", "a\udcff", "a,b", 'q"', "l\n", "r\r"]),
    st.text(max_size=3),
)
_label = _text_label | st.integers() | st.none()
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)
_document = st.one_of(
    st.integers(1, 4).flatmap(lambda n: st.fixed_dictionaries(
        {
            "events": st.lists(_text_label, min_size=n, max_size=n),
            "probabilities": st.lists(_probability, min_size=n, max_size=n),
        }
    )).map(lambda d: json.dumps(d).encode()),
    st.fixed_dictionaries(
        {
            "events": st.one_of(st.lists(_label, max_size=4), _json),
            "probabilities": st.one_of(st.lists(_number | _json, max_size=4), _json),
        }
    ).map(lambda d: json.dumps(d).encode()),
    _json.map(lambda d: json.dumps(d).encode()),
    st.binary(max_size=40),
)
# No 'h' anywhere, so no token abbreviates --help (which exits 0).
_junk = st.text(alphabet="-abc,/.=0123456789x", max_size=6)


def _value(valid):
    """Mostly a valid option value, sometimes junk."""
    return st.one_of(valid, valid, valid, _junk)


_command_args = {
    "bounds": [
        st.just(["--exact"]),
        st.tuples(st.just("--format"), st.sampled_from(["table", "json", "csv", "xml"])).map(list),
        st.tuples(st.just("--digits"), _value(st.integers(-2, 700).map(str))).map(list),
    ],
    "verify": [
        # A few sets at most: each one solves 2^(N+1) LPs.
        st.tuples(st.just("--random"), st.sampled_from(["-1", "0", "1", "3", "", "1.5"])).map(list),
        st.tuples(st.just("--n"), st.sampled_from(["-1", "0", "1", "3", "4", "7", "21"])).map(list),
        st.just(["--half-rare"]),
        st.tuples(st.just("--seed"), st.integers().map(str)).map(list),
    ],
    "figure": [
        st.tuples(st.just("--width"), _value(st.integers(-10, 900).map(str))).map(list),
        st.tuples(st.just("--height"), _value(st.integers(-10, 900).map(str))).map(list),
    ],
    "phenomenon": [
        st.just(["--exact"]),
        st.tuples(st.just("--digits"), _value(st.integers(-2, 12).map(str))).map(list),
    ],
}


@st.composite
def _invocations(draw):
    if draw(st.sampled_from([True, False, False, False])):
        # A well-formed table, so each writer runs on drawn values.
        probs = ",".join(draw(st.lists(_probability, min_size=1, max_size=4)))
        number = draw(st.sampled_from([[], ["--exact"], ["--digits", "0"], ["--digits", "14"]]))
        writer = draw(st.sampled_from(["table", "json", "csv"]))
        return ["bounds", "-p", probs, "--format", writer, *number], b""
    command = draw(st.sampled_from(sorted(_command_args)))
    argv = [command]
    source = draw(st.sampled_from(["p", "i"] * 4 + ["both", "none"]))
    if source in ("p", "both"):
        probs = st.lists(_probability, min_size=1, max_size=4) | st.lists(_number, max_size=4)
        argv += ["-p", ",".join(draw(probs))]
    if source in ("i", "both"):
        argv += ["-i", "DOC"]
    if command == "figure":
        argv += ["--out", draw(st.sampled_from(["OUT", "OUT", "OUT", "", "NODIR"]))]
    if command == "phenomenon":
        kept = draw(st.lists(st.sampled_from(["x1", "x2", "x4", "x9", "a", ""]), max_size=3))
        argv += ["--kept", ",".join(kept)]
    for args in draw(st.lists(st.one_of(_command_args[command]), max_size=3)):
        argv += args
    if draw(st.sampled_from([False] * 9 + [True])):
        argv.append(draw(_junk))
    return argv, draw(_document)


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(_invocations())
# Few drawn invocations reach a writer, so each table format runs at least once.
@example((["bounds", "-i", "DOC", "--format", "json", "--exact"],
          json.dumps({"events": ["é", 'q"', ""], "probabilities": ["0.45", "2/5", "0.7"]}).encode()))
@example((["bounds", "-p", "0.45,1/3,0", "--format", "csv"], b""))
def test_fuzz_exit_codes(invocation):
    argv, doc = invocation
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = os.path.join(tmp, "doc.json")
        with open(doc_path, "wb") as f:
            f.write(doc)
        names = {
            "DOC": doc_path,
            "OUT": os.path.join(tmp, "fig.svg"),
            "NODIR": os.path.join(tmp, "nosuchdir", "fig.svg"),
        }
        argv = [names.get(a, a) for a in argv]
        # A strict UTF-8 stream, as a terminal's stdout is.
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as e:
                assert e.code == 2  # argparse rejected argv
                return
            stdout.flush()
    assert code in {0, 2, 3, 4, 5}
    text = stdout.buffer.getvalue().decode("utf-8")
    if text.startswith("subset,labels,"):
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert len(rows) == 1 + 2 ** int(len(rows[1][0]))
        assert all(len(row) == 5 for row in rows)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert buf.getvalue() == text
    elif text.startswith('{\n  "N": '):
        doc = json.loads(text)
        assert len(doc["rows"]) == 2 ** doc["N"]
        assert text == json.dumps(doc, indent=2) + "\n"
