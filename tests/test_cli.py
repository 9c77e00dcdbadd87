import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

import halfrare
from halfrare.cli import main

F = Fraction


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


class TestFigureCommand:
    def test_pentaplet_svg(self, capsys, tmp_path):
        out_path = tmp_path / "fig.svg"
        code, _, _ = run(capsys, "figure", "-p", "0.45,0.40,0.35,0.30,0.25",
                         "--out", str(out_path))
        assert code == 0
        root = ET.fromstring(out_path.read_text())
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
        (["figure", "-p", "0.45,0.40", "--width", "0"], None, 3),
        (["figure", "-p", "0.45,0.40", "--height", "44"], None, 3),
        (["bounds", "-i", "DOC"], {"events": [1, 2], "probabilities": ["0.45", "0.4"]}, 2),
        (["bounds", "-i", "DOC"], {"events": "ab", "probabilities": ["0.45", "0.4"]}, 2),
        (["bounds", "-i", "DOC"], {"events": ["a"], "probabilities": "1"}, 2),
        (["phenomenon", "-p", "0.45,0.40", "--kept", "x1,x1"], None, 3),
        (["bounds", "-p", "0.45,0.40", "--general"], None, 2),
        (["bounds", "-p", "0.45,0.40", "--digits", "5000"], None, 2),
        (["phenomenon", "-p", "0.45,0.40", "--kept", "x1", "--format", "json"], None, 2),
    ],
    ids=[
        "bounds-digits-negative",
        "phenomenon-digits-negative",
        "verify-random-negative",
        "figure-width-zero",
        "figure-no-plot-height",
        "events-not-strings",
        "events-a-string",
        "probabilities-a-string",
        "kept-repeated-label",
        "general-flag-removed",
        "digits-above-cap",
        "phenomenon-format-removed",
    ],
)
def test_bad_input_exits_cleanly(tmp_path, argv, doc, code):
    # A fresh process, so that an uncaught exception shows as a traceback.
    if doc is not None:
        (tmp_path / "doc.json").write_text(json.dumps(doc))
    argv = [str(tmp_path / "doc.json") if a == "DOC" else a for a in argv]
    if argv[0] == "figure":
        argv += ["--out", str(tmp_path / "fig.svg")]
    env = dict(os.environ, PYTHONPATH=str(Path(halfrare.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "halfrare", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "fig.svg").exists()
