#!/bin/sh
# Every check that CI runs after `pip install`: the tier-1 tests, the
# benchmark's output checks, the console script against `python -m halfrare`,
# and the README scripts.  Run it from anywhere, with no argument:
#
#   sh scripts/ci_checks.sh
#
# It tests the `halfrare` found on PATH.  In CI that is the installed entry
# point; README "Tests" shows a stand-in for a tree that is not installed.
# A behaviour check lives in tier-1.  This script adds only what an installed
# package can show: that the console script prints and draws what `python -m
# halfrare` does, and that the README scripts run.
set -eu

if [ $# -ne 0 ]; then
    echo "usage: sh scripts/ci_checks.sh (no arguments)" >&2
    exit 2
fi
command -v halfrare > /dev/null || { echo "error: no halfrare on PATH" >&2; exit 1; }

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' HUP INT TERM
cd "$root"

echo "== Tier-1 tests"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

echo "== Benchmark output-check self-test"
python3 perfbench/selftest.py

echo "== Benchmark output checks on N=10 tables, and traced passes"
# run.py exits 0 even when an output check fails, so read its verdict from the
# JSON object on its last stdout line.  --trace 1 wraps the program functions
# listed in perfbench/spans.py, so a renamed or removed one fails here and not
# only in a traced run.
for run in "tables-general 0" "tables-half-rare 0" "tables-general 1" "tables-half-rare 1" "small-cli 1"; do
    set -- $run
    python3 perfbench/run.py --workload "$1" --seed 1 --seconds 5 --trace "$2" > "$tmp/bench.out"
    tail -n 1 "$tmp/bench.out" | python3 -c 'import json, sys; r = json.load(sys.stdin); print(r); sys.exit(not (r["correct"] is True and r["failed"] == 0))'
done

echo "== Installed console script"
# The console script, run from outside the checkout with no PYTHONPATH, must
# print, and draw, what `python -m halfrare` does.  A function keeps the empty
# --kept argument one word.
cd "$tmp"
same_stdout() {
    env -u PYTHONPATH halfrare "$@" > installed.out
    PYTHONPATH="$root/src" python -m halfrare "$@" > module.out
    diff installed.out module.out
}
same_stdout bounds -p 0.45,0.40 --exact
# N=11 splits into halves of 5 and 6 events.
n11=0.9,0.1,0.5,1,0,2/3,1/3,0.75,0.25,0.6,0.6
same_stdout bounds -p "$n11" --format json
same_stdout bounds -p "$n11" --format csv --exact
same_stdout bounds -p "$n11" --format table --digits 640
same_stdout bounds -p "$n11" --format json --digits 0
# Values longer than 12 characters widen their table columns.
same_stdout bounds -p 0.45,1/3 --digits 14
same_stdout phenomenon -p "$n11" --kept x2,x5,x9
same_stdout verify -p 0.45,0.40
# verify writes each report as it is made.
same_stdout verify --random 3 --n 3 --seed 7
same_stdout verify --random 2 --n 2 --half-rare
# N=6 is the LP cap; its integer simplex runs it in well under a second.
same_stdout verify --random 2 --n 6 --seed 1
same_stdout phenomenon -p 0.45,0.40 --kept ""
# An -i document: a label with a comma, one with a quote, and a probability
# written as a 34-digit JSON number.
printf '%s\n' '{"events": ["a,b", "say \"hi\"", "c"],' \
    '"probabilities": [0.1000000000000000055511151231257827, "1/3", 0.75]}' > doc.json
same_stdout bounds -i doc.json --format csv --exact
same_stdout phenomenon -i doc.json --kept c
probs=0.45,0.40,0.35,0.30,0.25
env -u PYTHONPATH halfrare figure -p "$probs" --out installed.svg
PYTHONPATH="$root/src" python -m halfrare figure -p "$probs" --out module.svg
cmp installed.svg module.svg

echo "== README scripts"
cd "$root"
PYTHONPATH=src python3 scripts/verification_sweep.py --count 12 --n-max 4
PYTHONPATH=src python3 scripts/render_figures.py "$tmp/figures"

echo "== All CI checks passed"
