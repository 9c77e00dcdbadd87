#!/usr/bin/env python3
"""Sweep the LP oracle over many random marginal sets and summarize sharpness,
one line per N (sets run, sets sharp, seconds) and a total line.

Usage: python3 scripts/verification_sweep.py [--count 100] [--n-min 2]
       [--n-max 5] [--seed 0]

Exits 0 when every set is sharp, 1 when one is not, 2 on bad arguments and 5,
as the CLI does, on an error writing standard output.
"""

import argparse
import sys
import time

from halfrare import random_marginals, verify_bounds
from halfrare.cli import guard_stdout, non_negative_int
from halfrare.oracle import MAX_LP_EVENTS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=non_negative_int, default=100)
    ap.add_argument("--n-min", type=int, default=2)
    ap.add_argument("--n-max", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if not 1 <= args.n_min <= args.n_max <= MAX_LP_EVENTS:
        ap.error(f"need 1 <= --n-min <= --n-max <= {MAX_LP_EVENTS}, "
                 f"got {args.n_min} and {args.n_max}")

    span = args.n_max - args.n_min + 1
    per_n = {}  # N -> [sets run, sets sharp, seconds]
    for k in range(args.count):
        n = args.n_min + k % span
        start = time.perf_counter()
        m = random_marginals(n, args.seed + k, half_rare=k % 2 == 0)
        rep = verify_bounds(m)
        stats = per_n.setdefault(n, [0, 0, 0.0])
        stats[0] += 1
        stats[1] += rep.verdict
        stats[2] += time.perf_counter() - start
        if not rep.verdict:
            bad = rep.first_mismatch()
            print(f"MISMATCH n={n} seed={args.seed + k} subset={bad.subset}: "
                  f"closed [{bad.closed_form_lower}, {bad.closed_form_upper}] "
                  f"vs LP [{bad.lp_min}, {bad.lp_max}]")
    for n, (run, sharp, seconds) in sorted(per_n.items()):
        print(f"N={n}: {sharp}/{run} sharp ({seconds:.1f}s)")
    sharp = sum(stats[1] for stats in per_n.values())
    elapsed = sum(stats[2] for stats in per_n.values())
    print(f"{sharp}/{args.count} instances sharp "
          f"({elapsed:.1f}s, N in [{args.n_min}, {args.n_max}])")
    return 0 if sharp == args.count else 1


if __name__ == "__main__":
    sys.exit(guard_stdout(main))
