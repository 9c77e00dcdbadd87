#!/usr/bin/env python3
"""Render the standard interval charts for N = 2..7 descending marginal sets
(0.45, 0.40, ..., down by 0.05) plus the five phenomenon variants of the
penta-plet, as SVG files.

Usage: python3 scripts/render_figures.py [outdir]
"""

import sys
from fractions import Fraction
from pathlib import Path

from halfrare import marginals_from_values
from halfrare.figure import render_figure
from halfrare.transforms import identity_phenomenon


def main() -> int:
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "figures")
    outdir.mkdir(parents=True, exist_ok=True)

    base = [Fraction(45, 100) - Fraction(5, 100) * i for i in range(7)]
    for n in range(2, 8):
        m = marginals_from_values(base[:n])
        path = outdir / f"intervals_n{n}.svg"
        path.write_text(render_figure(m))
        print(f"wrote {path}")

    # Phenomenon variants of the penta-plet: complement the last k events.
    penta = marginals_from_values(base[:5])
    for k in range(1, 6):
        m = identity_phenomenon(5, kept=(1 << (5 - k)) - 1).map_marginals(penta)
        path = outdir / f"pentaplet_phenomenon_{5 - k}kept.svg"
        path.write_text(render_figure(m))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
