#!/usr/bin/env python3
"""Render the standard interval charts for N = 2..7 descending marginal sets
(0.45, 0.40, ..., down by 0.05) plus the five phenomenon variants of the
penta-plet, as SVG files.

Usage: python3 scripts/render_figures.py [outdir]

An outdir that cannot be made or written exits 5 with one error line, and so
does an error writing standard output, as in the CLI.
"""

import sys
from fractions import Fraction
from pathlib import Path

from halfrare import PhenomenonMap, marginals_from_values
from halfrare.cli import EXIT_IO, guard_stdout
from halfrare.figure import render_figure


def charts():
    """The file name and the marginals of every chart."""
    base = [Fraction(45, 100) - Fraction(5, 100) * i for i in range(7)]
    for n in range(2, 8):
        yield f"intervals_n{n}.svg", marginals_from_values(base[:n])

    # Phenomenon variants of the penta-plet: complement the last k events.
    penta = marginals_from_values(base[:5])
    for k in range(1, 6):
        m = PhenomenonMap((1 << (5 - k)) - 1, tuple(range(5))).map_marginals(penta)
        yield f"pentaplet_phenomenon_{5 - k}kept.svg", m


def main() -> int:
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "figures")
    written = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, m in charts():
            path = outdir / name
            path.write_text(render_figure(m))
            written.append(path)
    except OSError as e:
        print(f"error: cannot write figures to {str(outdir)!r}: {e.strerror or e}", file=sys.stderr)
        return EXIT_IO
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(guard_stdout(main))
