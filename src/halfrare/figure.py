"""SVG rendering of Fréchet-interval charts.

One bar pair per subset, in ascending bitmask order: a blue rectangle spans
[independence value, upper bound] and a red rectangle spans
[lower bound, independence value], so red always tops out exactly where blue
starts.  Dashed horizontal gridlines mark the unit interval in quarters.
"""

from __future__ import annotations

from fractions import Fraction

from .bounds import boundary_distributions
from .core import MarginalSet, check_event_count, indicator_string
from .transforms import independent_epd

#: Bars stop being legible past this many events.
MAX_FIGURE_EVENTS = 8

#: The chart's size in pixels; its `viewBox` lets a viewer scale it.
WIDTH, HEIGHT = 640, 480

#: Pixels between the figure's edges and its plot area.
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 42, 12, 12, 32
PLOT_WIDTH = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_HEIGHT = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM


def _y(value: Fraction) -> float:
    return MARGIN_TOP + (1 - float(value)) * PLOT_HEIGHT


def render_figure(m: MarginalSet) -> str:
    """Fréchet-interval chart for a marginal set as an SVG 1.1 document."""
    check_event_count(m.n, MAX_FIGURE_EVENTS, "figure")
    bd = boundary_distributions(m, _y)
    star = independent_epd(m)
    n = m.n
    ncells = 1 << n
    slot = PLOT_WIDTH / ncells
    bar = slot * 0.6

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<style>.grid{stroke:#888;stroke-width:1}'
        ".blue{fill:#2060c0}.red{fill:#c03030}"
        ".tick{font:9px sans-serif;fill:#444}"
        ".label{font:8px monospace;fill:#444;text-anchor:middle}</style>",
    ]
    for k in range(5):
        y = _y(Fraction(k, 4))
        tick = f"{k}/4" if k % 4 else str(k // 4)
        parts.append(
            f'<line class="grid" stroke-dasharray="4 3" '
            f'x1="{MARGIN_LEFT}" y1="{y:.2f}" '
            f'x2="{WIDTH - MARGIN_RIGHT}" y2="{y:.2f}"/>'
        )
        parts.append(f'<text class="tick" x="4" y="{y + 3:.2f}">{tick}</text>')
    for x in range(ncells):
        cx = MARGIN_LEFT + slot * (x + 0.5)
        left = cx - bar / 2
        y_up, y_star, y_lo = bd.upper[x], _y(star[x]), bd.lower[x]
        for colour, top, bottom in (("blue", y_up, y_star), ("red", y_star, y_lo)):
            parts.append(
                f'<rect class="{colour}" x="{left:.2f}" y="{top:.2f}" '
                f'width="{bar:.2f}" height="{bottom - top:.2f}"/>'
            )
        parts.append(
            f'<text class="label" x="{cx:.2f}" y="{HEIGHT - 8}">'
            f"{indicator_string(x, n)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)
