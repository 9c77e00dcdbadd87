"""Spans around the program's public functions, recorded from the benchmark's
side by replacing module attributes for the length of one operation.

Each function is wrapped where the program looks it up: `cli` imports
`format_decimal` and friends by name, `oracle` and `figure` import
`boundary_distributions` by name, and `verify_bounds` finds
`lp_extremize_terrace` as a module global.  A layer's self time is its span
minus the spans of wrapped calls made inside it.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

#: (module, attribute, layer)
TARGETS = (
    ("halfrare.cli", "main", "cli"),
    ("halfrare.cli", "parse_probability", "core.validate"),
    ("halfrare.cli", "default_event_set", "core.validate"),
    ("halfrare.cli", "make_event_set", "core.validate"),
    ("halfrare.cli", "validate_marginals", "core.validate"),
    ("halfrare.cli", "format_decimal", "core.format"),
    ("halfrare.cli", "format_exact", "core.format"),
    ("halfrare.bounds", "boundary_distributions", "bounds.boundary_distributions"),
    ("halfrare.oracle", "boundary_distributions", "bounds.boundary_distributions"),
    ("halfrare.figure", "boundary_distributions", "bounds.boundary_distributions"),
    ("halfrare.transforms", "independent_epd", "transforms.independent_epd"),
    ("halfrare.figure", "independent_epd", "transforms.independent_epd"),
    ("halfrare.transforms", "apply_phenomenon", "transforms.apply_phenomenon"),
    ("halfrare.figure", "render_figure", "figure.render_figure"),
    ("halfrare.oracle", "verify_bounds", "oracle.verify_bounds"),
    ("halfrare.oracle", "lp_extremize_terrace", "oracle.lp_extremize"),
)


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._child_s: list[float] = []
        self._saved: list = []

    def _wrap(self, layer: str, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.self_s[layer] += dt - self._child_s.pop()
                self.total_s[layer] += dt
                self.calls[layer] += 1
                if self._child_s:
                    self._child_s[-1] += dt

        return traced

    def install(self) -> None:
        for mod_name, attr, layer in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(layer, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s), "calls": dict(self.calls)}
