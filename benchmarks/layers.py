"""Per-layer spans for the traced pass, recorded from outside the package.

``LayerTracer`` replaces each traced public function with a wrapper on
*every* module attribute bound to it, so calls made through
``from .groebner import hilbert_function`` in ``hulls`` or ``verification``
are seen as well as calls inside ``groebner`` itself.  Spans (name, start,
end, parent span, item id) are kept in memory; ``metrics`` folds them into
``<module>.<function>.<quantity>`` values and ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from math import comb, gcd
from statistics import median

# (module, function, quantities): "s" is inclusive time, "self_s" is time
# minus child spans, "calls" the call count; the rest are work counters.
TARGETS = (
    ("groebner", "hilbert_function", ("s", "calls")),
    ("groebner", "graded_piece_dimension", ("s",)),
    ("groebner", "fraction_free_rank", ("s", "rows", "rank", "rank_per_row")),
    ("groebner", "buchberger", ("s", "self_s", "calls", "basis_out")),
    ("groebner", "normal_form", ("s", "calls")),
    ("groebner", "eliminate", ("s",)),
    ("groebner", "ideal_intersect", ("s",)),
    ("groebner", "ideal_equal", ("s",)),
    ("lattice", "enumerate_maximal_decompositions",
     ("s", "calls", "copies_in", "decompositions_out")),
    ("lattice", "build_hexagon_family", ("s",)),
    ("lattice", "polygon_from_points", ("s",)),
    ("fano", "convex_hull_3d", ("s", "calls", "points_in", "triples_computed", "facets_out")),
    ("fano", "build_P_F", ("s",)),
    ("fano", "family_branch_report", ("s",)),
    ("hulls", "hull_report", ("s", "self_s")),
    ("hulls", "classify", ("s", "self_s")),
    ("hulls", "build_altmann_ideal", ("s", "self_s")),
    ("hulls", "reduced_presentation", ("s", "self_s")),
    ("hulls", "verify_truncation", ("s", "self_s")),
    ("verification", "run_checks", ("s",)),
    ("cli", "run", ("s", "self_s")),
)

TRACE_METRICS = {"trace.overhead_s": "s", "trace.spans": "count"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for module, function, quantities in TARGETS:
        for quantity in quantities:
            if quantity in ("s", "self_s"):
                unit = "s"
            elif quantity == "rank_per_row":
                unit = "ratio"
            else:
                unit = "count"
            units[f"{module}.{function}.{quantity}"] = unit
    units.update(TRACE_METRICS)
    return units


def _copies_in(polygon) -> int:
    vs = polygon.vertices
    return sum(gcd(abs(vs[(i + 1) % len(vs)][0] - vs[i][0]),
                   abs(vs[(i + 1) % len(vs)][1] - vs[i][1])) for i in range(len(vs)))


class LayerTracer:
    """Installs span-recording wrappers on the package's module bindings."""

    def __init__(self, package: str = "toric_deform"):
        self.package = package
        self.spans: list[tuple] = []
        self.item: str | None = None
        self._stack: list[int] = []
        self._counts: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _count(self, name: str, k: int) -> None:
        self._counts[name] = self._counts.get(name, 0) + k

    def _after(self, name: str, args: tuple, result) -> None:
        if name == "groebner.fraction_free_rank":
            self._count(name + ".rank", result)
        elif name == "groebner.buchberger":
            self._count(name + ".basis_out", len(result.elements))
        elif name == "lattice.enumerate_maximal_decompositions":
            self._count(name + ".copies_in", _copies_in(args[0]))
            self._count(name + ".decompositions_out", len(result))
        elif name == "fano.convex_hull_3d":
            n = len({tuple(p) for p in args[0]})
            self._count(name + ".points_in", n)
            # C(n, 3) worked out from the input size, not counted in the loop
            self._count(name + ".triples_computed", comb(n, 3))
            self._count(name + ".facets_out", len(result.facets))

    def _counted_rows(self, rows):
        key = "groebner.fraction_free_rank.rows"
        for row in rows:
            self._count(key, 1)
            yield row

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "groebner.fraction_free_rank":
                args = (self._counted_rows(args[0]),) + args[1:]
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.item)
            self._after(name, args, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(self.package + "."))]
        for module_name, function, _ in TARGETS:
            home = sys.modules.get(f"{self.package}.{module_name}")
            original = getattr(home, function, None)
            if original is None:  # a function that no longer exists reports 0
                continue
            wrapper = self._wrap(f"{module_name}.{function}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def metrics(self) -> dict[str, float]:
        """Per-layer values over every span recorded so far."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        open_names: dict[int, set] = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            ancestors = open_names.get(parent, set())
            open_names[index] = ancestors | {name}
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + (end - start) - child_time[index]
            if name not in ancestors:  # a recursive call is already inside its caller
                inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        out: dict[str, float] = {}
        for metric in metric_units():
            if metric in TRACE_METRICS:
                continue
            base, quantity = metric.rsplit(".", 1)
            if quantity == "s":
                out[metric] = inclusive.get(base, 0.0)
            elif quantity == "self_s":
                out[metric] = own.get(base, 0.0)
            elif quantity == "calls":
                out[metric] = calls.get(base, 0)
            elif quantity == "rank_per_row":
                rows = self._counts.get(base + ".rows", 0)
                out[metric] = self._counts.get(base + ".rank", 0) / rows if rows else 0.0
            else:
                out[metric] = self._counts.get(metric, 0)
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path, extra: dict) -> None:
        """Write the spans, relative to the first one, as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra,
                       "spans": [{"name": n, "start": s - t0, "end": e - t0,
                                  "parent": p, "item": i}
                                 for n, s, e, p, i in self.spans]}, fh)


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over several traced passes."""
    return {k: median(r[k] for r in runs) for k in runs[0]}
