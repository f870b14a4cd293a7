"""In-memory span tracer that wraps latbool's layer functions from outside.

Each traced function is replaced at every module attribute that binds it
(``setops``, ``rounding`` and ``cli`` each hold their own
``exact_intersection``), because callers look the name up in their own
module.  A span records (name, start, end, parent, op id); a layer's self
time is its span duration minus the part its child spans cover.  Exact
counts are read from the values the layer functions return.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from typing import Callable, Optional


def _exact_counts(counts, args, result) -> None:
    counts["arrangement.exact_vertices"] += result.vertex_count()
    counts["arrangement.nonlattice_vertices"] += len(
        result.non_lattice_positions())


def _decomposition_counts(counts, args, result) -> None:
    counts["decomposition.walls"] += len(result.walls)
    counts["decomposition.cells"] += len(result.cells)
    counts["decomposition.visibility_pairs"] += sum(
        len(v) for v in result.visible_reflex.values())


def _pixel_counts(counts, args, result) -> None:
    # full pixels are unit cells of a merged region: its area counts them;
    # each degenerate (zero-area) ring is one slit pixel
    area2 = sum(r.signed_area2 for r in result.rings)
    slits = sum(1 for r in result.rings if r.is_degenerate)
    counts["rounding.pixels"] += area2 // 2 + slits


def _inner_counts(counts, args, result) -> None:
    counts["rounding.inner_vertices"] += result.vertex_count()


def _outer_counts(counts, args, result) -> None:
    counts["rounding.outer_vertices"] += result.vertex_count()


def _reflex_counts(counts, args, result) -> None:
    counts["rounding.reflex_removed"] += (args[0].vertex_count()
                                          - result.vertex_count())


PACKAGE = "latbool"

# (module, function, count reader); every layer the benchmark reports
LAYERS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("arrangement", "exact_intersection", _exact_counts),
    ("decomposition", "reflex_vertical_decomposition", _decomposition_counts),
    ("oracle", "check_inclusion", None),
    ("oracle", "check_hausdorff", None),
    ("oracle", "intersecting_pairs", None),
    ("rounding", "inner_round", _inner_counts),
    ("rounding", "outer_round", _outer_counts),
    ("rounding", "pixel_set", _pixel_counts),
    ("rounding", "simplify_reflex", _reflex_counts),
    ("rounding", "remove_zero_area", None),
    ("exact_core", "region_ok", None),
    ("exact_core", "complement_in_universe", None),
    ("lpr", "parse_region", None),
    ("lpr", "write_region", None),
    ("setops", "sandwich", None),
    ("cli", "run_property_checklist", None),
)

COUNT_NAMES = (
    "arrangement.exact_vertices", "arrangement.nonlattice_vertices",
    "decomposition.walls", "decomposition.cells",
    "decomposition.visibility_pairs", "rounding.pixels",
    "rounding.inner_vertices", "rounding.outer_vertices",
    "rounding.reflex_removed",
)

# the four layers with the most self time on the stars workload
GROWTH_LAYERS = (
    "decomposition.reflex_vertical_decomposition",
    "arrangement.exact_intersection",
    "oracle.check_inclusion",
    "rounding.inner_round",
)


class Tracer:
    """Spans and counts of one traced round, kept in memory."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id: Optional[str] = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable,
              count: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every module attribute that holds a traced function."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for mod_name, fn_name, count in LAYERS:
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            original = getattr(owner, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        out = []
        for idx, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for cs, ce in sorted(children.get(idx, ())):
                cs = max(cs, reach)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            out.append((end - start) - covered)
        return out

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Layer name -> (self seconds, calls), every layer present."""
        totals = {f"{m}.{f}": [0.0, 0] for m, f, _ in LAYERS}
        for span, own in zip(self.spans, self.self_times()):
            entry = totals[span[0]]
            entry[0] += own
            entry[1] += 1
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def self_by_op(self, layer: str) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if span[0] == layer:
                out[span[4]] += own
        return out


def growth_exponent(sizes: dict[str, int], times: dict[str, float]) -> float:
    """Least-squares slope of log(self time) against log(input edges)."""
    pts = [(math.log(sizes[k]), math.log(t)) for k, t in times.items()
           if t > 0 and sizes.get(k, 0) > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
