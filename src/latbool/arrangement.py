"""Exact overlay of two lattice regions.

The implementation splits every input edge at every intersection, samples
face membership on both sides of each atomic piece and keeps the pieces
where the result flips.  A plain pair overlay with interval pruning stands
in for a full event-queue sweep; complexity is a soft goal only.

Zero-area (degenerate) rings of an operand act as slits: where both sides
of a slit piece land inside the result, the piece is kept as a doubled
"crack" edge.  Cracks cut reflex corners at non-representable vertices,
which is exactly what the outer rounding pipeline needs them for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .exact_core import (
    InternalInvariantError,
    MarginError,
    hit_points,
    trace_cycles,
    PreconditionError,
    Pt,
    Region,
    Ring,
    Scalar,
    UniverseBox,
    complement_in_universe,
    cross,
    pt,
    region_ok,
    segment_intersection,
    segments_cross_properly,
    validate_region,
)

CONVEX = "convex"
REFLEX = "reflex"
FLAT = "flat"

OPS = ("intersection", "union", "difference")


class OverlayStats(NamedTuple):
    n: int  # total input edges
    k: int  # distinct non-lattice result vertices
    h: int  # properly intersecting input edge pairs (A x B)


class ExactVertex(NamedTuple):
    pos: Pt
    convexity: str


@dataclass(frozen=True)
class ExactRegion:
    """Boolean-op result with convexity-tagged rational vertices."""

    rings: tuple[tuple[ExactVertex, ...], ...]
    stats: OverlayStats

    @cached_property
    def region(self) -> Region:
        return Region(tuple(Ring(tuple(v.pos for v in ring))
                            for ring in self.rings))

    @property
    def is_empty(self) -> bool:
        return not self.rings

    def vertex_count(self) -> int:
        return len({v.pos for ring in self.rings for v in ring})

    def non_lattice_positions(self) -> set[Pt]:
        return {v.pos for ring in self.rings for v in ring
                if not v.pos.is_lattice}

    def reflex_positions(self) -> set[Pt]:
        return {v.pos for ring in self.rings for v in ring
                if v.convexity == REFLEX}


def vertex_convexity(prev: Pt, v: Pt, nxt: Pt) -> str:
    """Turn class at a ring occurrence, interior-on-the-left convention.

    An exact reversal (out-and-back crack tip) counts as reflex: the
    interior wraps the full angle around it.
    """
    turn = (v.x - prev.x) * (nxt.y - v.y) - (v.y - prev.y) * (nxt.x - v.x)
    if turn > 0:
        return CONVEX
    if turn < 0:
        return REFLEX
    if (v.x - prev.x) * (nxt.x - v.x) + (v.y - prev.y) * (nxt.y - v.y) < 0:
        return REFLEX
    return FLAT


# ---------------------------------------------------------------------------
# segment intersection enumeration (pair overlay with interval pruning)


def find_segment_intersections(
    segments: Sequence[tuple[Pt, Pt]]
) -> list[tuple[int, int, object]]:
    """All pairwise intersections among segments.

    Sorted by x-interval with an active list so disjoint spans are never
    compared; worst case stays quadratic, which is acceptable here.
    """
    n = len(segments)
    idx = sorted(range(n), key=lambda i: min(segments[i][0].x,
                                             segments[i][1].x))
    out: list[tuple[int, int, object]] = []
    active: list[int] = []
    for i in idx:
        a, b = segments[i]
        xlo = min(a.x, b.x)
        xhi = max(a.x, b.x)
        ylo = min(a.y, b.y)
        yhi = max(a.y, b.y)
        still: list[int] = []
        for j in active:
            c, d = segments[j]
            if max(c.x, d.x) < xlo:
                continue
            still.append(j)
            if min(c.y, d.y) > yhi or max(c.y, d.y) < ylo:
                continue
            hit = segment_intersection((a, b), (c, d))
            if hit is not None:
                out.append((min(i, j), max(i, j), hit))
        still.append(i)
        active = still
    return out


class _InputEdge(NamedTuple):
    a: Pt
    b: Pt
    operand: int  # 0 = A, 1 = B
    slit: bool


def _gather_edges(region: Region, operand: int) -> list[_InputEdge]:
    out = []
    for ring in region.rings:
        slit = ring.is_degenerate
        for a, b in ring.edges():
            if a != b:
                out.append(_InputEdge(a, b, operand, slit))
    return out


class _Atomic(NamedTuple):
    a: Pt
    b: Pt
    slit_only: bool


def _atomize(edges: Sequence[_InputEdge],
             hits: Iterable[tuple[int, int, object]]) -> list[_Atomic]:
    cuts: list[set[Pt]] = [set((e.a, e.b)) for e in edges]
    for i, j, hit in hits:
        for h in hit_points(hit):
            cuts[i].add(h)
            cuts[j].add(h)
    buckets: dict[tuple[Pt, Pt], bool] = {}
    for e, cut in zip(edges, cuts):
        pts_sorted = sorted(cut, key=lambda p: _edge_param(e.a, e.b, p))
        for p, q in zip(pts_sorted, pts_sorted[1:]):
            key = (p, q) if p < q else (q, p)
            prev = buckets.get(key)
            buckets[key] = e.slit if prev is None else (prev and e.slit)
    return [_Atomic(k[0], k[1], slit) for k, slit in sorted(buckets.items())]


def _edge_param(a: Pt, b: Pt, p: Pt) -> Fraction:
    if b.x != a.x:
        return Fraction(p.x - a.x, b.x - a.x)
    return Fraction(p.y - a.y, b.y - a.y)


# ---------------------------------------------------------------------------
# face sampling


class _SegIndex:
    """Integer-bbox prescreen over a set of segments (exact, conservative)."""

    def __init__(self, segs: Sequence[tuple[Pt, Pt]]):
        self.segs = list(segs)
        if self.segs:
            self.xlo = np.array([math.floor(min(a.x, b.x)) for a, b in segs])
            self.xhi = np.array([math.ceil(max(a.x, b.x)) for a, b in segs])
            self.ylo = np.array([math.floor(min(a.y, b.y)) for a, b in segs])
            self.yhi = np.array([math.ceil(max(a.y, b.y)) for a, b in segs])

    def covering_x(self, x: Scalar) -> list[int]:
        if not self.segs:
            return []
        fx = math.floor(x)
        cx = math.ceil(x)
        mask = (self.xlo <= cx) & (self.xhi >= fx)
        return np.nonzero(mask)[0].tolist()

    def covering_y(self, y: Scalar) -> list[int]:
        if not self.segs:
            return []
        fy = math.floor(y)
        cy = math.ceil(y)
        mask = (self.ylo <= cy) & (self.yhi >= fy)
        return np.nonzero(mask)[0].tolist()


class _MemberTester:
    """Exact point classification against one operand with bbox prescreens."""

    def __init__(self, region: Region):
        self.edges = [(a, b) for a, b in region.edges() if a != b]
        self.index = _SegIndex(self.edges)

    def contains(self, q: Pt) -> bool:
        inside = False
        for i in self.index.covering_y(q.y):
            a, b = self.edges[i]
            if a.y <= q.y < b.y:
                if cross(a, b, q) > 0:
                    inside = not inside
            elif b.y <= q.y < a.y:
                if cross(b, a, q) > 0:
                    inside = not inside
            elif a.y == q.y == b.y:
                if min(a.x, b.x) <= q.x <= max(a.x, b.x):
                    return True  # on a horizontal edge: closed membership
            if cross(a, b, q) == 0 and (min(a.x, b.x) <= q.x <= max(a.x, b.x)
                                        and min(a.y, b.y) <= q.y <= max(a.y, b.y)):
                return True  # on boundary counts as inside (closed)
        return inside


class _FaceSampler:
    """Points strictly inside the faces adjacent to an atomic edge.

    From the midpoint of the piece, shoot axis rays; half way to the first
    hit lies strictly inside the adjacent face because atomic pieces meet
    only at endpoints.
    """

    def __init__(self, atomics: Sequence[_Atomic]):
        self.atomics = atomics
        self.index = _SegIndex([(e.a, e.b) for e in atomics])

    def side_samples(self, e: _Atomic) -> tuple[Pt, Pt]:
        """(left_sample, right_sample) for the directed piece a->b."""
        a, b = e.a, e.b
        m = pt(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))
        if a.x != b.x:
            up = self._shoot_vertical(m, +1)
            down = self._shoot_vertical(m, -1)
            return (up, down) if b.x > a.x else (down, up)
        left = self._shoot_horizontal(m, -1)
        right = self._shoot_horizontal(m, +1)
        return (left, right) if b.y > a.y else (right, left)

    def _shoot_vertical(self, m: Pt, sign: int) -> Pt:
        best: Optional[Scalar] = None
        for i in self.index.covering_x(m.x):
            sa, sb = self.atomics[i].a, self.atomics[i].b
            for y in _seg_at_x(sa, sb, m.x):
                if sign * (y - m.y) > 0 and (best is None
                                             or sign * (y - best) < 0):
                    best = y
        if best is None:
            return pt(m.x, m.y + sign)
        return pt(m.x, Fraction(m.y + best, 2))

    def _shoot_horizontal(self, m: Pt, sign: int) -> Pt:
        best: Optional[Scalar] = None
        for i in self.index.covering_y(m.y):
            sa, sb = self.atomics[i].a, self.atomics[i].b
            for x in _seg_at_y(sa, sb, m.y):
                if sign * (x - m.x) > 0 and (best is None
                                             or sign * (x - best) < 0):
                    best = x
        if best is None:
            return pt(m.x + sign, m.y)
        return pt(Fraction(m.x + best, 2), m.y)


def _seg_at_x(a: Pt, b: Pt, x: Scalar) -> list[Scalar]:
    if a.x == b.x:
        return [a.y, b.y] if a.x == x else []
    lo, hi = (a, b) if a.x < b.x else (b, a)
    if not (lo.x <= x <= hi.x):
        return []
    return [lo.y + Fraction(x - lo.x, hi.x - lo.x) * (hi.y - lo.y)]


def _seg_at_y(a: Pt, b: Pt, y: Scalar) -> list[Scalar]:
    if a.y == b.y:
        return [a.x, b.x] if a.y == y else []
    lo, hi = (a, b) if a.y < b.y else (b, a)
    if not (lo.y <= y <= hi.y):
        return []
    return [lo.x + Fraction(y - lo.y, hi.y - lo.y) * (hi.x - lo.x)]


# ---------------------------------------------------------------------------
# the overlay itself


def overlay_intersection(a: Region, b: Region) -> ExactRegion:
    """closure(A interior intersect B interior) with its stats."""
    edges = _gather_edges(a, 0) + _gather_edges(b, 1)
    hits = find_segment_intersections([(e.a, e.b) for e in edges])
    h = 0
    for i, j, hit in hits:
        if edges[i].operand != edges[j].operand and isinstance(hit, Pt):
            if segments_cross_properly((edges[i].a, edges[i].b),
                                       (edges[j].a, edges[j].b)):
                h += 1
    atomics = _atomize(edges, hits)
    sampler = _FaceSampler(atomics)
    ta = _MemberTester(a)
    tb = _MemberTester(b)

    directed: list[tuple[Pt, Pt]] = []
    for e in atomics:
        left_pt, right_pt = sampler.side_samples(e)
        in_l = ta.contains(left_pt) and tb.contains(left_pt)
        in_r = ta.contains(right_pt) and tb.contains(right_pt)
        if in_l != in_r:
            directed.append((e.a, e.b) if in_l else (e.b, e.a))
        elif in_l and e.slit_only:
            directed.append((e.a, e.b))
            directed.append((e.b, e.a))

    cycles = trace_cycles(directed)
    rings = _cycles_to_rings(cycles)
    k = len({v for ring in rings for v in ring.pts if not v.is_lattice})
    return ExactRegion(_tag_rings(rings), OverlayStats(n=len(edges), k=k, h=h))


def _cycles_to_rings(cycles: list[list[Pt]]) -> list[Ring]:
    rings = []
    for cyc in cycles:
        ring = Ring(tuple(cyc)).canonical()
        if len(ring.pts) >= 2:
            rings.append(ring)
    rings.sort(key=lambda r: tuple(r.pts))
    return rings


def _tag_rings(rings: Iterable[Ring]) -> tuple[tuple[ExactVertex, ...], ...]:
    out = []
    for ring in rings:
        m = len(ring.pts)
        out.append(tuple(
            ExactVertex(v, vertex_convexity(ring.pts[i - 1], v,
                                            ring.pts[(i + 1) % m]))
            for i, v in enumerate(ring.pts)))
    return tuple(out)


def exact_intersection(a: Region, b: Region, check: bool = True) -> ExactRegion:
    if check:
        for name, r in (("A", a), ("B", b)):
            if not region_ok(r):
                raise PreconditionError(
                    f"operand {name} is not a valid region: {validate_region(r)}")
    return overlay_intersection(a, b)


def complement_exact(x: ExactRegion, box: UniverseBox) -> ExactRegion:
    """Complement of an exact result inside the box, stats preserved.

    The intermediate may legitimately fill the box up to its boundary, so
    no margin is required here (unlike operand complements).
    """
    comp = complement_in_universe(x.region, box, margin=0)
    return ExactRegion(_tag_rings(comp.rings), x.stats)


def exact_overlay(a: Region, b: Region, op: str,
                  box: UniverseBox) -> ExactRegion:
    """The one exact intersection every result of `op` is derived from.

    De Morgan reductions inside the box: intersection overlays A * B,
    difference A * Bc, and union Ac * Bc, whose complement is A + B.
    """
    if op not in OPS:
        raise ValueError(f"op must be one of {OPS}")
    for name, r in (("A", a), ("B", b)):
        if not box.contains_with_margin(r):
            raise MarginError(f"operand {name} violates the universe margin")
    if op == "intersection":
        return exact_intersection(a, b)
    if op == "difference":
        return exact_intersection(a, complement_in_universe(b, box))
    return exact_intersection(complement_in_universe(a, box),
                              complement_in_universe(b, box))


def exact_from_overlay(overlay: ExactRegion, op: str,
                       box: UniverseBox) -> ExactRegion:
    """The exact result of `op` from its `exact_overlay`."""
    if op != "union":
        return overlay
    result = complement_exact(overlay, box)
    bx0, by0 = box.min
    bx1, by1 = box.max
    for ring in result.region.rings:
        for p in ring.pts:
            if not (bx0 < p.x < bx1 and by0 < p.y < by1):
                raise InternalInvariantError(
                    "union result touches the universe box")
    return result


def exact_boolean(a: Region, b: Region, op: str,
                  box: UniverseBox) -> ExactRegion:
    """Any of the three set operations via De Morgan reductions."""
    return exact_from_overlay(exact_overlay(a, b, op, box), op, box)
