"""Exhaustive references that only the tests compare the pipeline against.

The library certifies its answers with `latbool.oracle` (`sandwich`'s
inclusion check, `verify`'s checklist).  The checks here judge intermediate
steps instead: the nearest visible lattice point of a convex cell or of the
whole region (`brute_nvlp`, `brute_nvlp_region`), per-pair vertical
visibility (`vertically_visible`), the lattice closure L(P) and the snap
segments against its interior (`lattice_closure`,
`snap_segment_hits_closure_interior`), sampled Boolean ground truth
(`brute_boolean`), proper edge crossings (`properly_crossing_pairs`), the
Hausdorff row rule over all edges (`row_ranges`), and the points of a
segment intersection, the plain Fraction parameter of a point along a
segment and the midpoints of a cut segment (`hit_points`, `segment_param`,
`gap_midpoints`), and the interior probe (`interior_sample`), which the
oracle computes on integers.

Everything here is deliberately exhaustive and simple: full lattice
enumerations and per-candidate scans, classified by the oracle's
`IntMembership` rather than the pipeline's `point_in_region`.  Exhaustive
scans are capped at coordinates <= 256; acceptance fixtures respect the
cap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from latbool.exact_core import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    PreconditionError,
    Pt,
    Region,
    Ring,
    Scalar,
    pt,
    segment_at,
    segment_intersection,
    segments_cross_properly,
)
from latbool.oracle import IntMembership, Witness, _row_ranges, _visible

ORACLE_COORD_CAP = 256


class LatticeClosure(NamedTuple):
    """L(P): lattice points, unit segments and unit squares inside a region.

    Segments are keyed by their low endpoint and axis ('h' right, 'v' up);
    squares by their bottom-left corner.
    """

    points: frozenset[Pt]
    segments: frozenset[tuple[Pt, str]]
    squares: frozenset[Pt]


def row_ranges(scan: IntMembership, m: int, j: int) -> list[tuple[int, int]]:
    """Merged closed ranges of the i with (i/m, j/m) not exterior.

    `classify`'s rule for a whole row at once, applied by the oracle's
    `_row_ranges` to every edge; the Hausdorff check applies it to the
    edges active at the row only.
    """
    s = scan._scale
    return _row_ranges([tuple(c * m for c in e) for e in scan._edges],
                       s, j * s)


# ---------------------------------------------------------------------------
# brute NVLP


def brute_nvlp(p: Pt, cell: Ring) -> Optional[Pt]:
    """Exhaustive nearest lattice point of a closed convex cell.

    Scans the full bounding box, filters by closed membership, minimizes
    the exact squared distance, breaks ties lexicographically (x, then y).
    """
    if not in_convex_cell(p, cell):
        # vertices may sit mid-edge after collinear collapse; closed
        # membership is the real requirement
        raise PreconditionError("p must lie on the closed cell")
    x0, y0, x1, y1 = cell.bbox
    best: Optional[tuple[Scalar, int, int]] = None
    for gx in range(math.ceil(x0), math.floor(x1) + 1):
        for gy in range(math.ceil(y0), math.floor(y1) + 1):
            g = Pt(gx, gy)
            if not in_convex_cell(g, cell):
                continue
            d = squared_point_distance(p, g)
            key = (d, gx, gy)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return Pt(best[1], best[2])


def squared_point_distance(p: Pt, q: Pt) -> Scalar:
    """Exact squared distance of two points, in plain Fraction arithmetic."""
    dx, dy = p.x - q.x, p.y - q.y
    return dx * dx + dy * dy


def cross(o: Pt, a: Pt, b: Pt) -> Scalar:
    """Exact 2x2 determinant of (a-o, b-o), in plain Fraction arithmetic.

    The pipeline's predicates do not call it; it is this module's own sign
    test, kept apart from the integer kernel.
    """
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def in_convex_cell(g: Pt, cell: Ring) -> bool:
    for a, b in cell.edges():
        if a == b:
            continue
        if cross(a, b, g) < 0:
            return False
    return True


def brute_nvlp_region(p: Pt, region: Region) -> Optional[Pt]:
    """Nearest lattice point of the whole region visible from p.

    The hardest oracle: full scan plus an exact segment-visibility test per
    candidate.  Cross-checks that one convex cell already determines the
    answer.
    """
    if region.bbox is None:
        return None
    scan = IntMembership(region)
    if scan.classify(p) == EXTERIOR:
        raise PreconditionError("p must belong to the region")
    x0, y0, x1, y1 = region.bbox
    points = [Pt(gx, gy) for gx in range(math.ceil(x0), math.floor(x1) + 1)
              for gy in range(math.ceil(y0), math.floor(y1) + 1)
              if scan.classify(Pt(gx, gy)) != EXTERIOR]
    if p in points:
        return p
    seen = _visible([(p, g) for g in points], region, scan)
    best = min(((squared_point_distance(p, g), g.x, g.y)
                for g, ok in zip(points, seen) if ok), default=None)
    if best is None:
        return None
    return Pt(best[1], best[2])


def vertically_visible(r: Pt, edge: tuple[Pt, Pt], region: Region) -> bool:
    """Is r vertically visible from the edge?

    An independent per-pair check of the decomposition's visibility lists:
    the open vertical segment from r to its foot on the edge must lie in
    the closed region.  Transversal crossings of any boundary edge block
    visibility; this also makes zero-width cracks opaque, as they must be.
    """
    a, b = edge
    if a.x == b.x:
        return False
    hits = segment_at(a, b, r.x)
    if not hits:
        return False
    foot = pt(r.x, hits[0])
    if foot == r:
        return True
    seg = (r, foot)
    for e in region.edges():
        if e[0] != e[1] and segments_cross_properly(seg, e):
            return False
    return _visible([seg], region, IntMembership(region))[0]


# ---------------------------------------------------------------------------
# lattice closure


def lattice_closure(region: Region) -> LatticeClosure:
    """All lattice points, unit segments and unit squares inside the region."""
    if region.bbox is None:
        return LatticeClosure(frozenset(), frozenset(), frozenset())
    x0, y0, x1, y1 = region.bbox
    if max(abs(v) for v in (x0, y0, x1, y1)) > ORACLE_COORD_CAP:
        raise PreconditionError("oracle scans are capped at coordinates <= 256")
    scan = IntMembership(region)
    points: set[Pt] = set()
    for gx in range(math.ceil(x0), math.floor(x1) + 1):
        for gy in range(math.ceil(y0), math.floor(y1) + 1):
            g = Pt(gx, gy)
            if scan.classify(g) != EXTERIOR:
                points.add(g)
    units = [(g, axis, other) for g in points for axis, other in
             (("h", Pt(g.x + 1, g.y)), ("v", Pt(g.x, g.y + 1)))
             if other in points]
    seen = _visible([(g, other) for g, _, other in units], region, scan)
    segments = {(g, axis) for (g, axis, _), ok in zip(units, seen) if ok}
    squares: set[Pt] = set()
    for g in points:
        if ((g, "h") in segments and (g, "v") in segments
                and (Pt(g.x, g.y + 1), "h") in segments
                and (Pt(g.x + 1, g.y), "v") in segments
                and _unit_square_inside(g, region, scan)):
            squares.add(g)
    return LatticeClosure(frozenset(points), frozenset(segments),
                          frozenset(squares))


def _unit_square_inside(g: Pt, region: Region, scan: IntMembership) -> bool:
    """Closed unit square with bottom-left g fully inside the region.

    All four sides are already known to be inside; reject if any boundary
    edge enters the open square, otherwise the open square is uniform and
    the center decides.
    """
    for a, b in region.edges():
        if a == b:
            continue
        if _segment_meets_open_box(a, b, g.x, g.y, g.x + 1, g.y + 1):
            return False
    center = pt(Fraction(2 * g.x + 1, 2), Fraction(2 * g.y + 1, 2))
    return scan.classify(center) != EXTERIOR


def _segment_meets_open_box(a: Pt, b: Pt, x0: Scalar, y0: Scalar,
                            x1: Scalar, y1: Scalar) -> bool:
    """Does the closed segment contain a point of the open axis box?"""
    lo, hi = Fraction(0), Fraction(1)
    dx = b.x - a.x
    dy = b.y - a.y
    for d, start, wlo, whi in ((dx, a.x, x0, x1), (dy, a.y, y0, y1)):
        if d == 0:
            if not (wlo < start < whi):
                return False
        else:
            t0 = Fraction(wlo - start, d)
            t1 = Fraction(whi - start, d)
            if t0 > t1:
                t0, t1 = t1, t0
            lo = max(lo, t0)
            hi = min(hi, t1)
    return lo < hi


def snap_segment_hits_closure_interior(p: Pt, g: Pt,
                                       closure: LatticeClosure
                                       ) -> Optional[Witness]:
    """Does the snap segment p->g intersect the interior of L(P)?

    The interior of the closure is the union of the open unit squares plus
    the relative interiors of segments flanked by squares on both sides.
    """
    for sq in closure.squares:
        if p == g:
            if sq.x < p.x < sq.x + 1 and sq.y < p.y < sq.y + 1:
                return Witness("closure-interior", p, f"point inside square {sq}")
            continue
        if _segment_meets_open_box(p, g, sq.x, sq.y, sq.x + 1, sq.y + 1):
            return Witness("closure-interior", p,
                           f"snap segment enters open square {sq}")
    for (s0, axis) in closure.segments:
        if axis == "h":
            flanked = (Pt(s0.x, s0.y - 1) in closure.squares
                       and s0 in closure.squares)
            s1 = Pt(s0.x + 1, s0.y)
        else:
            flanked = (Pt(s0.x - 1, s0.y) in closure.squares
                       and s0 in closure.squares)
            s1 = Pt(s0.x, s0.y + 1)
        if not flanked:
            continue
        if p == g:
            continue
        hit = segment_intersection((p, g), (s0, s1))
        if hit is None:
            continue
        for h in hit_points(hit):
            if h != s0 and h != s1:
                return Witness("closure-interior", h,
                               f"snap segment meets flanked segment {s0}-{s1}")
    return None


# ---------------------------------------------------------------------------
# sampled boolean ground truth


class SampleTruth(NamedTuple):
    point: Pt
    in_a: str
    in_b: str
    expected: str  # interior | exterior | skip (boundary-grazing)


def brute_boolean(a: Region, b: Region, op: str,
                  samples: Iterable[Pt]) -> list[SampleTruth]:
    """Membership-level ground truth under closed-regularized semantics.

    Samples touching any operand boundary are marked `skip`: regularization
    decides those by closure, not by local membership.
    """
    if op not in ("intersection", "union", "difference"):
        raise PreconditionError(f"unknown op {op!r}")
    in_a = IntMembership(a).classify
    in_b = IntMembership(b).classify
    out = []
    for q in samples:
        ca = in_a(q)
        cb = in_b(q)
        if ca == BOUNDARY or cb == BOUNDARY:
            out.append(SampleTruth(q, ca, cb, "skip"))
            continue
        ia = ca == INTERIOR
        ib = cb == INTERIOR
        if op == "intersection":
            res = ia and ib
        elif op == "union":
            res = ia or ib
        else:
            res = ia and not ib
        out.append(SampleTruth(q, ca, cb, INTERIOR if res else EXTERIOR))
    return out


# ---------------------------------------------------------------------------
# brute edge-pair counts


def properly_crossing_pairs(edges1: Sequence[tuple[Pt, Pt]],
                            edges2: Sequence[tuple[Pt, Pt]]) -> int:
    """Pairs crossing at a point interior to both segments."""
    n = 0
    for e1 in edges1:
        for e2 in edges2:
            if segments_cross_properly(e1, e2):
                n += 1
    return n


# ---------------------------------------------------------------------------
# segment parameters in Fraction arithmetic


def hit_points(hit: Union[None, Pt, tuple[Pt, Pt]]) -> tuple[Pt, ...]:
    """Normalize a segment_intersection result to a tuple of points."""
    if hit is None:
        return ()
    if isinstance(hit, Pt):
        return (hit,)
    return hit


def segment_param(a: Pt, b: Pt, p: Pt) -> Fraction:
    """The t with p = a + t (b - a), for p on the line through a-b."""
    if b.x != a.x:
        return Fraction(p.x - a.x, b.x - a.x)
    return Fraction(p.y - a.y, b.y - a.y)


def gap_midpoints(p: Pt, q: Pt, events: Sequence[Fraction]) -> Iterable[Pt]:
    """Midpoints of the pieces of pq cut at the sorted parameters `events`."""
    ts = [Fraction(0), *events, Fraction(1)]
    for t0, t1 in zip(ts, ts[1:]):
        tm = (t0 + t1) / 2
        yield pt(p.x + tm * (q.x - p.x), p.y + tm * (q.y - p.y))


def interior_sample(ring: Ring, region: Region) -> Optional[Pt]:
    """`oracle.region_interior_sample` in plain Fraction arithmetic: shoot
    up and down from each non-vertical edge's midpoint against every
    non-degenerate edge of the region (`segment_at` on the points), and
    return the first half-way point to a nearest hit that is interior."""
    scan = IntMembership(region)
    edges = [(a, b) for a, b in region.edges() if a != b]
    for a, b in ring.edges():
        if a.x == b.x:
            continue
        m = pt(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))
        ys = [y for c, d in edges for y in segment_at(c, d, m.x)]
        for side in (1, -1):
            hits = [y for y in ys if side * (y - m.y) > 0]
            if hits:
                yy = min(hits) if side > 0 else max(hits)
                cand = pt(m.x, Fraction(m.y + yy, 2))
                if scan.classify(cand) == INTERIOR:
                    return cand
    return None
