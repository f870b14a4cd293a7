"""Independent brute-force ground truth.

Everything here is deliberately exhaustive and simple: full lattice
enumerations, dense grid sampling, per-candidate scans.  The pipeline is
judged against this module, never the other way round.  Exhaustive scans
are capped at coordinates <= 256; acceptance fixtures respect the cap.

The oracle classifies points without the pipeline's own routine
(`exact_core.point_in_region`): `IntMembership` classifies one point at a
time on denominator-cleared Python ints, with the same closed, half-open
rule, so a fault in either shows up as a disagreement.  The oracle's
visibility test (`_visible`) and interior probe (`region_interior_sample`)
classify with it too.  The exact checks that only tests and the public API
call live here as well, on the same routines: `is_visible` (is a closed
segment inside a region?) and `vertically_visible` (the per-pair reference
for the decomposition's visibility lists).

Two concessions to speed, neither of which approximates anything.  The
inclusion check, the visibility tests and the edge-pair count
(`intersecting_pairs`) find meeting edges in one bounding-box sweep
(`_sweep_pairs`) instead of testing every edge pair; the sweep only skips
pairs whose boxes miss, and every predicate it runs stays exact.  The
Hausdorff check sweeps up the sample rows with the integer edges active at
each row, reads the row's membership off them as ranges of sample indices
(`_row_ranges`, `classify`'s rule evaluated for a whole row at once), tests
a sample only against the reference edges near it, and skips the rows on
which both regions have the same edges; it skips only work whose outcome
is known.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .exact_core import (
    BOUNDARY,
    hit_points,
    EXTERIOR,
    INTERIOR,
    PreconditionError,
    Pt,
    Region,
    Ring,
    Scalar,
    cross,
    gap_midpoints,
    pt,
    segment_at,
    segment_intersection,
    segment_param,
    segments_cross_properly,
    squared_point_distance,
)

ORACLE_COORD_CAP = 256


class Witness(NamedTuple):
    """A replayable counterexample: re-evaluating it reproduces the failure."""

    kind: str
    point: Optional[Pt]
    context: str
    measure: Optional[Scalar] = None


class LatticeClosure(NamedTuple):
    """L(P): lattice points, unit segments and unit squares inside a region.

    Segments are keyed by their low endpoint and axis ('h' right, 'v' up);
    squares by their bottom-left corner.
    """

    points: frozenset[Pt]
    segments: frozenset[tuple[Pt, str]]
    squares: frozenset[Pt]


# ---------------------------------------------------------------------------
# scalar exact membership


class IntMembership:
    """Closed-set classification of single points on unbounded ints.

    The region is scaled once by the lcm of its vertex denominators and
    kept as integer edges (ax, ay, bx, by) with (ay, ax) <= (by, bx).  A
    query and the edges meet at the lcm of both scales; each edge is
    brought there with integer multiplications as it is scanned, so
    queries with many different denominators keep no scaled copies.  A
    query is integer compares and at most one integer cross product per
    edge, under `point_in_region`'s rule: a horizontal edge at the point's
    y is an interval test, any other edge whose closed y-range holds the
    point is boundary on a zero cross product, and the rightward ray counts
    it under the half-open rule lo.y <= p.y < hi.y.
    """

    def __init__(self, region: Region):
        self._scale = math.lcm(*(c.denominator
                                 for p in region.vertex_positions() for c in p))
        rows = []
        for a, b in region.edges():
            if a == b:
                continue
            ax, ay, bx, by = (c.numerator * (self._scale // c.denominator)
                              for c in (*a, *b))
            if (ay, ax) > (by, bx):
                ax, ay, bx, by = bx, by, ax, ay
            rows.append((ax, ay, bx, by))
        self._edges = rows

    def classify(self, p: Pt) -> str:
        common = math.lcm(self._scale, p.x.denominator, p.y.denominator)
        f = common // self._scale
        px = p.x.numerator * (common // p.x.denominator)
        py = p.y.numerator * (common // p.y.denominator)
        inside = False
        for ax, ay, bx, by in self._edges:
            ay *= f
            by *= f
            if py < ay or py > by:
                continue
            ax *= f
            bx *= f
            if ay == by:
                if ax <= px <= bx:
                    return BOUNDARY
                continue
            c = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            if c == 0:
                return BOUNDARY
            if c > 0 and py < by:
                inside = not inside
        return INTERIOR if inside else EXTERIOR

    def row_ranges(self, m: int, j: int) -> list[tuple[int, int]]:
        """Merged closed ranges of the i with (i/m, j/m) not exterior.

        `classify`'s rule for a whole row at once, applied by `_row_ranges`
        to every edge; the Hausdorff check applies it to the edges active
        at the row only.
        """
        s = self._scale
        return _row_ranges([tuple(c * m for c in e) for e in self._edges],
                           s, j * s)


def _row_ranges(edges: Iterable[tuple[int, int, int, int]], s: int,
                y: int) -> list[tuple[int, int]]:
    """Merged closed ranges of the sample indices i whose sample (i * s, y)
    the closed region bounded by `edges` holds.

    The edges (ax, ay, bx, by), (ay, ax) <= (by, bx), are on the scale
    s * m of samples 1/m apart: `IntMembership`'s integer edges, of scale
    s, times m.  Sample row j is y = j * s.

    The crossings of the half-open rule lo.y <= y < hi.y, sorted and taken
    in pairs, bound the ranges whose points the rightward ray sees an odd
    number of times (each crossing itself is boundary); every boundary
    contact the pairs miss adds its own range: a crossing at y == hi.y,
    and a horizontal edge on the row.  Each left end becomes a sample index
    by integer ceil division and each right end by floor division, so an
    end strictly between two samples holds neither.  An edge whose closed
    y-range misses y contributes nothing, so the ranges depend only on the
    multiset of edges at the row.
    """
    crossings = []
    spans = []
    for ax, ay, bx, by in edges:
        if y < ay or y > by:
            continue
        if ay == by:
            spans.append((-(-ax // s), bx // s))
            continue
        # the crossing's x times s * (by - ay)
        num = ax * (by - ay) + (bx - ax) * (y - ay)
        den = s * (by - ay)
        hit = (-(-num // den), num // den)
        (crossings if y < by else spans).append(hit)
    crossings.sort()
    spans += [(lo[0], hi[1])
              for lo, hi in zip(crossings[::2], crossings[1::2])]
    spans.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in spans:
        if lo > hi:
            continue
        if merged and lo <= merged[-1][1] + 1:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


# ---------------------------------------------------------------------------
# brute NVLP


def brute_nvlp(p: Pt, cell: Ring) -> Optional[Pt]:
    """Exhaustive nearest lattice point of a closed convex cell.

    Scans the full bounding box, filters by closed membership, minimizes
    the exact squared distance, breaks ties lexicographically (x, then y).
    """
    if not _in_convex_cell(p, cell):
        # vertices may sit mid-edge after collinear collapse; closed
        # membership is the real requirement
        raise PreconditionError("p must lie on the closed cell")
    x0, y0, x1, y1 = cell.bbox
    best: Optional[tuple[Scalar, int, int]] = None
    for gx in range(math.ceil(x0), math.floor(x1) + 1):
        for gy in range(math.ceil(y0), math.floor(y1) + 1):
            g = Pt(gx, gy)
            if not _in_convex_cell(g, cell):
                continue
            d = squared_point_distance(p, g)
            key = (d, gx, gy)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return Pt(best[1], best[2])


def _in_convex_cell(g: Pt, cell: Ring) -> bool:
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


def _visible(segments: Sequence[tuple[Pt, Pt]], region: Region,
             scan: IntMembership) -> list[bool]:
    """Which closed segments pq, p != q and both ends in the region, lie in
    it.

    Grazing contact with the boundary does not block visibility.  One
    `_sweep_events` pass cuts every open segment at its events against the
    region's edges, and each gap midpoint must not be exterior.
    """
    events, _ = _sweep_events(_edge_rows(segments),
                              _edge_rows(region.edges()))
    return [all(scan.classify(m) != EXTERIOR for m in gap_midpoints(p, q, ts))
            for (p, q), ts in zip(segments, events)]


def is_visible(p: Pt, q: Pt, region: Region) -> bool:
    """True iff the closed segment pq lies inside the (closed) region.

    Grazing contact with the boundary does not block visibility.
    """
    scan = IntMembership(region)
    if scan.classify(p) == EXTERIOR or scan.classify(q) == EXTERIOR:
        raise PreconditionError("visibility endpoints must belong to the region")
    if p == q:
        return True
    return _visible([(p, q)], region, scan)[0]


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
# inclusion


def check_inclusion(inner: Region, outer: Region) -> Optional[Witness]:
    """Exact containment check: inner subseteq outer (closed sets).

    Every boundary edge of `inner` is cut at its events against the outer
    boundary and each gap midpoint must not be exterior; symmetrically no
    outer boundary piece may run through the interior of `inner`; finally
    one interior probe per filled inner ring must land inside `outer`.
    The events of both sides come from one sweep (`_sweep_events`).
    """
    inner_rows = _edge_rows(inner.edges())
    outer_rows = _edge_rows(outer.edges())
    inner_events, outer_events = _sweep_events(inner_rows, outer_rows)
    in_inner = IntMembership(inner).classify
    in_outer = IntMembership(outer).classify
    inside: set[Pt] = set()
    for (a, b, *_), events in zip(inner_rows, inner_events):
        for v in (a, b):
            if v in inside:
                continue
            if in_outer(v) == EXTERIOR:
                return Witness("vertex-outside", v, "inner vertex outside outer")
            inside.add(v)
        for m in gap_midpoints(a, b, events):
            if in_outer(m) == EXTERIOR:
                return Witness("edge-outside", m,
                               f"inner edge {a}-{b} leaves outer")
    for (a, b, *_), events in zip(outer_rows, outer_events):
        for m in gap_midpoints(a, b, events):
            if in_inner(m) == INTERIOR:
                return Witness("boundary-swallowed", m,
                               f"outer edge {a}-{b} runs through inner interior")
    for ri, ring in enumerate(inner.rings):
        if ring.is_degenerate or not ring.is_ccw:
            continue
        probe = region_interior_sample(inner, ri)
        if probe is not None and in_outer(probe) == EXTERIOR:
            return Witness("component-outside", probe,
                           "inner component sample outside outer")
    return None


def region_interior_sample(region: Region, ring_idx: int) -> Optional[Pt]:
    """A point strictly interior to the region, adjacent to the given ring.

    Mid-edge vertical shooting against the whole boundary: the half-way
    point to the first hit lies inside one face of the region; a filled
    ring has the region's interior on one side of each edge.
    """
    scan = IntMembership(region)
    ring = region.rings[ring_idx]
    all_edges = [(a, b) for a, b in region.edges() if a != b]
    for a, b in ring.edges():
        if a == b or a.x == b.x:
            continue
        m = pt(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))
        others = [e for e in all_edges if e != (a, b) and e != (b, a)]
        for side in (1, -1):
            hits = [y for c, d in others for y in segment_at(c, d, m.x)
                    if side * (y - m.y) > 0]
            if hits:
                yy = min(hits) if side > 0 else max(hits)
                cand = pt(m.x, Fraction(m.y + yy, 2))
            else:
                cand = pt(m.x, m.y + side)
            if scan.classify(cand) == INTERIOR:
                return cand
    return None


EdgeRow = tuple[Pt, Pt, Scalar, Scalar, Scalar, Scalar]


def _edge_rows(edges: Iterable[tuple[Pt, Pt]]) -> list[EdgeRow]:
    """(a, b, xlo, xhi, ylo, yhi) per non-degenerate edge, in order."""
    return [(a, b, min(a.x, b.x), max(a.x, b.x), min(a.y, b.y), max(a.y, b.y))
            for a, b in edges if a != b]


def _sweep_pairs(rows_p: Sequence[EdgeRow], rows_q: Sequence[EdgeRow]
                 ) -> Iterator[tuple[int, int, object]]:
    """(ip, iq, hit) for every edge ip of p and iq of q that meet.

    Both edge lists are swept together by low x with one active list per
    side, as `exact_core.find_segment_intersections` sweeps the overlay's
    edges: each edge is tested only against the other side's active edges
    whose closed y-range overlaps its own, and every such pair is
    intersected once.  A common point of two closed segments lies in both
    closed bounding boxes, so no meeting pair is lost.
    """
    rows = (rows_p, rows_q)
    active: list[list[int]] = [[], []]
    order = sorted([(r[2], 0, i) for i, r in enumerate(rows_p)]
                   + [(r[2], 1, i) for i, r in enumerate(rows_q)])
    for x, side, i in order:
        ylo, yhi = rows[side][i][4:]
        other = rows[1 - side]
        still: list[int] = []
        for k in active[1 - side]:
            o = other[k]
            if o[3] < x:
                continue
            still.append(k)
            if o[4] > yhi or o[5] < ylo:
                continue
            ip, iq = (i, k) if side == 0 else (k, i)
            hit = segment_intersection(rows_p[ip][:2], rows_q[iq][:2])
            if hit is not None:
                yield ip, iq, hit
        active[1 - side] = still
        active[side].append(i)


def _sweep_events(rows_p: Sequence[EdgeRow], rows_q: Sequence[EdgeRow]
                  ) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Sorted parameters in (0, 1) where each edge meets the other side,
    from the pairs `_sweep_pairs` finds."""
    events: tuple[list[set[Fraction]], ...] = (
        [set() for _ in rows_p], [set() for _ in rows_q])
    for ip, iq, hit in _sweep_pairs(rows_p, rows_q):
        a, b = rows_p[ip][:2]
        c, d = rows_q[iq][:2]
        for h in hit_points(hit):
            t = segment_param(a, b, h)
            if 0 < t < 1:
                events[0][ip].add(t)
            u = segment_param(c, d, h)
            if 0 < u < 1:
                events[1][iq].add(u)
    return ([sorted(ts) for ts in events[0]], [sorted(ts) for ts in events[1]])


# ---------------------------------------------------------------------------
# sampled Hausdorff


def check_hausdorff(small: Region, big: Region,
                    spacing: Fraction = Fraction(1, 8),
                    mode: str = "inner",
                    assume_inclusion: bool = False) -> Optional[Witness]:
    """Sampled sqrt(2) bound: every grid sample in big but not in small lies
    at exact squared distance < 2 from the reference boundary.

    mode="inner": reference is the boundary of `big` (the exact region);
    mode="outer": reference is the boundary of `small` (again the exact
    region, with `big` the rounded superset).

    Sampling is the only approximation; each comparison is exact.  Every
    sample (i/m, j/m), m = 1/`spacing`, in big's bounding box is covered,
    the first one that fails, bottom row first and left to right, is the
    witness.  One sweep up the rows keeps, per side, the integer edges
    whose closed y-range holds the row, and `_row_ranges` gives big's and
    small's closed membership from those as ranges of i.  Each i in big's
    ranges and in none of small's is tested against the reference edges
    whose box, widened by 2, holds the sample: a squared distance below 2
    is below 2 on each axis.  A row that no edge of the multiset
    difference of big's and small's undirected edges spans meets the same
    edges on both sides, so it holds no sample of big \\ small and is
    skipped.
    """
    if spacing <= 0 or Fraction(spacing).numerator != 1:
        raise PreconditionError("spacing must be 1/m for an integer m")
    if mode not in ("inner", "outer"):
        raise PreconditionError(f"mode must be 'inner' or 'outer', "
                                f"not {mode!r}")
    if not assume_inclusion:
        w = check_inclusion(small, big)
        if w is not None:
            raise PreconditionError(f"small is not included in big: {w}")
    if big.bbox is None:
        return None
    m = Fraction(spacing).denominator

    in_big = IntMembership(big)
    in_small = IntMembership(small)
    sb, ss = in_big._scale, in_small._scale
    # each side's edges on the scale of its samples: its own scale times m
    big_edges, small_edges = ([tuple(c * m for c in e) for e in scan._edges]
                              for scan in (in_big, in_small))
    big_rows, small_rows = _Sweep(big_edges, 0), _Sweep(small_edges, 0)
    ref_edges, f = (big_edges, sb) if mode == "inner" else (small_edges, ss)
    fm = f * m
    pad = 2 * fm
    ref_rows = _Sweep(ref_edges, pad)
    _, y0, _, y1 = big.bbox
    last = None
    for j in _differing_rows(in_big, in_small, m, math.ceil(y0 * m),
                             math.floor(y1 * m)):
        uncovered = _uncovered(_row_ranges(big_rows.at(j * sb), sb, j * sb),
                               _row_ranges(small_rows.at(j * ss), ss, j * ss))
        y = j * f
        near = None
        for i in uncovered:
            x = i * f
            if last is not None and _sq_dist_lt(last, x, y, fm):
                continue
            if near is None:
                near = [(min(e[0], e[2]) - pad, max(e[0], e[2]) + pad, e)
                        for e in ref_rows.at(y)]
            for lo, hi, e in near:
                if lo <= x <= hi and _sq_dist_lt(e, x, y, fm):
                    last = e
                    break
            else:
                q = pt(Fraction(i, m), Fraction(j, m))
                return Witness("hausdorff", q,
                               f"sample in big\\small at squared distance >= 2 "
                               f"from {mode} reference boundary")
    return None


class _Sweep:
    """The integer edges (ax, ay, bx, by), ay <= by, whose closed y-range
    widened by `pad` holds y, for y asked in increasing order."""

    def __init__(self, edges: list[tuple[int, int, int, int]], pad: int):
        self._order = sorted(edges, key=lambda e: e[1])
        self._pad = pad
        self._next = 0
        self._active: list[tuple[int, int, int, int]] = []

    def at(self, y: int) -> list[tuple[int, int, int, int]]:
        order, k, pad = self._order, self._next, self._pad
        while k < len(order) and order[k][1] - pad <= y:
            self._active.append(order[k])
            k += 1
        self._next = k
        self._active = [e for e in self._active if e[3] + pad >= y]
        return self._active


def _differing_rows(p: IntMembership, q: IntMembership, m: int, j0: int,
                    j1: int) -> Iterator[int]:
    """The rows j0 <= j <= j1, in increasing order, whose line y = j/m some
    edge of the multiset difference of p's and q's undirected edges meets.

    Multisets, not sets: the two crossings of an edge listed twice cancel,
    so a region that lists an edge twice and one that lists it once differ
    along it, although the sets of their edges agree.
    """
    s = math.lcm(p._scale, q._scale)
    count = Counter(tuple(c * (s // p._scale) for c in e) for e in p._edges)
    count.subtract(tuple(c * (s // q._scale) for c in e) for e in q._edges)
    spans = sorted((-(-ay * m // s), by * m // s)
                   for (_, ay, _, by), n in count.items() if n)
    j = j0
    for lo, hi in spans:
        if lo > j1:
            return
        yield from range(max(lo, j), min(hi, j1) + 1)
        j = max(j, hi + 1)


def _uncovered(ranges: Sequence[tuple[int, int]],
               cut: Sequence[tuple[int, int]]) -> Iterator[int]:
    """The integers in the merged closed `ranges` that no range of the
    merged closed `cut` holds, in increasing order."""
    k = 0
    for lo, hi in ranges:
        while lo <= hi:
            while k < len(cut) and cut[k][1] < lo:
                k += 1
            if k < len(cut) and cut[k][0] <= lo:
                lo = cut[k][1] + 1
                continue
            end = hi if k == len(cut) else min(hi, cut[k][0] - 1)
            yield from range(lo, end + 1)
            lo = end + 1


def _sq_dist_lt(edge: tuple[int, int, int, int], px: int, py: int,
                s: int) -> bool:
    """Exact test  dist((px, py), closed segment edge)^2 < 2 s^2  for a
    non-degenerate edge (ax, ay, bx, by), everything on the scale s."""
    ax, ay, bx, by = edge
    dx, dy = bx - ax, by - ay
    apx, apy = px - ax, py - ay
    dot = apx * dx + apy * dy
    if dot <= 0:
        return apx * apx + apy * apy < 2 * s * s
    len2 = dx * dx + dy * dy
    if dot >= len2:
        bpx, bpy = px - bx, py - by
        return bpx * bpx + bpy * bpy < 2 * s * s
    c = apx * dy - apy * dx
    return c * c < 2 * s * s * len2


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


def intersecting_pairs(edges1: Sequence[tuple[Pt, Pt]],
                       edges2: Sequence[tuple[Pt, Pt]]) -> int:
    """Pairs with any nonempty closed intersection (touch or overlap),
    found by `_sweep_pairs`."""
    return sum(1 for _ in _sweep_pairs(_edge_rows(edges1), _edge_rows(edges2)))
