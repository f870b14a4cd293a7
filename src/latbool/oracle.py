"""Independent brute-force ground truth.

Everything here is deliberately exhaustive and simple: full lattice
enumerations, dense grid sampling, per-candidate scans.  The pipeline is
judged against this module, never the other way round.  Exhaustive scans
are capped at coordinates <= 256; acceptance fixtures respect the cap.

The oracle classifies points without the pipeline's own routine
(`exact_core.point_in_region`): `IntMembership` classifies one point at a
time on denominator-cleared Python ints, with the same closed, half-open
rule, so a fault in either shows up as a disagreement.  Only what it
borrows from `exact_core` (`is_visible`, `region_interior_sample`) still
uses that routine inside.

Two concessions to speed, neither of which approximates anything.  The
inclusion check finds the inner x outer boundary events in one
bounding-box sweep instead of testing every edge pair twice; the sweep only
skips pairs whose boxes miss, and every predicate it runs stays exact.  A
vectorized integer kernel (numpy int64) does mass point classification.  It
evaluates the same exact predicates on denominator-cleared integers; a
magnitude guard falls back to `IntMembership` whenever int64 cannot hold
the products.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

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
    is_visible,
    pt,
    region_interior_sample,
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
# scaled-integer edge representation


def _point_ints(p: Pt) -> tuple[int, int, int]:
    """(nx, ny, d) with p == (nx/d, ny/d), d > 0."""
    xs = Fraction(p.x)
    ys = Fraction(p.y)
    d = math.lcm(xs.denominator, ys.denominator)
    return (int(xs.numerator * (d // xs.denominator)),
            int(ys.numerator * (d // ys.denominator)), d)


def _edge_ints(a: Pt, b: Pt) -> tuple[int, int, int, int, int, int]:
    n1x, n1y, d1 = _point_ints(a)
    n2x, n2y, d2 = _point_ints(b)
    return (n1x, n1y, d1, n2x, n2y, d2)


def _sq_dist_lt(edge: tuple[int, int, int, int, int, int],
                a: int, b: int, s: int, bound_num: int = 2,
                bound_den: int = 1) -> bool:
    """Exact test  dist((a/s, b/s), closed segment)^2 < bound  in pure ints."""
    n1x, n1y, d1, n2x, n2y, d2 = edge
    apx = a * d1 - s * n1x          # scaled by s*d1
    apy = b * d1 - s * n1y
    dx = n2x * d1 - n1x * d2        # scaled by d1*d2
    dy = n2y * d1 - n1y * d2
    if dx == 0 and dy == 0:
        return bound_den * (apx * apx + apy * apy) < bound_num * (s * d1) ** 2
    dot_ap = apx * dx + apy * dy
    if dot_ap <= 0:
        return bound_den * (apx * apx + apy * apy) < bound_num * (s * d1) ** 2
    len2 = dx * dx + dy * dy        # scaled by (d1*d2)^2
    # t >= 1  <=>  dot_ap / (s*d1^2*d2) >= len2 / (d1*d2)^2
    if dot_ap * d2 >= len2 * s:
        bpx = a * d2 - s * n2x
        bpy = b * d2 - s * n2y
        return bound_den * (bpx * bpx + bpy * bpy) < bound_num * (s * d2) ** 2
    c = apx * dy - apy * dx         # scaled by s*d1^2*d2
    return bound_den * c * c < bound_num * (s * d1) ** 2 * len2


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


# ---------------------------------------------------------------------------
# vectorized exact membership kernel

_INT64_GUARD = 2 ** 62


class RegionKernel:
    """Mass point-in-region classification on denominator-cleared integers.

    Every decision is an integer sign test; int64 is used only when a
    magnitude bound (computed in unbounded Python ints) proves no product
    can overflow.  Otherwise `usable` is False and callers take the scalar
    exact path.
    """

    def __init__(self, region: Region):
        self.region = region
        rows = [_edge_ints(a, b) for a, b in region.edges() if a != b]
        self.nedges = len(rows)
        if not rows:
            self.usable = True
            self._max_n = 1
            self._max_d = 1
            return
        arr = np.array(rows, dtype=object)
        self._max_n = max(1, int(max(abs(int(v)) for v in
                                     arr[:, [0, 1, 3, 4]].ravel())))
        self._max_d = max(1, int(max(int(v) for v in arr[:, [2, 5]].ravel())))
        self.n1x = arr[:, 0]
        self.n1y = arr[:, 1]
        self.d1 = arr[:, 2]
        self.n2x = arr[:, 3]
        self.n2y = arr[:, 4]
        self.d2 = arr[:, 5]
        maxU = 2 * self._max_n * self._max_d
        self._maxU = maxU
        self.usable = True
        try:
            self._i64 = tuple(np.array(col.astype(np.int64))
                              for col in (self.n1x, self.n1y, self.d1,
                                          self.n2x, self.n2y, self.d2))
            self._U = (self._i64[3] * self._i64[2]
                       - self._i64[0] * self._i64[5])
            self._Z = (self._i64[4] * self._i64[2]
                       - self._i64[1] * self._i64[5])
        except OverflowError:
            self.usable = False

    def _fits(self, max_coord_num: int, scale: int) -> bool:
        if self.nedges == 0:
            return True
        if not self.usable:
            return False
        max_vw = max_coord_num * self._max_d + scale * self._max_n
        return (self._maxU * max_vw * 2 < _INT64_GUARD
                and max_vw * max_vw < _INT64_GUARD)

    def classify(self, ax: np.ndarray, by: np.ndarray, scale: int
                 ) -> tuple[np.ndarray, np.ndarray]:
        """(inside_or_boundary, on_boundary) boolean arrays for (ax/scale, by/scale)."""
        ns = ax.shape[0]
        if self.nedges == 0:
            z = np.zeros(ns, dtype=bool)
            return z, z.copy()
        max_coord = int(max(np.abs(ax).max(initial=0),
                            np.abs(by).max(initial=0)))
        if not self._fits(max_coord, scale):
            scan = IntMembership(self.region)
            ins = np.zeros(ns, dtype=bool)
            onb = np.zeros(ns, dtype=bool)
            for i in range(ns):
                c = scan.classify(pt(Fraction(int(ax[i]), scale),
                                     Fraction(int(by[i]), scale)))
                ins[i] = c != EXTERIOR
                onb[i] = c == BOUNDARY
            return ins, onb
        n1x, n1y, d1, n2x, n2y, d2 = self._i64
        parity = np.zeros(ns, dtype=bool)
        onb = np.zeros(ns, dtype=bool)
        s = np.int64(scale)
        for i in range(self.nedges):
            V = by * d1[i] - s * n1y[i]
            V2 = by * d2[i] - s * n2y[i]
            W = ax * d1[i] - s * n1x[i]
            W2 = ax * d2[i] - s * n2x[i]
            F = self._U[i] * V - W * self._Z[i]
            onb |= (F == 0) & (W * W2 <= 0) & (V * V2 <= 0)
            up = (V >= 0) & (V2 < 0) & (F > 0)
            down = (V2 >= 0) & (V < 0) & (F < 0)
            parity ^= up | down
        return parity | onb, onb


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
    x0, y0, x1, y1 = region.bbox
    scan = IntMembership(region)
    best: Optional[tuple[Scalar, int, int]] = None
    for gx in range(math.ceil(x0), math.floor(x1) + 1):
        for gy in range(math.ceil(y0), math.floor(y1) + 1):
            g = Pt(gx, gy)
            if scan.classify(g) == EXTERIOR:
                continue
            if not is_visible(p, g, region):
                continue
            d = squared_point_distance(p, g)
            key = (d, gx, gy)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return Pt(best[1], best[2])


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
    segments: set[tuple[Pt, str]] = set()
    for g in points:
        for axis, other in (("h", Pt(g.x + 1, g.y)), ("v", Pt(g.x, g.y + 1))):
            if other in points and is_visible(g, other, region):
                segments.add((g, axis))
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
    inner_rows = _edge_rows(inner)
    outer_rows = _edge_rows(outer)
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


EdgeRow = tuple[Pt, Pt, Scalar, Scalar, Scalar, Scalar]


def _edge_rows(region: Region) -> list[EdgeRow]:
    """(a, b, xlo, xhi, ylo, yhi) per non-degenerate edge, in edges() order."""
    return [(a, b, min(a.x, b.x), max(a.x, b.x), min(a.y, b.y), max(a.y, b.y))
            for a, b in region.edges() if a != b]


def _sweep_events(rows_p: Sequence[EdgeRow], rows_q: Sequence[EdgeRow]
                  ) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Sorted parameters in (0, 1) where each edge meets the other side.

    Both edge lists are swept together by low x with one active list per
    side, as `arrangement.find_segment_intersections` sweeps the overlay's
    edges: each edge is tested only against the other side's active edges
    whose closed y-range overlaps its own, and every such pair is
    intersected once.  A common point of two closed segments lies in both
    closed bounding boxes, so no event is lost.
    """
    rows = (rows_p, rows_q)
    events: tuple[list[set[Fraction]], ...] = (
        [set() for _ in rows_p], [set() for _ in rows_q])
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
            a, b = rows_p[ip][:2]
            c, d = rows_q[iq][:2]
            for h in hit_points(segment_intersection((a, b), (c, d))):
                t = segment_param(a, b, h)
                if 0 < t < 1:
                    events[0][ip].add(t)
                u = segment_param(c, d, h)
                if 0 < u < 1:
                    events[1][iq].add(u)
        active[1 - side] = still
        active[side].append(i)
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

    Sampling is the only approximation; each comparison is exact.  The full
    1/`spacing` grid over the bounding box is covered by an exactly
    equivalent two-tier scheme: every fine sample within distance 2 of any
    boundary edge is tested directly, and any violation farther away than
    that implies an integer-grid violation (shift to the nearest lattice
    point changes the distance by at most sqrt(2)/2), which the integer
    tier tests exhaustively.
    """
    if not assume_inclusion:
        w = check_inclusion(small, big)
        if w is not None:
            raise PreconditionError(f"small is not included in big: {w}")
    if big.bbox is None:
        return None
    if spacing <= 0 or Fraction(spacing).numerator != 1:
        raise PreconditionError("spacing must be 1/m for an integer m")
    m = Fraction(spacing).denominator

    ref_region = big if mode == "inner" else small
    ref_edges = [(a, b) for a, b in ref_region.edges() if a != b]
    ref_ints = [_edge_ints(a, b) for a, b in ref_edges]
    ref_boxes = _edge_int_boxes(ref_edges)

    k_small = RegionKernel(small)
    k_big = RegionKernel(big)

    x0, y0, x1, y1 = big.bbox
    coarse = _grid_points(math.floor(x0), math.floor(y0),
                          math.ceil(x1), math.ceil(y1), 1)
    tiers = [(coarse, 1)]
    if m > 1:
        band = _band_points(small, big, m)
        tiers.append((band, m))

    for (ax, by), scale in tiers:
        if ax.size == 0:
            continue
        in_big, _ = k_big.classify(ax, by, scale)
        in_small, _ = k_small.classify(ax, by, scale)
        gap = in_big & ~in_small
        if not gap.any():
            continue
        gx = ax[gap]
        gy = by[gap]
        for i in range(gx.shape[0]):
            a = int(gx[i])
            b = int(gy[i])
            if not _near_ref(a, b, scale, ref_ints, ref_boxes):
                q = pt(Fraction(a, scale), Fraction(b, scale))
                return Witness("hausdorff", q,
                               f"sample in big\\small at squared distance >= 2 "
                               f"from {mode} reference boundary")
    return None


def _near_ref(a: int, b: int, s: int,
              ref_ints: Sequence[tuple[int, int, int, int, int, int]],
              ref_boxes: Sequence[tuple[int, int, int, int]]) -> bool:
    for e, (bx0, by0, bx1, by1) in zip(ref_ints, ref_boxes):
        # cheap integer bbox prescreen: squared bbox distance >= 2 rules out
        dx = max(0, bx0 * s - a, a - bx1 * s)
        dy = max(0, by0 * s - b, b - by1 * s)
        if dx * dx + dy * dy >= 2 * s * s:
            continue
        if _sq_dist_lt(e, a, b, s):
            return True
    return False


def _edge_int_boxes(edges: Sequence[tuple[Pt, Pt]]
                    ) -> list[tuple[int, int, int, int]]:
    out = []
    for a, b in edges:
        out.append((math.floor(min(a.x, b.x)), math.floor(min(a.y, b.y)),
                    math.ceil(max(a.x, b.x)), math.ceil(max(a.y, b.y))))
    return out


def _grid_points(x0: int, y0: int, x1: int, y1: int, m: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    xs = np.arange(x0 * m, x1 * m + 1, dtype=np.int64)
    ys = np.arange(y0 * m, y1 * m + 1, dtype=np.int64)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return gx.ravel(), gy.ravel()


def _band_points(small: Region, big: Region, m: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Fine samples within (conservatively over) distance 2 of any edge."""
    cells: set[tuple[int, int]] = set()
    for region in (small, big):
        for a, b in region.edges():
            if a == b:
                continue
            _edge_band_cells(a, b, cells)
    if not cells:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    sub = np.arange(m, dtype=np.int64)
    ox, oy = np.meshgrid(sub, sub, indexing="ij")
    ox = ox.ravel()
    oy = oy.ravel()
    carr = np.array(sorted(cells), dtype=np.int64)
    ax = (carr[:, 0][:, None] * m + ox[None, :]).ravel()
    by = (carr[:, 1][:, None] * m + oy[None, :]).ravel()
    return ax, by


def _edge_band_cells(a: Pt, b: Pt, cells: set[tuple[int, int]]) -> None:
    """Integer unit cells conservatively covering the radius-2 capsule.

    Walks the segment one unit cell per step along the dominant axis and
    pads by 3 cells; every point within distance 2 of the segment lies in
    one of the collected cells.
    """
    steep = abs(b.y - a.y) > abs(b.x - a.x)
    if steep:
        a, b = Pt(a.y, a.x), Pt(b.y, b.x)
    if a.x > b.x:
        a, b = b, a
    x0 = math.floor(a.x)
    x1 = math.floor(b.x)
    for cx in range(x0, x1 + 1):
        # y-range of the segment within this column (slope <= 1)
        if b.x == a.x:
            ys = [a.y, b.y]
        else:
            lo_x = max(Fraction(cx), Fraction(a.x))
            hi_x = min(Fraction(cx + 1), Fraction(b.x))
            t0 = Fraction(lo_x - a.x, b.x - a.x)
            t1 = Fraction(hi_x - a.x, b.x - a.x)
            ys = [a.y + t0 * (b.y - a.y), a.y + t1 * (b.y - a.y)]
        cy0 = math.floor(min(ys))
        cy1 = math.floor(max(ys))
        for cx2 in range(cx - 3, cx + 4):
            for cy in range(cy0 - 3, cy1 + 4):
                cells.add((cy, cx2) if steep else (cx2, cy))


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
        elif op == "difference":
            res = ia and not ib
        else:
            raise ValueError(f"unknown op {op!r}")
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
    """Pairs with any nonempty closed intersection (touch or overlap)."""
    n = 0
    for e1 in edges1:
        for e2 in edges2:
            if segment_intersection(e1, e2) is not None:
                n += 1
    return n
