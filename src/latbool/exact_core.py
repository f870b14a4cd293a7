"""Exact arithmetic primitives and the lattice-region data model.

Every coordinate is an arbitrary-precision integer or a reduced Fraction;
no float ever enters a predicate.  Closed-set semantics throughout: a point
"belongs" to a region when it lies in the interior or on the boundary.

The segment predicates (`orientation`, `point_on_segment`,
`segment_intersection`, `segments_cross_properly`, `segment_at`,
`segment_param`, `squared_distance` and `dot`), `squared_point_distance`,
`Ring.signed_area2` and `gap_midpoints` evaluate on Python ints, not in
Fraction arithmetic (exact integer evaluation, as in Fortune & Van Wyk,
SoCG 1993).  When every input coordinate is an int they use it as it is;
otherwise `_scaled` brings all of them to one common denominator k and they
work on the numerators.  A sign is the sign of one integer expression, with
no gcd.  A returned coordinate, distance or area is built once, by `_ratio`,
as an int when integral and as one Fraction otherwise, so every result
equals the plain Fraction formula's by value and by type.  `cross` keeps the
plain Fraction formula: only the oracle calls it, so the oracle's sign test
stays independent of this kernel.

Canonical form is linear work.  `Ring.canonical` drops repeated and straight
vertices in one pass and compares whole rotations only when its least vertex
occurs twice; `Region.canonical` re-traces the boundary only when some
vertex position is visited twice, the one case where a boundary has more
than one ring decomposition.

`orientation` and `dot` are also the pipeline's one turn predicate: the
rotation rule of `trace_cycles`, `point_in_region`,
`arrangement.vertex_convexity`, `decomposition.ConvexCell.contains` and
`_dir_in_sector`, and `rounding`'s reflex-removal checks
(`_removal_topology_ok`, `_strictly_in_triangle`) decide every turn with
them.  A collinear turn with `dot > 0` is a reversal.

`find_segment_intersections` is the pipeline's one segment-pair sweep: the
overlay (`arrangement`) cuts its edges at the hits, and `validate_region`
reads crossings and overlaps off them.  The exact checks that only tests
and the public API call (`is_visible`, `vertically_visible`) live in the
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

Scalar = Union[int, Fraction]

LEFT = 1
RIGHT = -1
COLLINEAR = 0

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"


class PreconditionError(ValueError):
    """A documented operation precondition was violated."""


class MarginError(PreconditionError):
    """Region does not fit the universe box with the required margin."""


class InternalInvariantError(AssertionError):
    """A verified guarantee failed: an implementation bug, never data."""


def _norm(v: Scalar) -> Scalar:
    """Canonicalize a scalar: integral Fractions become plain ints."""
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return v
    if isinstance(v, int):
        return v
    raise TypeError(f"exact scalar required, got {type(v).__name__}")


class Pt(NamedTuple):
    """A plane point with exact coordinates (int when integral)."""

    x: Scalar
    y: Scalar

    @property
    def is_lattice(self) -> bool:
        return isinstance(self.x, int) and isinstance(self.y, int)


def pt(x: Scalar, y: Scalar) -> Pt:
    return Pt(_norm(x), _norm(y))


def _scaled(*vs: Scalar) -> tuple[int, list[int]]:
    """A common denominator k of the scalars vs, and each v * k as an int.

    k is a product of their denominators, each multiplied in only when k is
    not already a multiple of it: a divisibility test, never a gcd.  Every
    predicate below is invariant under scaling all coordinates by k > 0, or
    divides its result by the matching power of k.
    """
    k = 1
    for v in vs:
        if type(v) is not int:
            q = v.denominator
            if k % q:
                k *= q
    return k, [v * k if type(v) is int else v.numerator * (k // v.denominator)
               for v in vs]


def _ratio(num: int, den: int) -> Scalar:
    """num / den as an exact scalar: an int when integral, else one Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def cross(o: Pt, a: Pt, b: Pt) -> Scalar:
    """Exact 2x2 determinant of (a-o, b-o), in plain Fraction arithmetic.

    The pipeline's predicates do not call it; it is the oracle's own sign
    test, kept apart from the integer kernel.
    """
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def dot(o: Pt, a: Pt, b: Pt) -> Scalar:
    """Exact (a-o) . (b-o); a Fraction when any coordinate is one."""
    (ox, oy), (ax, ay), (bx, by) = o, a, b
    k = 1
    if not (type(ox) is type(oy) is type(ax) is type(ay) is type(bx)
            is type(by) is int):
        k, (ox, oy, ax, ay, bx, by) = _scaled(ox, oy, ax, ay, bx, by)
    v = (ax - ox) * (bx - ox) + (ay - oy) * (by - oy)
    return v if k == 1 else Fraction(v, k * k)


def orientation(a: Pt, b: Pt, c: Pt) -> int:
    """Sign of the turn a->b->c: LEFT, RIGHT or COLLINEAR.  Never approximate."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    if not (type(ax) is type(ay) is type(bx) is type(by) is type(cx)
            is type(cy) is int):
        _, (ax, ay, bx, by, cx, cy) = _scaled(ax, ay, bx, by, cx, cy)
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if d > 0:
        return LEFT
    if d < 0:
        return RIGHT
    return COLLINEAR


def _on_collinear_segment(ax: int, ay: int, bx: int, by: int,
                          px: int, py: int) -> bool:
    """For p collinear with a-b (one common scale): is p within the closed
    segment?"""
    return ((ax <= px <= bx or bx <= px <= ax)
            and (ay <= py <= by or by <= py <= ay))


def point_on_segment(p: Pt, a: Pt, b: Pt) -> bool:
    (px, py), (ax, ay), (bx, by) = p, a, b
    if not (type(px) is type(py) is type(ax) is type(ay) is type(bx)
            is type(by) is int):
        _, (px, py, ax, ay, bx, by) = _scaled(px, py, ax, ay, bx, by)
    return ((bx - ax) * (py - ay) == (by - ay) * (px - ax)
            and _on_collinear_segment(ax, ay, bx, by, px, py))


def segment_intersection(
    s: tuple[Pt, Pt], t: tuple[Pt, Pt]
) -> Union[None, Pt, tuple[Pt, Pt]]:
    """Exact intersection of two non-degenerate closed segments.

    Returns None, a single Pt (includes endpoint touching), or the
    (Pt, Pt) overlap sub-segment for collinear overlapping input.
    """
    a, b = s
    c, d = t
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = a, b, c, d
    k = 1
    if not (type(ax) is type(ay) is type(bx) is type(by) is type(cx)
            is type(cy) is type(dx) is type(dy) is int):
        k, (ax, ay, bx, by, cx, cy, dx, dy) = _scaled(
            ax, ay, bx, by, cx, cy, dx, dy)
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    if (rx == 0 and ry == 0) or (sx == 0 and sy == 0):
        raise PreconditionError("degenerate segment")
    # the turns a->b->c, a->b->d, c->d->a and c->d->b
    o1 = rx * (cy - ay) - ry * (cx - ax)
    o2 = rx * (dy - ay) - ry * (dx - ax)
    o3 = sx * (ay - cy) - sy * (ax - cx)
    o4 = sx * (by - cy) - sy * (bx - cx)

    if o1 == 0 and o2 == 0:
        # collinear: overlap interval by lexicographic order along the line
        ka, kb, kc, kd = (ax, ay), (bx, by), (cx, cy), (dx, dy)
        lo1, hi1 = ((ka, a), (kb, b)) if ka <= kb else ((kb, b), (ka, a))
        lo2, hi2 = ((kc, c), (kd, d)) if kc <= kd else ((kd, d), (kc, c))
        lo = lo2 if lo2[0] > lo1[0] else lo1
        hi = hi2 if hi2[0] < hi1[0] else hi1
        if lo[0] > hi[0]:
            return None
        if lo[0] == hi[0]:
            return lo[1]
        return (lo[1], hi[1])

    if (o1 < 0 < o2 or o2 < 0 < o1) and (o3 < 0 < o4 or o4 < 0 < o3):
        # proper crossing: one point interior to both segments
        den = rx * sy - ry * sx
        u = (cx - ax) * sy - (cy - ay) * sx
        return Pt(_ratio(ax * den + u * rx, den * k),
                  _ratio(ay * den + u * ry, den * k))

    # an endpoint of one segment on the other, with or without a sign change
    if o1 == 0 and _on_collinear_segment(ax, ay, bx, by, cx, cy):
        return c
    if o2 == 0 and _on_collinear_segment(ax, ay, bx, by, dx, dy):
        return d
    if o3 == 0 and _on_collinear_segment(cx, cy, dx, dy, ax, ay):
        return a
    if o4 == 0 and _on_collinear_segment(cx, cy, dx, dy, bx, by):
        return b
    return None


def hit_points(hit: Union[None, Pt, tuple[Pt, Pt]]) -> tuple[Pt, ...]:
    """Normalize a segment_intersection result to a tuple of points."""
    if hit is None:
        return ()
    if isinstance(hit, Pt):
        return (hit,)
    return hit


def segments_cross_properly(s: tuple[Pt, Pt], t: tuple[Pt, Pt]) -> bool:
    """True iff the segments intersect in one point interior to both."""
    (ax, ay), (bx, by) = s
    (cx, cy), (dx, dy) = t
    if not (type(ax) is type(ay) is type(bx) is type(by) is type(cx)
            is type(cy) is type(dx) is type(dy) is int):
        _, (ax, ay, bx, by, cx, cy, dx, dy) = _scaled(
            ax, ay, bx, by, cx, cy, dx, dy)
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    o1 = rx * (cy - ay) - ry * (cx - ax)
    o2 = rx * (dy - ay) - ry * (dx - ax)
    o3 = sx * (ay - cy) - sy * (ax - cx)
    o4 = sx * (by - cy) - sy * (bx - cx)
    return (o1 < 0 < o2 or o2 < 0 < o1) and (o3 < 0 < o4 or o4 < 0 < o3)


def squared_distance(p: Pt, seg: tuple[Pt, Pt]) -> Scalar:
    """Exact squared Euclidean distance from p to a closed segment.

    All sqrt(2) comparisons in the pipeline reduce to `squared_distance < 2`.
    """
    (px, py), ((ax, ay), (bx, by)) = p, seg
    k = 1
    if not (type(px) is type(py) is type(ax) is type(ay) is type(bx)
            is type(by) is int):
        k, (px, py, ax, ay, bx, by) = _scaled(px, py, ax, ay, bx, by)
    abx, aby = bx - ax, by - ay
    if abx == 0 and aby == 0:
        raise PreconditionError("degenerate segment")
    apx, apy = px - ax, py - ay
    ab2 = abx * abx + aby * aby
    t_num = apx * abx + apy * aby
    k2 = k * k
    if t_num <= 0:
        return _ratio(apx * apx + apy * apy, k2)
    if t_num >= ab2:
        bpx, bpy = px - bx, py - by
        return _ratio(bpx * bpx + bpy * bpy, k2)
    c = apx * aby - apy * abx
    return _ratio(c * c, ab2 * k2)


def squared_point_distance(p: Pt, q: Pt) -> Scalar:
    (px, py), (qx, qy) = p, q
    k = 1
    if not (type(px) is type(py) is type(qx) is type(qy) is int):
        k, (px, py, qx, qy) = _scaled(px, py, qx, qy)
    dx, dy = px - qx, py - qy
    return _ratio(dx * dx + dy * dy, k * k)


def segment_at(a: Pt, b: Pt, v: Scalar, axis: int = 0) -> tuple[Scalar, ...]:
    """Where the closed segment a-b meets the line p[axis] == v.

    With axis 0 the line is x = v and the result holds y-values; with
    axis 1 it is y = v and the result holds x-values.  A segment lying on
    the line gives both endpoints, one meeting it gives one value, one
    missing it gives none.
    """
    u = 1 - axis
    a0, a1, b0, b1 = a[axis], a[u], b[axis], b[u]
    k = 1
    if not (type(a0) is type(a1) is type(b0) is type(b1) is type(v) is int):
        k, (a0, a1, b0, b1, v) = _scaled(a0, a1, b0, b1, v)
    if a0 == b0:
        return (a[u], b[u]) if a0 == v else ()
    if a0 > b0:
        a0, a1, b0, b1 = b0, b1, a0, a1
    if not a0 <= v <= b0:
        return ()
    return (_ratio(a1 * (b0 - a0) + (v - a0) * (b1 - a1), (b0 - a0) * k),)


def segment_param(a: Pt, b: Pt, p: Pt) -> Fraction:
    """The t with p = a + t (b - a), for p on the line through a-b."""
    (ax, ay), (bx, by), (px, py) = a, b, p
    if not (type(ax) is type(ay) is type(bx) is type(by) is type(px)
            is type(py) is int):
        _, (ax, ay, bx, by, px, py) = _scaled(ax, ay, bx, by, px, py)
    if bx != ax:
        return Fraction(px - ax, bx - ax)
    return Fraction(py - ay, by - ay)


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


# ---------------------------------------------------------------------------
# rings and regions


@dataclass(frozen=True)
class Ring:
    """A cyclic vertex list.  CCW rings bound filled area, CW rings holes.

    Degenerate (zero-area) rings are representable; they model unit-segment
    "pixels" and survive as flagged obstacles, never as ordinary area.
    """

    pts: tuple[Pt, ...]

    @cached_property
    def signed_area2(self) -> Scalar:
        k, c = _scaled(*[v for p in self.pts for v in p])
        xs, ys = c[0::2], c[1::2]
        a = sum(x0 * y1 - x1 * y0 for x0, y0, x1, y1
                in zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1]))
        return _ratio(a, k * k)

    @property
    def is_ccw(self) -> bool:
        return self.signed_area2 > 0

    @property
    def is_degenerate(self) -> bool:
        return self.signed_area2 == 0

    @cached_property
    def bbox(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        if not self.pts:
            raise PreconditionError("an empty ring has no bounding box")
        xs = [p.x for p in self.pts]
        ys = [p.y for p in self.pts]
        return (min(xs), min(ys), max(xs), max(ys))

    def edges(self) -> Iterator[tuple[Pt, Pt]]:
        return zip(self.pts, self.pts[1:] + self.pts[:1])

    def reversed_(self) -> "Ring":
        return Ring(tuple(reversed(self.pts)))

    def canonical(self) -> "Ring":
        """Drop repeated and straight vertices, rotate to the lex-min start.

        A straight vertex lies strictly between its neighbours.  Removing one
        leaves the directions from each neighbour to its new neighbour as
        they were, so whether a vertex is straight never depends on which
        others are gone, and one filter drops them all.  Exact reversals
        (out-and-back spurs) are preserved: they are genuine degenerate
        geometry, not representational noise.
        """
        out: list[Pt] = []
        for p in self.pts:
            if not out or out[-1] != p:
                out.append(p)
        while len(out) > 1 and out[0] == out[-1]:
            out.pop()
        out = [b for a, b, c in zip(out[-1:] + out[:-1], out,
                                    out[1:] + out[:1])
               if orientation(a, b, c) != COLLINEAR or dot(b, a, c) >= 0]
        if len(out) < 2:
            return Ring(tuple(out))
        start = out.index(min(out))
        if out.count(out[start]) > 1:
            start = min((i for i, p in enumerate(out) if p == out[start]),
                        key=lambda i: out[i:] + out[:i])
        return Ring(tuple(out[start:] + out[:start]))

    def collapse_spurs(self) -> "Ring":
        """Remove out-and-back reversal spurs (a->b->a patterns)."""
        out = list(self.pts)
        changed = True
        while changed and len(out) >= 2:
            changed = False
            for i in range(len(out)):
                a = out[i - 1]
                c = out[(i + 1) % len(out)]
                if a == c:
                    # drop the spur tip and one copy of the repeated vertex
                    j = (i + 1) % len(out)
                    for k in sorted({i, j}, reverse=True):
                        del out[k]
                    changed = True
                    break
        return Ring(tuple(out)).canonical()


@dataclass(frozen=True)
class Region:
    """A collection of oriented rings with nesting derived by containment."""

    rings: tuple[Ring, ...]

    @property
    def is_empty(self) -> bool:
        return not self.rings

    @cached_property
    def bbox(self) -> Optional[tuple[Scalar, Scalar, Scalar, Scalar]]:
        if not self.rings:
            return None
        boxes = [r.bbox for r in self.rings]
        return (min(b[0] for b in boxes), min(b[1] for b in boxes),
                max(b[2] for b in boxes), max(b[3] for b in boxes))

    def edges(self) -> Iterator[tuple[Pt, Pt]]:
        for r in self.rings:
            yield from r.edges()

    def edge_list(self) -> list[tuple[Pt, Pt]]:
        return list(self.edges())

    def vertex_positions(self) -> set[Pt]:
        return {p for r in self.rings for p in r.pts}

    def vertex_count(self) -> int:
        """Number of distinct vertices (the |P| of all size bounds)."""
        return len(self.vertex_positions())

    @cached_property
    def _enclosing(self) -> tuple[tuple[int, ...], ...]:
        """For each ring, the indices of the rings strictly enclosing it;
        the length of a ring's list is its nesting depth."""
        return tuple(tuple(j for j, outer in enumerate(self.rings)
                           if j != i and _ring_encloses(outer, ring))
                     for i, ring in enumerate(self.rings))

    @cached_property
    def parents(self) -> tuple[Optional[int], ...]:
        """Index of the innermost ring strictly enclosing each ring."""
        enc = self._enclosing
        return tuple(max(js, key=lambda j: len(enc[j])) if js else None
                     for js in enc)

    def canonical(self) -> "Region":
        """Canonical rings in lexicographic order.

        Where a vertex position is visited twice, the directed edges are
        re-traced; with every position distinct each vertex has one
        outgoing edge, and re-tracing would return the same rings.  That
        does not make the form unique for a point set: a vertex can also
        lie inside another edge, and the same boundary then has a listing
        without the split, whose positions are all distinct.  The exact
        difference of corpus pair rand-166 is 4 rings, (18, 12) and
        (17, 16) each visited twice; its outer rounding is the same closed
        set as 2 rings, with (18, 12) inside the edge (18, 11)-(18, 16) and
        (17, 16) inside (18, 16)-(15, 16), and both are fixed points.
        """
        rings = [r for r in (r.canonical() for r in self.rings)
                 if len(r.pts) >= 2]
        visits = sum(len(r.pts) for r in rings)
        if len({p for r in rings for p in r.pts}) < visits:
            rings = _retrace_rings(rings)
        rings.sort(key=lambda r: r.pts)
        return Region(tuple(rings))


def _next_out(u: Pt, v: Pt, outs: list[tuple[Pt, int]]) -> tuple[Pt, int]:
    """Outgoing edge continuing the face on the left of the arrival edge u->v.

    Standard rotation rule: the largest counterclockwise angle, measured
    from the direction back to u, keeps the traced face on the left.  An
    outgoing edge parallel to the way back (the doubled copy of a crack
    edge) ranks last; at a crack tip it is the only option and the trace
    correctly reverses.
    """
    if len(outs) == 1:
        return outs[0]
    best: Optional[tuple[Pt, int]] = None
    best_rank = 3
    for w, eid in outs:
        turn = orientation(v, u, w)
        ahead = dot(v, u, w) if turn == COLLINEAR else 0
        # rank 0: angle from the way back in [pi, 2pi); 1: in (0, pi);
        # 2: along the way back
        rank = 2 if ahead > 0 else 1 if turn == LEFT else 0
        if rank < best_rank or (rank == best_rank < 2
                                and orientation(v, best[0], w) == LEFT):
            best, best_rank = (w, eid), rank
    if best is None:
        raise InternalInvariantError("dangling vertex during boundary tracing")
    return best


def trace_cycles(directed: list[tuple[Pt, Pt]]) -> list[list[Pt]]:
    """Decompose interior-on-the-left directed edges into boundary cycles."""
    outs: dict[Pt, list[tuple[Pt, int]]] = {}
    for eid, (u, v) in enumerate(directed):
        outs.setdefault(u, []).append((v, eid))
    for v in outs:
        outs[v].sort(key=lambda t: (t[0], t[1]))
    used = [False] * len(directed)
    cycles: list[list[Pt]] = []
    order = sorted(range(len(directed)), key=lambda i: directed[i])
    for start in order:
        if used[start]:
            continue
        cycle: list[Pt] = []
        eid = start
        while not used[eid]:
            used[eid] = True
            u, v = directed[eid]
            cycle.append(u)
            _, eid = _next_out(u, v, outs.get(v, []))
        if eid != start:
            raise InternalInvariantError(
                "boundary tracing did not close a cycle")
        cycles.append(cycle)
    return cycles


def _retrace_rings(rings: list[Ring]) -> list[Ring]:
    """Canonical ring structure: re-trace the directed edge set.

    Pinch vertices may be represented as one ring visiting twice or as two
    touching rings; the rotation rule picks one canonical decomposition.
    Falls back to the input when directed edges are not unique (then the
    region is invalid anyway and validation will say so).
    """
    directed: list[tuple[Pt, Pt]] = []
    for r in rings:
        for a, b in r.edges():
            if a != b:
                directed.append((a, b))
    if len(set(directed)) != len(directed):
        return rings
    try:
        cycles = trace_cycles(directed)
    except InternalInvariantError:
        return rings
    out = [Ring(tuple(c)).canonical() for c in cycles]
    return [r for r in out if len(r.pts) >= 2]


def _ring_encloses(outer: Ring, inner: Ring) -> bool:
    """Does `outer` enclose `inner`'s area (boundaries not properly crossing)?

    Decided by the first boundary sample of `inner` that is off `outer`'s
    boundary; shared boundary pieces are skipped.  A vertex outside
    `outer`'s bounding box is exterior, so it decides without a
    `point_in_region` call.
    """
    if outer.is_degenerate:
        return False
    region = Region((outer,))
    x0, y0, x1, y1 = outer.bbox
    for v in inner.pts:
        if not (x0 <= v.x <= x1 and y0 <= v.y <= y1):
            return False
        c = point_in_region(v, region)
        if c != BOUNDARY:
            return c == INTERIOR
    for a, b in inner.edges():
        if a == b:
            continue
        m = pt(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))
        c = point_in_region(m, region)
        if c != BOUNDARY:
            return c == INTERIOR
    return False


def point_in_region(p: Pt, region: Region) -> str:
    """Exact closed-set classification of p against a region.

    One pass over the edges: an edge whose closed y-range misses p.y is
    skipped before any multiplication, a horizontal edge at p.y is an
    interval test, and every other edge gets one `orientation` test that
    decides both whether p is on it and whether the rightward ray from p
    crosses it (half-open rule lo.y <= p.y < hi.y).  Even-odd parity; valid
    nested regions make this equivalent to the winding rule.  Doubled
    (crack) edges cancel, which is the intended reading for degenerate
    rings.
    """
    px, py = p
    inside = False
    for a, b in region.edges():
        if a.y > b.y:
            a, b = b, a
        if not a.y <= py <= b.y:
            continue
        if a.y == b.y:
            if a.x != b.x and min(a.x, b.x) <= px <= max(a.x, b.x):
                return BOUNDARY
            continue
        turn = orientation(a, b, p)
        if turn == COLLINEAR:
            return BOUNDARY
        if turn == LEFT and py < b.y:
            inside = not inside
    return INTERIOR if inside else EXTERIOR


def gap_midpoints(p: Pt, q: Pt, events: list[Fraction]) -> Iterator[Pt]:
    """Midpoints of the pieces of pq cut at the sorted parameters `events`."""
    k, (px, py, qx, qy) = _scaled(*p, *q)
    ts = [0, *events, 1]
    for t0, t1 in zip(ts, ts[1:]):
        # the midpoint's parameter is n / d
        n = t0.numerator * t1.denominator + t1.numerator * t0.denominator
        d = 2 * t0.denominator * t1.denominator
        yield Pt(_ratio(px * d + n * (qx - px), d * k),
                 _ratio(py * d + n * (qy - py), d * k))


# ---------------------------------------------------------------------------
# universe box and complement


class UniverseBox(NamedTuple):
    """Finite integer box standing in for the plane in complements."""

    min: Pt
    max: Pt

    def ring(self) -> Ring:
        (x0, y0), (x1, y1) = self.min, self.max
        return Ring((Pt(x0, y0), Pt(x1, y0), Pt(x1, y1), Pt(x0, y1)))

    def contains_with_margin(self, region: Region, margin: int = 3) -> bool:
        if region.is_empty:
            return True
        x0, y0, x1, y1 = region.bbox
        return (self.min.x + margin <= x0 and self.min.y + margin <= y0
                and x1 <= self.max.x - margin and y1 <= self.max.y - margin)


def universe_for(regions: Iterable[Region], margin: int = 3) -> UniverseBox:
    """Smallest integer box covering the operands with the given margin."""
    xs: list[Scalar] = []
    ys: list[Scalar] = []
    for r in regions:
        if r.bbox is not None:
            x0, y0, x1, y1 = r.bbox
            xs.extend([x0, x1])
            ys.extend([y0, y1])
    if not xs:
        return UniverseBox(Pt(-margin, -margin), Pt(margin, margin))
    return UniverseBox(
        Pt(math.floor(min(xs)) - margin, math.floor(min(ys)) - margin),
        Pt(math.ceil(max(xs)) + margin, math.ceil(max(ys)) + margin),
    )


def complement_in_universe(region: Region, box: UniverseBox, margin: int = 3) -> Region:
    """closure(box \\ region).  The box boundary becomes the outer ring.

    An involution: complementing twice gives back the canonical region.
    Identical rings of opposite orientation (the box ring reappearing)
    cancel instead of stacking.
    """
    if not box.contains_with_margin(region, margin):
        raise MarginError(f"region must keep a margin of {margin} inside the box")
    rings = [box.ring()] + [r.reversed_() for r in region.rings]
    return cancel_reversed_pairs(r.canonical() for r in rings)


def cancel_reversed_pairs(rings: Iterable[Ring]) -> Region:
    """The canonical region of `rings` after each ring that repeats an
    earlier one reversed (a filled/hole pair with zero area between them)
    cancels it.  Degenerate rings never cancel.

    The rings are canonical, as both callers pass them.  A canonical ring
    and its reversed canonical copy have the same length, so the copy is
    built only when a kept ring has that length."""
    out: list[Ring] = []
    for r in rings:
        n = len(r.pts)
        if not r.is_degenerate and any(len(e.pts) == n for e in out):
            rev = r.reversed_().canonical()
            for i, existing in enumerate(out):
                if existing.pts == rev.pts:
                    del out[i]
                    break
            else:
                out.append(r)
        else:
            out.append(r)
    return Region(tuple(out)).canonical()


# ---------------------------------------------------------------------------
# validation


class Violation(NamedTuple):
    kind: str
    detail: str
    severity: str  # "error" | "degenerate"


def validate_region(region: Region) -> list[Violation]:
    """Check Ring/Region invariants exactly; returns the full violation list.

    Vertex-on-vertex and vertex-on-edge incidences are allowed; proper edge
    crossings and broken nesting are errors.  Zero-area rings and reversal
    spurs are flagged as `degenerate`, not invalid.  The edge pairs that
    meet come from the overlay's sweep (`find_segment_intersections`) and
    are reported in the order of a double loop over the edges.
    """
    out: list[Violation] = []
    edges: list[tuple[int, int, Pt, Pt]] = []
    for ri, ring in enumerate(region.rings):
        if len(ring.pts) < 2:
            out.append(Violation("ring-size", f"ring {ri} has <2 vertices", "error"))
            continue
        for ei, (a, b) in enumerate(ring.edges()):
            if a == b:
                out.append(Violation(
                    "repeated-vertex", f"ring {ri} edge {ei} is a point", "error"))
            else:
                edges.append((ri, ei, a, b))
        if ring.is_degenerate:
            out.append(Violation(
                "degenerate", f"ring {ri} has zero area", "degenerate"))

    hits = find_segment_intersections([(a, b) for _, _, a, b in edges])
    for i, j, hit in sorted(hits, key=lambda h: h[:2]):
        ri, ei, a, b = edges[i]
        rj, ej, c, d = edges[j]
        if isinstance(hit, Pt):
            if segments_cross_properly((a, b), (c, d)):
                out.append(Violation(
                    "proper-crossing",
                    f"ring {ri} edge {ei} crosses ring {rj} edge {ej}",
                    "error"))
        elif not (region.rings[ri].is_degenerate
                  or region.rings[rj].is_degenerate):
            # anti-parallel doubling is a zero-width pinch: parity stays
            # consistent; same-direction doubling breaks it.  The edges are
            # collinear, so they run opposite ways exactly when their
            # lexicographic directions differ.
            anti = (a < b) != (c < d)
            out.append(Violation(
                "edge-overlap",
                f"ring {ri} edge {ei} overlaps ring {rj} edge {ej}",
                "degenerate" if anti else "error"))

    if not any(v.severity == "error" for v in out):
        # orientation must match nesting depth: even depth CCW, odd CW
        for ri, ring in enumerate(region.rings):
            if ring.is_degenerate:
                continue
            depth = len(region._enclosing[ri])
            if depth % 2 == 0 and not ring.is_ccw:
                out.append(Violation(
                    "orientation", f"ring {ri} at depth {depth} must be CCW", "error"))
            if depth % 2 == 1 and ring.is_ccw:
                out.append(Violation(
                    "orientation", f"ring {ri} at depth {depth} must be CW", "error"))
            parent = region.parents[ri]
            if depth % 2 == 1 and parent is None:
                out.append(Violation(
                    "nesting", f"hole ring {ri} has no enclosing ring", "error"))
    return out


def region_ok(region: Region) -> bool:
    return not any(v.severity == "error" for v in validate_region(region))
