"""Independent ground truth that certifies the pipeline's answers.

`sandwich` checks its inclusion chain with `check_inclusion`; `verify`'s
checklist adds `check_hausdorff`, `intersecting_pairs` and the interior
probe `region_interior_sample`.  The checks are deliberately simple: dense
grid sampling and per-edge scans.  The pipeline is judged against this
module, never the other way round.

The oracle classifies points without the pipeline's own routine
(`exact_core.point_in_region`): `IntMembership` classifies one point at a
time on denominator-cleared Python ints, with the same closed, half-open
rule, so a fault in either shows up as a disagreement.  The oracle's
visibility test (`_visible`) and interior probe classify with it too, and
so does the public `is_visible` (is a closed segment inside a region?).
The exhaustive references that only the tests compare against (brute
nearest lattice points, the lattice closure, sampled Boolean truth,
per-pair vertical visibility) are built on these routines in
`tests/brute.py`.

Four concessions to speed; none approximates anything, and each skips only
work whose outcome is known.  The inclusion check, the visibility tests and
the edge-pair count (`intersecting_pairs`) run in an integer frame: both
sides are scaled once by the lcm s of their denominators, each event
parameter is a ratio of one pair's integer cross products (`_meet`), and
gap midpoints stay homogeneous ints (`classify_h`), so a Pt is built only
for a witness.  They find meeting edges in one bounding-box sweep
(`_sweep_pairs`) instead of testing every edge pair; the sweep only skips
pairs whose boxes miss.  The interior probe shoots on the integer edges
that its `IntMembership` holds, and builds a Pt only for the probe it
returns.  The inclusion check skips an edge that the other region lists
too, since each of its points is on that region's boundary, and
intersects no pair of two such edges.  The Hausdorff check sweeps up
the sample rows with the integer edges active at each row, reads the row's
membership off them as ranges of sample indices (`_row_ranges`,
`classify`'s rule evaluated for a whole row at once), tests a sample only
against the reference edges near it, and skips the rows on which both
regions have the same edges.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .exact_core import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    PreconditionError,
    Pt,
    Region,
    Ring,
    _ratio,
    pt,
)


class Witness(NamedTuple):
    """A replayable counterexample: re-evaluating it reproduces the failure."""

    kind: str
    point: Optional[Pt]
    context: str


# ---------------------------------------------------------------------------
# scalar exact membership


def _denominators_lcm(points: Iterable[Pt]) -> int:
    """The least s > 0 that clears every denominator of the points."""
    return math.lcm(*(c.denominator for p in points for c in p))


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
        self._scale = _denominators_lcm(p for r in region.rings for p in r.pts)
        self._edges = [(ax, ay, bx, by) if (ay, ax) <= (by, bx)
                       else (bx, by, ax, ay) for _, _, ax, ay, bx, by
                       in _edge_rows(region.edges(), self._scale)]

    def classify(self, p: Pt) -> str:
        (x, y), w = p, math.lcm(p.x.denominator, p.y.denominator)
        return self.classify_h(x.numerator * (w // x.denominator),
                               y.numerator * (w // y.denominator), w)

    def classify_h(self, x: int, y: int, w: int) -> str:
        """`classify` of the point (x / w, y / w), for ints x, y, w > 0."""
        common = math.lcm(self._scale, w)
        f = common // self._scale
        px, py = x * (common // w), y * (common // w)
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


def _visible(segments: Sequence[tuple[Pt, Pt]], region: Region,
             scan: IntMembership) -> list[bool]:
    """Which closed segments pq, p != q and both ends in the region, lie in
    it.

    Grazing contact with the boundary does not block visibility.  One
    `_sweep_events` pass cuts every open segment at its events against the
    region's edges, and each gap midpoint must not be exterior.
    """
    s = math.lcm(scan._scale, _denominators_lcm(p for e in segments for p in e))
    rows, edges = _edge_rows(segments, s), _edge_rows(region.edges(), s)
    events, _ = _sweep_events(rows, edges, [False] * len(rows),
                              [True] * len(edges))
    return [all(scan.classify_h(x, y, w * s) != EXTERIOR
                for x, y, w in _gap_midpoints(row, ts))
            for row, ts in zip(rows, events)]


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


# ---------------------------------------------------------------------------
# inclusion


def check_inclusion(inner: Region, outer: Region) -> Optional[Witness]:
    """Exact containment check: inner subseteq outer (closed sets).

    Every boundary edge of `inner` is cut at its events against the outer
    boundary and each gap midpoint must not be exterior; symmetrically no
    outer boundary piece may run through the interior of `inner`; finally
    one interior probe per filled inner ring must land inside `outer`.
    The events of both sides come from one sweep (`_sweep_events`) in the
    frame of both regions.  An edge that the other region lists too holds
    no witness and is skipped.
    """
    in_inner, in_outer = IntMembership(inner), IntMembership(outer)
    s = math.lcm(in_inner._scale, in_outer._scale)
    rows = (_edge_rows(inner.edges(), s), _edge_rows(outer.edges(), s))
    keys = [[frozenset((r[2:4], r[4:])) for r in side] for side in rows]
    shared = set(keys[0]).intersection(keys[1])
    skip = [[key in shared for key in side] for side in keys]
    events = _sweep_events(*rows, *skip)
    inside: set[tuple[int, int]] = set()
    for row, skipped, ts in zip(rows[0], skip[0], events[0]):
        if skipped:
            continue
        a, b, ax, ay, bx, by = row
        for v, x, y in ((a, ax, ay), (b, bx, by)):
            if (x, y) in inside:
                continue
            if in_outer.classify_h(x, y, s) == EXTERIOR:
                return Witness("vertex-outside", v, "inner vertex outside outer")
            inside.add((x, y))
        for x, y, w in _gap_midpoints(row, ts):
            if in_outer.classify_h(x, y, w * s) == EXTERIOR:
                m = Pt(_ratio(x, w * s), _ratio(y, w * s))
                return Witness("edge-outside", m,
                               f"inner edge {a}-{b} leaves outer")
    for row, skipped, ts in zip(rows[1], skip[1], events[1]):
        if skipped:
            continue
        for x, y, w in _gap_midpoints(row, ts):
            if in_inner.classify_h(x, y, w * s) == INTERIOR:
                a, b = row[:2]
                m = Pt(_ratio(x, w * s), _ratio(y, w * s))
                return Witness("boundary-swallowed", m,
                               f"outer edge {a}-{b} runs through inner interior")
    for ring in inner.rings:
        if ring.is_degenerate or not ring.is_ccw:
            continue
        probe = region_interior_sample(ring, in_inner)
        if probe is not None and in_outer.classify(probe) == EXTERIOR:
            return Witness("component-outside", probe,
                           "inner component sample outside outer")
    return None


def region_interior_sample(ring: Ring, scan: IntMembership) -> Optional[Pt]:
    """A point strictly interior to a region, adjacent to one of its rings.

    `scan` classifies against the region and `ring` is one of its rings.
    Mid-edge vertical shooting against the whole boundary: the half-way
    point to the first hit lies inside one face of the region; a filled
    ring has the region's interior on one side of each edge.  A side
    without a hit is unbounded, so exterior.  The shots run on the scan's
    integer edges, in its frame of scale s: the midpoint is (mx, my) / 2, a
    hit is a ratio n / q, and the probe stays homogeneous until it is
    returned.
    """
    s = scan._scale
    for a, b in ring.edges():
        if a.x == b.x:
            continue
        # scaled lazily: the first edge or two usually give the probe
        (ax, ay), (bx, by) = ((c * s if type(c) is int
                               else c.numerator * (s // c.denominator)
                               for c in q) for q in (a, b))
        mx, my = ax + bx, ay + by
        up = down = None    # the nearest hit (n, q) above and below
        for cx, cy, dx, dy in scan._edges:
            if cx == dx:
                if 2 * cx != mx:
                    continue
                hits = ((cy, 1), (dy, 1))
            else:
                if cx > dx:
                    cx, cy, dx, dy = dx, dy, cx, cy
                if not 2 * cx <= mx <= 2 * dx:
                    continue
                hits = ((2 * cy * (dx - cx) + (mx - 2 * cx) * (dy - cy),
                         2 * (dx - cx)),)
            for n, q in hits:
                side = 2 * n - my * q
                if side > 0 and (up is None or n * up[1] < up[0] * q):
                    up = (n, q)
                elif side < 0 and (down is None or n * down[1] > down[0] * q):
                    down = (n, q)
        for hit in (up, down):
            if hit is not None:
                n, q = hit
                # (mx / 2, (my / 2 + n / q) / 2), times 4q, over the scale
                x, y, w = 2 * q * mx, q * my + 2 * n, 4 * q * s
                if scan.classify_h(x, y, w) == INTERIOR:
                    return Pt(_ratio(x, w), _ratio(y, w))
    return None


# (a, b, ax, ay, bx, by): an edge a-b and its ends times a frame scale s
EdgeRow = tuple[Pt, Pt, int, int, int, int]


def _edge_rows(edges: Iterable[tuple[Pt, Pt]], s: int) -> list[EdgeRow]:
    """One `EdgeRow` per non-degenerate edge, in order; s must clear every
    denominator."""
    if s == 1:
        return [(a, b, *a, *b) for a, b in edges if a != b]
    return [(a, b, *[c * s if type(c) is int
                     else c.numerator * (s // c.denominator) for c in (*a, *b)])
            for a, b in edges if a != b]


def _gap_midpoints(row: EdgeRow, events: Sequence[Fraction]
                   ) -> Iterator[tuple[int, int, int]]:
    """(x, y, w) with (x / w, y / w) the midpoint, in the row's frame, of
    each piece of the edge cut at the sorted parameters `events`."""
    ax, ay, bx, by = row[2:]
    ts = [0, *events, 1]
    for t0, t1 in zip(ts, ts[1:]):
        # the midpoint's parameter is n / w
        n = t0.numerator * t1.denominator + t1.numerator * t0.denominator
        w = 2 * t0.denominator * t1.denominator
        yield ax * w + n * (bx - ax), ay * w + n * (by - ay), w


def _meet(p: EdgeRow, q: EdgeRow
          ) -> Optional[tuple[list[Fraction], list[Fraction]]]:
    """None if the closed edges p and q are apart, else the parameters in
    (0, 1), along p and along q, of the ends of their common part.

    With o1, o2 the turns of q's ends about p and o3, o4 those of p's ends
    about q, crossing lines meet at t = o3 / (o3 - o4) along p and
    u = o1 / (o1 - o2) along q; collinear edges compare their ends on x
    (on y for a vertical line)."""
    ax, ay, bx, by = p[2:]
    cx, cy, dx, dy = q[2:]
    rx, ry, sx, sy = bx - ax, by - ay, dx - cx, dy - cy
    o1 = rx * (cy - ay) - ry * (cx - ax)
    o2 = rx * (dy - ay) - ry * (dx - ax)
    if o1 == o2:
        if o1:
            return None
        a, b, c, d = (ax, bx, cx, dx) if rx else (ay, by, cy, dy)
        lo, hi, clo, chi = min(a, b), max(a, b), min(c, d), max(c, d)
        if lo > chi or clo > hi:
            return None
        return ([Fraction(v - a, b - a) for v in (c, d) if lo < v < hi],
                [Fraction(v - c, d - c) for v in (a, b) if clo < v < chi])
    if (o1 > 0 and o2 > 0) or (o1 < 0 and o2 < 0):
        return None
    o3 = sx * (ay - cy) - sy * (ax - cx)
    o4 = sx * (by - cy) - sy * (bx - cx)
    if (o3 > 0 and o4 > 0) or (o3 < 0 and o4 < 0):
        return None
    return ([Fraction(o3, o3 - o4)] if o3 and o4 else [],
            [Fraction(o1, o1 - o2)] if o1 and o2 else [])


def _sweep_pairs(rows_p: Sequence[EdgeRow], rows_q: Sequence[EdgeRow]
                 ) -> Iterator[tuple[int, int]]:
    """(ip, iq) for every edge ip of p and iq of q whose closed boxes meet.

    Both edge lists are swept together by low x with one active list per
    side, as `exact_core.find_segment_intersections` sweeps the overlay's
    edges: each edge is paired only with the other side's active edges
    whose closed y-range overlaps its own.  Two meeting closed segments
    have meeting boxes, so no meeting pair is lost.
    """
    boxes = tuple([(min(ax, bx), max(ax, bx), min(ay, by), max(ay, by))
                   for _, _, ax, ay, bx, by in rows] for rows in (rows_p, rows_q))
    active: list[list[int]] = [[], []]
    order = sorted([(box[0], 0, i) for i, box in enumerate(boxes[0])]
                   + [(box[0], 1, i) for i, box in enumerate(boxes[1])])
    for x, side, i in order:
        ylo, yhi = boxes[side][i][2:]
        other = boxes[1 - side]
        still: list[int] = []
        for k in active[1 - side]:
            o = other[k]
            if o[1] < x:
                continue
            still.append(k)
            if o[2] > yhi or o[3] < ylo:
                continue
            yield (i, k) if side == 0 else (k, i)
        active[1 - side] = still
        active[side].append(i)


def _sweep_events(rows_p: Sequence[EdgeRow], rows_q: Sequence[EdgeRow],
                  skip_p: Sequence[bool], skip_q: Sequence[bool]
                  ) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Sorted parameters in (0, 1) where each edge meets the other side,
    from the pairs `_sweep_pairs` finds; the caller reads no event of an
    edge that `skip_p` or `skip_q` marks, so no pair of two is intersected.
    """
    events: tuple[list[set[Fraction]], ...] = (
        [set() for _ in rows_p], [set() for _ in rows_q])
    for ip, iq in _sweep_pairs(rows_p, rows_q):
        if skip_p[ip] and skip_q[iq]:
            continue
        hit = _meet(rows_p[ip], rows_q[iq])
        if hit is not None:
            events[0][ip].update(hit[0])
            events[1][iq].update(hit[1])
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
# edge-pair counts


def intersecting_pairs(edges1: Sequence[tuple[Pt, Pt]],
                       edges2: Sequence[tuple[Pt, Pt]]) -> int:
    """Pairs with any nonempty closed intersection (touch or overlap),
    found by `_sweep_pairs`."""
    s = _denominators_lcm(p for e in (*edges1, *edges2) for p in e)
    rows1, rows2 = _edge_rows(edges1, s), _edge_rows(edges2, s)
    return sum(1 for i, j in _sweep_pairs(rows1, rows2)
               if _meet(rows1[i], rows2[j]) is not None)
