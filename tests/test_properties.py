"""Property-based checks over random exact inputs."""

import math
import random
from fractions import Fraction

import hypothesis as hyp
import hypothesis.strategies as hys
import pytest

from latbool.arrangement import (
    CONVEX,
    FLAT,
    REFLEX,
    exact_intersection,
    vertex_convexity,
)
from latbool.decomposition import (
    ConvexCell,
    _dir_in_sector,
    reflex_vertical_decomposition,
)
from latbool.exact_core import (
    BOUNDARY,
    COLLINEAR,
    EXTERIOR,
    INTERIOR,
    LEFT,
    RIGHT,
    InternalInvariantError,
    PreconditionError,
    Pt,
    Region,
    Ring,
    _next_out,
    dot,
    gap_midpoints,
    orientation,
    point_in_region,
    point_on_segment,
    pt,
    segment_at,
    segment_intersection,
    segment_param,
    segments_cross_properly,
    squared_distance,
    squared_point_distance,
    trace_cycles,
    Violation,
    complement_in_universe,
    universe_for,
    validate_region,
)
from latbool.fixtures import (
    _hull_ring,
    hand_fixture_pairs,
    random_pairs,
    random_region,
)
from latbool.oracle import brute_nvlp
from latbool import rounding
from latbool.rounding import (
    RANK_INSERTED,
    RANK_ORIGINAL,
    _column_interval,
    _near_box,
    _near_common_edge,
    _removal_topology_ok,
    _row_candidates,
    _strictly_in_triangle,
    convexify_cleanup,
    nvlp,
    simplify_reflex,
)
from latbool.setops import sandwich

from conftest import (
    CORPUS_SEED,
    FAR,
    crack_middle_operands,
    holed_square,
    square,
)

rationals = hys.fractions(min_value=-50, max_value=50,
                          max_denominator=16)
points = hys.tuples(rationals, rationals).map(lambda t: pt(*t))


@hyp.given(points, points, points)
def test_orientation_antisymmetry(a, b, c):
    assert orientation(a, b, c) == -orientation(a, c, b)


@hyp.given(points, points, points,
           hys.integers(-100, 100), hys.integers(-100, 100))
def test_orientation_translation_invariant(a, b, c, dx, dy):
    shift = lambda p: pt(p.x + dx, p.y + dy)
    assert orientation(a, b, c) == orientation(shift(a), shift(b), shift(c))


@hyp.given(points, points, points, points)
def test_segment_intersection_symmetric(a, b, c, d):
    hyp.assume(a != b and c != d)
    h1 = segment_intersection((a, b), (c, d))
    h2 = segment_intersection((c, d), (a, b))
    n1 = set() if h1 is None else ({h1} if isinstance(h1, Pt) else set(h1))
    n2 = set() if h2 is None else ({h2} if isinstance(h2, Pt) else set(h2))
    assert n1 == n2


@hyp.given(points, points, points)
def test_intersection_point_is_on_both(a, b, c):
    hyp.assume(orientation(a, b, c) != COLLINEAR)
    # segments from a to b and from a to c always meet at a
    h = segment_intersection((a, b), (a, c))
    assert h == a


@hyp.given(hys.integers(0, 10 ** 6))
def test_nvlp_matches_brute_on_random_cells(seed):
    rng = random.Random(seed)
    ax, ay = rng.randint(0, 20), rng.randint(0, 20)
    bx, by = rng.randint(0, 20), rng.randint(0, 20)
    cx, cy = rng.randint(0, 20), rng.randint(0, 20)
    a, b, c = Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
    hyp.assume(orientation(a, b, c) != COLLINEAR)
    if orientation(a, b, c) == -1:
        a, b = b, a
    # replace one vertex by a rational point on an edge: still convex
    t = Fraction(rng.randint(1, 7), 8)
    p = pt(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    ring = Ring((p, b, c))
    if ring.is_degenerate:
        hyp.assume(False)
    cell = ConvexCell(ring, ring.pts)
    assert nvlp(p, cell) == brute_nvlp(p, ring)


@hyp.given(hys.lists(hys.tuples(hys.integers(0, 12), hys.integers(0, 12)),
                     min_size=3, max_size=10, unique=True))
def test_fixture_hull_is_convex_and_covers_its_points(xys):
    pts = sorted(Pt(x, y) for x, y in xys)
    hull = _hull_ring(pts)
    hyp.assume(hull is not None)
    n = len(hull.pts)
    assert all(vertex_convexity(hull.pts[i - 1], hull.pts[i],
                                hull.pts[(i + 1) % n]) == CONVEX
               for i in range(n))
    assert all(point_in_region(p, Region((hull,))) != EXTERIOR for p in pts)


@hyp.settings(max_examples=25, deadline=None)
@hyp.given(hys.integers(0, 10 ** 6))
def test_random_intersections_round_trip_membership(seed):
    rng = random.Random(seed)
    a = random_region(rng, span=12)
    b = random_region(rng, span=12)
    x = exact_intersection(a, b)
    if x.is_empty:
        return
    # decomposition partitions the area exactly
    d = reflex_vertical_decomposition(x)
    assert sum(c.ring.signed_area2 for c in d.cells) == \
        sum(r.signed_area2 for r in x.region.rings)


# ---------------------------------------------------------------------------
# the integer predicate kernel against its plain Fraction formulas
#
# Each ref_* below evaluates a predicate's formula directly in Fraction
# arithmetic.  They are the references the integer kernel must reproduce,
# by value and by type (a result that was an int stays an int).  The last
# five are the turn tests the pipeline used to compute inline before it
# called `orientation` and `dot`.


def _exact(v):
    return int(v) if isinstance(v, Fraction) and v.denominator == 1 else v


def ref_orientation(a, b, c):
    d = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    return LEFT if d > 0 else RIGHT if d < 0 else COLLINEAR


def ref_dot(o, a, b):
    return (a.x - o.x) * (b.x - o.x) + (a.y - o.y) * (b.y - o.y)


def ref_on_collinear_segment(a, b, p):
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def ref_point_on_segment(p, a, b):
    return (ref_orientation(a, b, p) == COLLINEAR
            and ref_on_collinear_segment(a, b, p))


def ref_segment_intersection(s, t):
    a, b = s
    c, d = t
    if a == b or c == d:
        raise PreconditionError("degenerate segment")
    o1 = ref_orientation(a, b, c)
    o2 = ref_orientation(a, b, d)
    o3 = ref_orientation(c, d, a)
    o4 = ref_orientation(c, d, b)
    if o1 == 0 and o2 == 0:
        lo1, hi1 = (a, b) if a <= b else (b, a)
        lo2, hi2 = (c, d) if c <= d else (d, c)
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return None
        return lo if lo == hi else (lo, hi)
    if o1 * o2 < 0 and o3 * o4 < 0:
        r = (b.x - a.x, b.y - a.y)
        sd = (d.x - c.x, d.y - c.y)
        den = r[0] * sd[1] - r[1] * sd[0]
        u = (c.x - a.x) * sd[1] - (c.y - a.y) * sd[0]
        return pt(a.x + Fraction(u, den) * r[0], a.y + Fraction(u, den) * r[1])
    for o, (p, q, e) in ((o1, (a, b, c)), (o2, (a, b, d)),
                         (o3, (c, d, a)), (o4, (c, d, b))):
        if o == 0 and ref_on_collinear_segment(p, q, e):
            return e
    return None


def ref_segments_cross_properly(s, t):
    (a, b), (c, d) = s, t
    o1, o2 = ref_orientation(a, b, c), ref_orientation(a, b, d)
    o3, o4 = ref_orientation(c, d, a), ref_orientation(c, d, b)
    return (o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0 and o1 != o2
            and o3 != o4)


def ref_squared_distance(p, seg):
    a, b = seg
    if a == b:
        raise PreconditionError("degenerate segment")
    abx, aby = b.x - a.x, b.y - a.y
    apx, apy = p.x - a.x, p.y - a.y
    ab2 = abx * abx + aby * aby
    t_num = apx * abx + apy * aby
    if t_num <= 0:
        return _exact(apx * apx + apy * apy)
    if t_num >= ab2:
        bpx, bpy = p.x - b.x, p.y - b.y
        return _exact(bpx * bpx + bpy * bpy)
    c = apx * aby - apy * abx
    return _exact(Fraction(c * c, ab2))


def ref_segment_at(a, b, v, axis=0):
    u = 1 - axis
    if a[axis] == b[axis]:
        return (a[u], b[u]) if a[axis] == v else ()
    lo, hi = (a, b) if a[axis] < b[axis] else (b, a)
    if not lo[axis] <= v <= hi[axis]:
        return ()
    return (_exact(lo[u] + Fraction((v - lo[axis]) * (hi[u] - lo[u]),
                                    hi[axis] - lo[axis])),)


def ref_segment_param(a, b, p):
    if b.x != a.x:
        return Fraction(p.x - a.x, b.x - a.x)
    return Fraction(p.y - a.y, b.y - a.y)


def ref_vertex_convexity(prev, v, nxt):
    turn = (v.x - prev.x) * (nxt.y - v.y) - (v.y - prev.y) * (nxt.x - v.x)
    if turn > 0:
        return CONVEX
    if turn < 0:
        return REFLEX
    if (v.x - prev.x) * (nxt.x - v.x) + (v.y - prev.y) * (nxt.y - v.y) < 0:
        return REFLEX
    return FLAT


def ref_cell_contains(ring, q):
    for a, b in ring.edges():
        if a == b:
            continue
        if (b.x - a.x) * (q.y - a.y) - (b.y - a.y) * (q.x - a.x) < 0:
            return False
    return True


def ref_strictly_in_triangle(w, a, b, c):
    d1 = (b.x - a.x) * (w.y - a.y) - (b.y - a.y) * (w.x - a.x)
    d2 = (c.x - b.x) * (w.y - b.y) - (c.y - b.y) * (w.x - b.x)
    d3 = (a.x - c.x) * (w.y - c.y) - (a.y - c.y) * (w.x - c.x)
    return (d1 > 0 and d2 > 0 and d3 > 0) or (d1 < 0 and d2 < 0 and d3 < 0)


def ref_dir_in_sector(delta, u, w):
    """delta, the incoming direction u and the outgoing one w as vectors."""
    ax, ay = w
    bx, by = -u[0], -u[1]
    dx, dy = delta
    c_ab = ax * by - ay * bx
    d_ab = ax * bx + ay * by
    c_ad = ax * dy - ay * dx
    d_ad = ax * dx + ay * dy
    c_db = dx * by - dy * bx
    if c_ab == 0 and d_ab > 0:
        return not (c_ad == 0 and d_ad > 0)
    if c_ab == 0 and d_ab < 0:
        return c_ad > 0
    if c_ab > 0:
        return c_ad > 0 and c_db > 0
    return c_ad > 0 or c_db > 0


def ref_next_out(v, back, outs):
    """The rotation rule at v, with the direction back to the previous
    vertex as a vector."""
    rx, ry = back
    best = best_cls = None
    for w, eid in outs:
        wx, wy = w.x - v.x, w.y - v.y
        c = rx * wy - ry * wx
        d = rx * wx + ry * wy
        if c == 0 and d > 0:
            cls = (1, 0)
        else:
            cls = (0, 0 if (c > 0 or (c == 0 and d < 0)) else 1)
        if best is None:
            best, best_cls = (w, eid), cls
            continue
        if cls[0] != best_cls[0]:
            if cls[0] < best_cls[0]:
                best, best_cls = (w, eid), cls
            continue
        if cls[0] == 1:
            continue
        if cls[1] != best_cls[1]:
            if cls[1] > best_cls[1]:
                best, best_cls = (w, eid), cls
            continue
        bx, by_ = best[0].x - v.x, best[0].y - v.y
        if bx * wy - by_ * wx > 0:
            best, best_cls = (w, eid), cls
    return best


def ref_signed_area2(ring):
    a = 0
    n = len(ring.pts)
    for i in range(n):
        p, q = ring.pts[i], ring.pts[(i + 1) % n]
        a += p.x * q.y - q.x * p.y
    return _exact(a)


def ref_squared_point_distance(p, q):
    dx, dy = p.x - q.x, p.y - q.y
    return _exact(dx * dx + dy * dy)


def ref_gap_midpoints(p, q, events):
    ts = [Fraction(0)] + list(events) + [Fraction(1)]
    for t0, t1 in zip(ts, ts[1:]):
        tm = (t0 + t1) / 2
        yield pt(p.x + tm * (q.x - p.x), p.y + tm * (q.y - p.y))


def _same(x, y) -> bool:
    """Equal by value and by type, element by element."""
    if type(x) is not type(y):
        return False
    if isinstance(x, tuple):
        return len(x) == len(y) and all(map(_same, x, y))
    return x == y


def _outcome(f, *args):
    try:
        return f(*args)
    except PreconditionError:
        return PreconditionError


def _along(a, b, t):
    return pt(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


SHAPES = ("free", "collinear", "touching", "vertical", "horizontal")


@hys.composite
def segment_pairs(draw, pts, line_t, seg_t):
    """Two segments on the points `pts`: free, collinear (parameters
    `line_t` along the first), one touching the other (`seg_t`), or
    vertical/horizontal (on one line or not)."""
    a, b, c, d = draw(pts)
    shape = draw(hys.sampled_from(SHAPES))
    if shape == "collinear":
        c, d = _along(a, b, draw(line_t)), _along(a, b, draw(line_t))
    elif shape == "touching":
        c = _along(a, b, draw(seg_t))
    elif shape == "vertical":
        b = pt(a.x, b.y)
        c = pt(a.x, c.y) if draw(hys.booleans()) else c
        d = pt(c.x, d.y) if draw(hys.booleans()) else d
    elif shape == "horizontal":
        b = pt(b.x, a.y)
        c = pt(c.x, a.y) if draw(hys.booleans()) else c
        d = pt(d.x, c.y) if draw(hys.booleans()) else d
    return (a, b), (c, d)


def _four(pts):
    return hys.lists(pts, min_size=4, max_size=4, unique=True)


# per coordinate kind: rational, shifted near 10^12, and all-int points
SEGMENT_PAIRS = {
    "rational": segment_pairs(_four(points),
                              hys.fractions(-1, 2, max_denominator=6),
                              hys.fractions(0, 1, max_denominator=6)),
    "far": segment_pairs(
        _four(points.map(lambda p: pt(p.x + FAR[0], p.y + FAR[1]))),
        hys.fractions(-1, 2, max_denominator=6),
        hys.fractions(0, 1, max_denominator=6)),
    "int": segment_pairs(
        _four(hys.tuples(hys.integers(-20, 20),
                         hys.integers(-20, 20)).map(lambda t: pt(*t))),
        hys.integers(-1, 2), hys.integers(0, 1)),
}


@pytest.mark.parametrize("kind", SEGMENT_PAIRS)
@hyp.given(data=hys.data())
def test_kernel_matches_fraction_formulas(kind, data):
    s, t = data.draw(SEGMENT_PAIRS[kind])
    (a, b), (c, d) = s, t
    for ring in (Ring(()), Ring((a,)), Ring((a, b, c)), Ring((a, b, c, d))):
        assert _same(ring.signed_area2, ref_signed_area2(ring))
    for p, q in ((a, b), (a, c), (c, d), (d, d)):
        assert _same(squared_point_distance(p, q),
                     ref_squared_point_distance(p, q))
    events = sorted(data.draw(hys.sets(
        hys.fractions(0, 1, max_denominator=12), max_size=3)) - {0, 1})
    assert _same(tuple(gap_midpoints(a, b, events)),
                 tuple(ref_gap_midpoints(a, b, events)))
    assert _same(_outcome(segment_intersection, s, t),
                 _outcome(ref_segment_intersection, s, t))
    assert _same(segments_cross_properly(s, t),
                 ref_segments_cross_properly(s, t))
    for p in (c, d):
        assert _same(orientation(a, b, p), ref_orientation(a, b, p))
        assert _same(dot(a, b, p), ref_dot(a, b, p))
        assert _same(point_on_segment(p, a, b), ref_point_on_segment(p, a, b))
        assert _same(_outcome(squared_distance, p, s),
                     _outcome(ref_squared_distance, p, s))
        if a != b:
            assert _same(segment_param(a, b, p), ref_segment_param(a, b, p))
    for axis in (0, 1):
        for v in (a[axis], b[axis], c[axis], d[axis],
                  _exact(Fraction(a[axis] + b[axis], 2))):
            assert _same(segment_at(a, b, v, axis),
                         ref_segment_at(a, b, v, axis))
    # the pipeline's turn tests
    for p, q, r in ((a, b, c), (a, b, d), (c, d, a), (b, a, c)):
        assert _same(vertex_convexity(p, q, r), ref_vertex_convexity(p, q, r))
    for ring in (Ring((a, b, c)), Ring((a, b, c, d))):
        for q in (a, c, d, _along(a, b, Fraction(1, 2))):
            assert _same(ConvexCell(ring, ring.pts).contains(q),
                         ref_cell_contains(ring, q))
    for w in (d, c, _along(a, b, Fraction(1, 2))):
        assert _same(_strictly_in_triangle(w, a, b, c),
                     ref_strictly_in_triangle(w, a, b, c))
    # the rotation rule at b, arriving from a: candidates on both sides,
    # straight ahead and (twice) straight back
    outs = [(w, eid) for eid, w in enumerate((c, d, a, _along(a, b, 2), a))
            if w != b]
    if a != b:
        for cands in (outs, outs[:1]):
            assert _same(_next_out(a, b, cands),
                         ref_next_out(b, (a.x - b.x, a.y - b.y), cands))
    # the interior sector at a lattice vertex, also at a straight vertex
    # and at a reversal
    v = pt(math.floor(b.x), math.floor(b.y))
    for nxt in (c, _along(v, a, Fraction(1, 2)), _along(a, v, 2)):
        for q in (c, d, a, Pt(v.x, v.y + 1), Pt(v.x, v.y - 1)):
            assert _same(_dir_in_sector(q, a, v, nxt), ref_dir_in_sector(
                (q.x - v.x, q.y - v.y), (v.x - a.x, v.y - a.y),
                (nxt.x - v.x, nxt.y - v.y)))


# ---------------------------------------------------------------------------
# canonical form against the restart loop and the unconditional re-trace
#
# ref_ring_canonical removes one straight vertex per scan, restarting from
# the first vertex, and compares every rotation; ref_region_canonical always
# re-traces the directed edges.  The one-pass filter, the rotation from the
# least vertex and the re-trace only at a repeated vertex must agree.


def ref_ring_canonical(ring):
    out = []
    for p in ring.pts:
        if not out or out[-1] != p:
            out.append(p)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    changed = True
    while changed and len(out) >= 3:
        changed = False
        for i in range(len(out)):
            a, b, c = out[i - 1], out[i], out[(i + 1) % len(out)]
            if ref_orientation(a, b, c) == COLLINEAR and ref_dot(b, a, c) < 0:
                del out[i]
                changed = True
                break
    if len(out) < 2:
        return Ring(tuple(out))
    start = min(range(len(out)), key=lambda i: tuple(out[i:] + out[:i]))
    return Ring(tuple(out[start:] + out[:start]))


def ref_region_canonical(region):
    rings = [r for r in map(ref_ring_canonical, region.rings)
             if len(r.pts) >= 2]
    directed = [(a, b) for r in rings for a, b in r.edges() if a != b]
    if len(set(directed)) == len(directed):
        try:
            traced = [ref_ring_canonical(Ring(tuple(c)))
                      for c in trace_cycles(directed)]
            rings = [r for r in traced if len(r.pts) >= 2]
        except InternalInvariantError:
            pass
    return Region(tuple(sorted(rings, key=lambda r: r.pts)))


def _ring(*xys):
    return Ring(tuple(pt(x, y) for x, y in xys))


HALF = Fraction(1, 2)
CANONICAL_RINGS = {
    "collinear-runs": _ring((2, 0), (3, 0), (4, 0), (4, 2), (4, 3), (4, 4),
                            (2, 4), (0, 4), (0, 2), (0, 1), (1, 0)),
    "straight-start": _ring((1, 0), (2, 0), (2, 2), (0, 2), (0, 0)),
    "rational-run": _ring((0, 0), (HALF, HALF), (1, 1), (0, 1)),
    "spur": _ring((0, 0), (4, 0), (4, 2), (5, 2), (6, 2), (5, 2), (4, 2),
                  (4, 4), (0, 4)),
    "spur-at-start": _ring((3, 1), (0, 0), (4, 0), (4, 4), (0, 4), (0, 0)),
    "duplicates": _ring((0, 0), (0, 0), (3, 0), (3, 0), (3, 3), (0, 0)),
    "all-equal": _ring((1, 1), (1, 1), (1, 1)),
    # the least vertex (0, 0) twice: the later visit, then the first,
    # starts the least rotation
    "least-twice": _ring((0, 0), (3, 0), (1, 1), (0, 0), (0, 3), (1, 2)),
    "least-twice-first": _ring((0, 0), (0, 3), (1, 2), (0, 0), (3, 0),
                               (1, 1)),
    "two-points": _ring((3, 1), (1, 2)),
    "two-points-run": _ring((0, 0), (1, 0), (2, 0)),
    "one-point": _ring((5, 5),),
}


def _squares_pinched(one_ring):
    """Two unit squares touching at (1, 1), as two rings or as one ring
    visiting the pinch twice."""
    if one_ring:
        return Region((_ring((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (1, 2),
                             (1, 1), (0, 1)),))
    return Region((_ring((0, 0), (1, 0), (1, 1), (0, 1)),
                   _ring((1, 1), (2, 1), (2, 2), (1, 2))))


CANONICAL_REGIONS = {
    "pinch-two-rings": _squares_pinched(False),
    "pinch-one-ring": _squares_pinched(True),
    # a hole touching its outer ring at (2, 0), written as one ring
    "hole-pinch-one-ring": Region((_ring((0, 0), (2, 0), (1, 1), (2, 2),
                                         (3, 1), (2, 0), (4, 0), (4, 4),
                                         (0, 4)),)),
    "apart": Region((_ring((0, 0), (2, 0), (1, HALF), (2, 2), (0, 2)),
                     _ring((5, 5), (6, 5), (6, 6)))),
    "nested": Region((_ring((0, 0), (9, 0), (9, 9), (0, 9)),
                      _ring((3, 3), (3, 6), (6, 6), (6, 3)))),
}


@pytest.mark.parametrize("name", CANONICAL_RINGS)
def test_ring_canonical_matches_restart_loop(name):
    ring = CANONICAL_RINGS[name]
    got = ring.canonical()
    assert got == ref_ring_canonical(ring), name
    assert got.canonical() == got


@pytest.mark.parametrize("name", CANONICAL_REGIONS)
def test_region_canonical_matches_unconditional_retrace(name):
    region = CANONICAL_REGIONS[name]
    got = region.canonical()
    assert got == ref_region_canonical(region), name
    assert got.canonical() == got


def test_region_canonical_retraces_pinches():
    """The two ways of writing a pinch give one canonical region."""
    assert (_squares_pinched(True).canonical()
            == _squares_pinched(False).canonical())


small_points = hys.tuples(hys.integers(0, 3), hys.integers(0, 3)).map(
    lambda t: Pt(*t))
ring_strategy = hys.lists(small_points, min_size=1, max_size=12).map(
    lambda ps: Ring(tuple(ps)))


@hyp.given(ring_strategy)
def test_ring_canonical_matches_restart_loop_random(ring):
    got = ring.canonical()
    assert got == ref_ring_canonical(ring)
    assert got.canonical() == got


@hyp.given(hys.lists(ring_strategy, min_size=1, max_size=3))
def test_region_canonical_matches_retrace_random(rings):
    region = Region(tuple(rings))
    got = region.canonical()
    assert got == ref_region_canonical(region)
    assert got.canonical() == got


@hyp.given(points, points, hys.sets(hys.fractions(-1, 2, max_denominator=8),
                                    min_size=1, max_size=6))
def test_lexicographic_cut_order_is_parameter_order(a, b, ts):
    hyp.assume(a != b)
    cut = {_along(a, b, t) for t in ts}
    assert (sorted(cut, reverse=b < a)
            == sorted(cut, key=lambda p: segment_param(a, b, p)))


# ---------------------------------------------------------------------------
# the rounding layer's local searches against the full scans they replaced
#
# nvlp scans columns outward from p and stops early, convexify_cleanup
# re-tests only the neighbours of each removal, and simplify_reflex tests
# only the edges and vertices whose boxes can matter.  Each ref_* below is
# the scan over everything that it replaced; the local search must return
# exactly the same result.


def ref_nvlp(p, cell):
    """Every integer column of the cell's bounding box."""
    x0, _, x1, _ = cell.ring.bbox
    best = None
    for gx in range(math.ceil(x0), math.floor(x1) + 1):
        interval = _column_interval(cell.ring, gx)
        if interval is None:
            continue
        lo, hi = math.ceil(interval[0]), math.floor(interval[1])
        if lo > hi:
            continue
        for gy in _row_candidates(p.y, lo, hi):
            key = (squared_point_distance(p, Pt(gx, gy)), gx, gy)
            if best is None or key < best:
                best = key
    return None if best is None else Pt(best[1], best[2])


def _ref_dedupe(pts, prot, rk):
    i = 0
    while len(pts) >= 2 and i < len(pts):
        j = (i + 1) % len(pts)
        if pts[i] == pts[j]:
            prot[i] = prot[i] or prot[j]
            rk[i] = min(rk[i], rk[j])
            del pts[j], prot[j], rk[j]
            i = 0
        else:
            i += 1


def ref_convexify_cleanup(points, protected, rank=None):
    """Re-test every occurrence after each removal; dedupe from the start."""
    pts = list(points)
    prot = list(protected)
    rk = (list(rank) if rank is not None
          else [RANK_ORIGINAL if p else RANK_INSERTED for p in prot])
    _ref_dedupe(pts, prot, rk)
    while len(pts) >= 3:
        n = len(pts)
        candidates = [i for i in range(n)
                      if not prot[i]
                      and vertex_convexity(pts[i - 1], pts[i],
                                           pts[(i + 1) % n]) == REFLEX]
        if not candidates:
            break
        pick = max(candidates, key=lambda i: (rk[i], -i))
        del pts[pick], prot[pick], rk[pick]
        _ref_dedupe(pts, prot, rk)
    return pts, prot


def _ref_removal_topology_ok(rings, ri, i):
    pts = rings[ri]
    n = len(pts)
    prev, r, nxt = pts[i - 1], pts[i], pts[(i + 1) % n]
    if sum(other.count(r) for other in rings) > 1:
        return False
    skip = {((i - 1) % n, i), (i, (i + 1) % n)}
    for rj, other in enumerate(rings):
        m = len(other)
        for j in range(m):
            a, b = other[j], other[(j + 1) % m]
            if a == b or (rj == ri and (j, (j + 1) % m) in skip):
                continue
            if segments_cross_properly((prev, nxt), (a, b)):
                return False
    if orientation(prev, r, nxt) == COLLINEAR:
        return True
    for rj, other in enumerate(rings):
        for j, w in enumerate(other):
            if rj == ri and j in {(i - 1) % n, i, (i + 1) % n}:
                continue
            if w not in (prev, r, nxt) and _strictly_in_triangle(
                    w, prev, r, nxt):
                return False
    return True


def ref_simplify_reflex(pbar, exact):
    """Every exact edge, every ring edge and every vertex for each
    candidate, restarting after each removal.  The pinch refusal is kept:
    it is a rule of the simplification, not a filter."""
    counterparts = {v.pos for ring in exact.rings for v in ring}
    exact_edges = [(a, b) for a, b in exact.region.edges() if a != b]
    rings = [list(r.pts) for r in pbar.rings]
    changed = True
    while changed:
        changed = False
        for ri, pts in enumerate(rings):
            n = len(pts)
            if n < 4:
                continue
            for i in range(n):
                prev, r, nxt = pts[i - 1], pts[i], pts[(i + 1) % n]
                if (r in counterparts
                        or vertex_convexity(prev, r, nxt) != REFLEX
                        or prev == nxt):
                    continue
                if not any(all(squared_distance(v, e) < 2
                               for v in (prev, r, nxt))
                           for e in exact_edges):
                    continue
                if not _ref_removal_topology_ok(rings, ri, i):
                    continue
                del pts[i]
                changed = True
                break
            if changed:
                break
    out = [Ring(tuple(p)).canonical() for p in rings]
    return Region(tuple(r for r in out if len(r.pts) >= 2)).canonical()


# halves and quarters put p between two columns and make distance ties
quarters = hys.fractions(min_value=0, max_value=24, max_denominator=4)


@hyp.given(hys.lists(hys.tuples(quarters, quarters), min_size=3,
                     max_size=7, unique=True),
           hys.integers(0, 6), hys.fractions(0, 1, max_denominator=4))
def test_nvlp_matches_full_column_scan(xys, k, t):
    hull = _hull_ring(sorted(pt(x, y) for x, y in xys))
    hyp.assume(hull is not None)
    cell = ConvexCell(hull, hull.pts)
    # the pipeline snaps cell vertices; points along an edge test more ties
    a, b = hull.pts[k % len(hull.pts)], hull.pts[(k + 1) % len(hull.pts)]
    for p in (a, pt(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))):
        assert nvlp(p, cell) == ref_nvlp(p, cell)


def test_nvlp_scans_the_left_column_at_an_equal_distance():
    # p is half-way between columns 2 and 3; (2, 1) and (3, 1) tie at
    # squared distance 1/4, which equals column 2's own lower bound
    cell = ConvexCell(Ring((Pt(0, 0), Pt(5, 0), pt(HALF * 5, 3))), ())
    p = pt(HALF * 5, 1)
    assert nvlp(p, cell) == ref_nvlp(p, cell) == Pt(2, 1)


cleanup_items = hys.lists(
    hys.tuples(small_points, hys.booleans(), hys.integers(0, 2)),
    max_size=14)


@hyp.given(cleanup_items, hys.booleans())
def test_convexify_cleanup_matches_restart_loop(items, ranked):
    pts = [p for p, _, _ in items]
    prot = [f for _, f, _ in items]
    rank = [r for _, _, r in items] if ranked else None
    assert (convexify_cleanup(pts, prot, rank)
            == ref_convexify_cleanup(pts, prot, rank))


@pytest.mark.parametrize("name, pts, prot, rank", [
    # a repeat across the wrap: (0, 0) merges into its last occurrence,
    # so the rotation and the tie break by list order move with it
    ("wrap", [(0, 0), (2, 1), (4, 0), (4, 4), (2, 3), (0, 4), (0, 0)],
     [False] * 7, [2, 1, 1, 0, 1, 0, 0]),
    # removing a spike tip makes its two neighbours one point
    ("spike", [(0, 0), (3, 0), (3, 2), (3, 0), (6, 0), (6, 6), (0, 6)],
     [False, False, False, True, False, False, False], [0, 1, 2, 0, 0, 0, 0]),
    # each removal turns its neighbour reflex: a cascade along the chain
    ("cascade", [(0, 0), (1, 2), (2, 3), (3, 3), (4, 2), (5, 0), (5, 6),
                 (0, 6)], [False] * 8, [0, 2, 1, 2, 1, 0, 0, 0]),
])
def test_convexify_cleanup_matches_restart_loop_cases(name, pts, prot, rank):
    pts = [Pt(x, y) for x, y in pts]
    assert (convexify_cleanup(pts, prot, rank)
            == ref_convexify_cleanup(pts, prot, rank)), name


@hyp.settings(deadline=None)
@hyp.given(hys.integers(0, 10 ** 6), hys.data())
def test_simplify_reflex_matches_unfiltered_scan(seed, data):
    exact_region = random_region(random.Random(seed), span=8)
    exact = exact_intersection(exact_region, exact_region)
    # ring vertices near the exact boundary make most reflex turns
    # candidates, and a repeated draw makes pinches
    near = sorted(Pt(x, y) for x in range(-2, 11) for y in range(-2, 11)
                  if any(squared_distance(Pt(x, y), e) < 2
                         for e in exact_region.edges()))
    rings = data.draw(hys.lists(
        hys.lists(hys.sampled_from(near), min_size=3, max_size=10),
        min_size=1, max_size=3))
    pbar = Region(tuple(r for r in (Ring(tuple(ps)).canonical()
                                    for ps in rings) if len(r.pts) >= 3))
    assert simplify_reflex(pbar, exact) == ref_simplify_reflex(pbar, exact)


grid6 = hys.tuples(hys.integers(0, 6), hys.integers(0, 6)).map(
    lambda t: Pt(*t))


@hyp.given(hys.lists(hys.lists(grid6, min_size=2, max_size=8), min_size=1,
                     max_size=3), hys.integers(0, 100))
def test_removal_topology_matches_unfiltered_scan(rings, k):
    pts = rings[0]
    i = k % len(pts)
    hyp.assume(pts[i - 1] != pts[(i + 1) % len(pts)])
    assert (_removal_topology_ok(rings, 0, i)
            == _ref_removal_topology_ok(rings, 0, i))


@hyp.given(hys.tuples(grid6, grid6, grid6),
           hys.lists(hys.tuples(points, points), min_size=1, max_size=4))
def test_near_common_edge_matches_unfiltered_scan(triple, edges):
    edges = [((a, b) if a != b else (a, pt(a.x + 1, a.y))) for a, b in edges]
    boxed = [(a, b, _near_box(a, b)) for a, b in edges]
    assert _near_common_edge(triple, boxed) == any(
        all(squared_distance(v, e) < 2 for v in triple) for e in edges)


def test_simplify_reflex_matches_unfiltered_scan_on_corpus(monkeypatch):
    calls = []
    real = rounding.simplify_reflex

    def recorded(pbar, exact):
        calls.append((pbar, exact))
        return real(pbar, exact)

    monkeypatch.setattr(rounding, "simplify_reflex", recorded)
    for _, a, b in random_pairs(24, seed=CORPUS_SEED):
        for op in ("intersection", "union", "difference"):
            sandwich(a, b, op)
    removed = 0
    for pbar, exact in calls:
        got = real(pbar, exact)
        assert got == ref_simplify_reflex(pbar, exact)
        removed += pbar.vertex_count() - got.vertex_count()
    assert removed > 0


@hyp.given(points, points)
def test_near_box_is_the_tight_integer_box(a, b):
    """Every lattice point within sqrt(2) of a-b lies strictly inside the
    box, and the box is no wider than that needs: its innermost lattice
    lines are less than 2 from the segment's bounding box."""
    hyp.assume(a != b)
    x0, y0, x1, y1 = _near_box(a, b)
    for c in (a, b):
        for gx in range(math.floor(c.x) - 2, math.ceil(c.x) + 3):
            for gy in range(math.floor(c.y) - 2, math.ceil(c.y) + 3):
                if squared_distance(Pt(gx, gy), (a, b)) < 2:
                    assert x0 < gx < x1 and y0 < gy < y1
    assert min(a.x, b.x) - (x0 + 1) < 2 and (x1 - 1) - max(a.x, b.x) < 2
    assert min(a.y, b.y) - (y0 + 1) < 2 and (y1 - 1) - max(a.y, b.y) < 2


# ---------------------------------------------------------------------------
# validate_region against the double loop over every edge pair


def _ref_ring_encloses(outer, inner):
    """_ring_encloses without the bounding-box test: the first boundary
    sample of inner off outer's boundary decides."""
    if outer.is_degenerate:
        return False
    region = Region((outer,))
    samples = list(inner.pts) + [pt(Fraction(a.x + b.x, 2),
                                    Fraction(a.y + b.y, 2))
                                 for a, b in inner.edges() if a != b]
    for v in samples:
        c = point_in_region(v, region)
        if c != BOUNDARY:
            return c == INTERIOR
    return False


def ref_validate_region(region):
    """validate_region with every edge pair tested, and every ring
    classified against every other one for its nesting."""
    out = []
    edges = []
    for ri, ring in enumerate(region.rings):
        if len(ring.pts) < 2:
            out.append(Violation("ring-size", f"ring {ri} has <2 vertices",
                                 "error"))
            continue
        for ei, (a, b) in enumerate(ring.edges()):
            if a == b:
                out.append(Violation(
                    "repeated-vertex", f"ring {ri} edge {ei} is a point",
                    "error"))
            else:
                edges.append((ri, ei, a, b))
        if ring.is_degenerate:
            out.append(Violation(
                "degenerate", f"ring {ri} has zero area", "degenerate"))
    for i in range(len(edges)):
        ri, ei, a, b = edges[i]
        for j in range(i + 1, len(edges)):
            rj, ej, c, d = edges[j]
            if segments_cross_properly((a, b), (c, d)):
                out.append(Violation(
                    "proper-crossing",
                    f"ring {ri} edge {ei} crosses ring {rj} edge {ej}",
                    "error"))
            elif not (region.rings[ri].is_degenerate
                      or region.rings[rj].is_degenerate):
                hit = segment_intersection((a, b), (c, d))
                if hit is not None and not isinstance(hit, Pt):
                    anti = (a < b) != (c < d)
                    out.append(Violation(
                        "edge-overlap",
                        f"ring {ri} edge {ei} overlaps ring {rj} edge {ej}",
                        "degenerate" if anti else "error"))
    if any(v.severity == "error" for v in out):
        return out
    rings = region.rings
    enclosing = [[j for j, outer in enumerate(rings)
                  if j != i and _ref_ring_encloses(outer, ring)]
                 for i, ring in enumerate(rings)]
    for ri, ring in enumerate(rings):
        if ring.is_degenerate:
            continue
        depth = len(enclosing[ri])
        if depth % 2 == 0 and not ring.is_ccw:
            out.append(Violation(
                "orientation", f"ring {ri} at depth {depth} must be CCW",
                "error"))
        if depth % 2 == 1 and ring.is_ccw:
            out.append(Violation(
                "orientation", f"ring {ri} at depth {depth} must be CW",
                "error"))
        if depth % 2 == 1 and not enclosing[ri]:
            out.append(Violation(
                "nesting", f"hole ring {ri} has no enclosing ring", "error"))
    return out


def _star(n, r_out, r_in, seed):
    """A star polygon of n lattice vertices alternating between two radii."""
    rng = random.Random(seed)
    pts = []
    for i in range(n):
        th = 2 * math.pi * (i + 0.3 * (rng.random() - 0.5)) / n
        r = (r_out if i % 2 == 0 else r_in) * (0.9 + 0.2 * rng.random())
        pts.append(Pt(round(r * math.cos(th)), round(r * math.sin(th))))
    return Region((Ring(tuple(pts)),))


def _invalid_variants(region):
    """The first ring reversed, the last ring moved right by 1 (a hole then
    often crosses or runs along another ring) and the first ring listed
    twice."""
    rings = region.rings
    last = Ring(tuple(Pt(p.x + 1, p.y) for p in rings[-1].pts))
    return [Region((rings[0].reversed_(),) + rings[1:]),
            Region(rings[:-1] + (last,)),
            Region((rings[0],) + rings)]


def _validation_cases():
    """The acceptance corpus's operands, their invalid variants and their
    complements; the rand-015 crack overlay, a square with a slit and one
    with a hole on each side of its bounding box; a 640-vertex star, also
    reversed; squares with 100 and 225 unit holes, and the smaller one
    with a hole moved to cross its neighbour."""
    star = _star(640, 400, 200, seed=640)
    assert len(star.rings[0].pts) == 640
    holes = holed_square(10)
    moved = Ring(tuple(pt(p.x + Fraction(3, 2), p.y + Fraction(1, 2))
                       for p in holes.rings[1].pts))
    comp, pixels_comp, _ = crack_middle_operands()
    middle = exact_intersection(comp, pixels_comp, check=False).region
    slit = Region((square(0, 0, 4, 4), Ring((Pt(1, 1), Pt(2, 1)))))
    # each hole's first vertex lies on a different side of the square
    sides = Region((square(0, 0, 9, 9),
                    _ring((0, 5), (2, 5), (2, 3), (0, 3)),
                    _ring((9, 3), (7, 3), (7, 5), (9, 5)),
                    _ring((5, 0), (3, 0), (3, 2), (5, 2)),
                    _ring((3, 9), (5, 9), (5, 7), (3, 7))))
    cases = [("star640", star),
             ("star640-reversed", Region((star.rings[0].reversed_(),))),
             ("holes100", holes), ("holes225", holed_square(15)),
             ("holes100-crossing",
              Region((holes.rings[0], moved) + holes.rings[2:])),
             ("rand-015.middle", middle), ("slit", slit),
             ("holes-on-sides", sides)]
    pairs = hand_fixture_pairs() + random_pairs(200, seed=CORPUS_SEED)
    for name, a, b in pairs:
        box = universe_for([a, b])
        for side, r in (("A", a), ("B", b)):
            cases.append((f"{name}.{side}", r))
            cases += [(f"{name}.{side}-bad{k}", v)
                      for k, v in enumerate(_invalid_variants(r))]
            cases.append((f"{name}.{side}c", complement_in_universe(r, box)))
    return cases


def test_validate_region_matches_double_loop():
    """The same violations in the same order, on regions with none, with
    degenerate overlaps only and with errors of every kind."""
    kinds = set()
    for name, region in _validation_cases():
        got = validate_region(region)
        assert got == ref_validate_region(region), name
        kinds |= {(v.kind, v.severity) for v in got}
    assert {("proper-crossing", "error"), ("edge-overlap", "error"),
            ("edge-overlap", "degenerate"), ("orientation", "error"),
            ("degenerate", "degenerate")} <= kinds, kinds
