import itertools
import math
from fractions import Fraction

import pytest

from latbool import exact_core
from latbool.exact_core import (
    BOUNDARY,
    COLLINEAR,
    EXTERIOR,
    INTERIOR,
    LEFT,
    InternalInvariantError,
    MarginError,
    PreconditionError,
    RIGHT,
    Pt,
    Region,
    Ring,
    UniverseBox,
    cancel_reversed_pairs,
    complement_in_universe,
    orientation,
    point_in_region,
    pt,
    region_ok,
    segment_at,
    segment_intersection,
    squared_distance,
    trace_cycles,
    Violation,
    universe_for,
    validate_region,
)
from latbool.oracle import IntMembership, is_visible

from conftest import FAR, holed_square, membership_regions, shifted, square


def test_orientation_basis():
    assert orientation(Pt(0, 0), Pt(1, 0), Pt(0, 1)) == LEFT
    assert orientation(Pt(0, 0), Pt(1, 1), Pt(2, 2)) == COLLINEAR
    assert orientation(Pt(0, 0), Pt(0, 1), Pt(1, 1)) == RIGHT


def test_orientation_rational():
    a = pt(Fraction(1, 3), Fraction(1, 7))
    b = pt(Fraction(2, 3), Fraction(5, 7))
    c = pt(1, 0)
    assert orientation(a, b, c) == -orientation(a, c, b)


def test_segment_intersection_point():
    hit = segment_intersection((Pt(0, 0), Pt(5, 5)), (Pt(0, 5), Pt(5, 0)))
    assert hit == pt(Fraction(5, 2), Fraction(5, 2))


def test_segment_intersection_parallel_disjoint():
    assert segment_intersection((Pt(0, 0), Pt(1, 0)),
                                (Pt(0, 2), Pt(1, 2))) is None


def test_segment_intersection_collinear_overlap():
    hit = segment_intersection((Pt(0, 0), Pt(4, 0)), (Pt(2, 0), Pt(6, 0)))
    assert hit == (Pt(2, 0), Pt(4, 0))


def test_segment_intersection_endpoint_touch():
    hit = segment_intersection((Pt(0, 0), Pt(2, 0)), (Pt(2, 0), Pt(2, 5)))
    assert hit == Pt(2, 0)


def test_segment_intersection_t_junction():
    # the endpoint (2, 0) lies inside the other segment, whose endpoints
    # are strictly on opposite sides of the touching one
    bar, stem = (Pt(0, 0), Pt(4, 0)), (Pt(2, 0), Pt(2, 3))
    assert segment_intersection(bar, stem) == Pt(2, 0)
    assert segment_intersection(stem, bar) == Pt(2, 0)


def test_segment_intersection_shared_endpoint_without_crossing():
    # a corner: no endpoint is strictly on either side of the other line
    # pair, and a near miss on the supporting line is no touch
    assert segment_intersection((Pt(0, 0), Pt(2, 2)),
                                (Pt(4, 0), Pt(2, 2))) == Pt(2, 2)
    assert segment_intersection((Pt(0, 0), Pt(2, 2)),
                                (Pt(3, 3), Pt(5, 0))) is None


def test_segment_intersection_collinear_endpoint():
    hit = segment_intersection((Pt(0, 0), Pt(2, 1)), (Pt(4, 2), Pt(2, 1)))
    assert hit == Pt(2, 1)
    assert segment_intersection((Pt(0, 0), Pt(2, 1)),
                                (Pt(4, 2), Pt(6, 3))) is None


def test_segment_at_vertical_segment():
    assert segment_at(Pt(2, 5), Pt(2, 1), 2) == (5, 1)
    assert segment_at(Pt(2, 5), Pt(2, 1), 3) == ()


def test_segment_at_endpoint_and_range():
    a, b = Pt(0, 0), Pt(4, 2)
    assert segment_at(a, b, 4) == (2,)
    assert segment_at(b, a, 0) == (0,)
    assert segment_at(a, b, 5) == ()
    assert segment_at(a, b, Fraction(-1, 3)) == ()


def test_segment_at_rational_line():
    a, b = Pt(0, 0), Pt(3, 1)
    assert segment_at(a, b, Fraction(3, 2)) == (Fraction(1, 2),)
    assert segment_at(a, b, 2) == (Fraction(2, 3),)
    (y,) = segment_at(a, pt(Fraction(3, 2), Fraction(1, 2)), Fraction(3, 2))
    assert y == Fraction(1, 2)
    (y,) = segment_at(Pt(0, 0), Pt(4, 2), 2)
    assert y == 1 and isinstance(y, int)


def test_segment_at_steep_and_horizontal_segments():
    a, b = Pt(0, 0), Pt(2, 4)
    assert segment_at(a, b, 1) == (2,)
    assert segment_at(a, b, Fraction(1, 2)) == (1,)
    assert segment_at(a, b, 3) == ()
    assert segment_at(Pt(3, 0), Pt(3, 4), 3) == (0, 4)
    assert segment_at(Pt(3, 0), Pt(3, 4), 2) == ()
    assert segment_at(Pt(0, 3), Pt(4, 3), 1) == (3,)


def test_point_in_region(unit_square):
    assert point_in_region(pt(Fraction(1, 2), Fraction(1, 2)),
                           unit_square) == INTERIOR
    assert point_in_region(pt(1, Fraction(1, 2)), unit_square) == BOUNDARY
    assert point_in_region(Pt(2, 2), unit_square) == EXTERIOR


def test_point_in_region_with_hole():
    region = Region((square(0, 0, 6, 6), square(2, 2, 4, 4).reversed_()))
    assert point_in_region(Pt(1, 1), region) == INTERIOR
    assert point_in_region(Pt(3, 3), region) == EXTERIOR
    assert point_in_region(Pt(2, 3), region) == BOUNDARY


def test_int_membership_matches_point_in_region_on_fixtures(hand_pairs):
    import random

    rng = random.Random(7)
    regions = [r for _, a, b in hand_pairs for r in (a, b)]
    dense = regions[:3]
    for region in regions:
        scan = IntMembership(region)
        x0, y0, x1, y1 = region.bbox
        n = 1000 if region in dense else 60
        for _ in range(n):
            q = pt(Fraction(rng.randint(8 * int(x0), 8 * int(x1)), 8),
                   Fraction(rng.randint(8 * int(y0), 8 * int(y1)), 8))
            assert scan.classify(q) == point_in_region(q, region), q


def test_is_visible_convex(unit_square):
    assert is_visible(Pt(0, 0), Pt(1, 1), unit_square)
    assert is_visible(Pt(0, 0), Pt(0, 0), unit_square)


def test_is_visible_blocked_by_notch():
    # U-shape: prongs at x in [0,1] and [3,4], notch between
    u = Region((Ring((Pt(0, 0), Pt(4, 0), Pt(4, 3), Pt(3, 3), Pt(3, 1),
                      Pt(1, 1), Pt(1, 3), Pt(0, 3))),))
    assert region_ok(u)
    assert not is_visible(pt(Fraction(1, 2), 3), pt(Fraction(7, 2), 3), u)
    assert is_visible(Pt(0, 0), Pt(4, 0), u)


def test_is_visible_precondition(unit_square):
    with pytest.raises(PreconditionError):
        is_visible(Pt(0, 0), Pt(9, 9), unit_square)


def test_complement_trivial():
    box = UniverseBox(Pt(0, 0), Pt(10, 10))
    full = complement_in_universe(Region(()), box)
    assert full.canonical() == Region((box.ring(),)).canonical()
    assert complement_in_universe(full, box, margin=0).is_empty


def test_complement_annulus():
    box = UniverseBox(Pt(0, 0), Pt(10, 10))
    inner = Region((square(4, 4, 5, 5),))
    comp = complement_in_universe(inner, box)
    assert len(comp.rings) == 2
    assert point_in_region(pt(Fraction(9, 2), Fraction(9, 2)), comp) == EXTERIOR
    assert point_in_region(Pt(1, 1), comp) == INTERIOR


def test_complement_involution(hand_pairs):
    for _, a, b in hand_pairs:
        box = universe_for([a, b])
        for r in (a, b):
            twice = complement_in_universe(
                complement_in_universe(r, box), box, margin=0)
            assert twice.canonical() == r.canonical()


def ref_cancel_reversed_pairs(rings):
    """Each non-degenerate ring scans the kept rings in order; the first
    one equal to its reversed canonical copy cancels it."""
    out = []
    for r in rings:
        if not r.is_degenerate:
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


def test_cancel_reversed_pairs_three_mutually_reversed_copies():
    ccw = square(0, 0, 2, 2).canonical()
    cw = ccw.reversed_().canonical()
    # each pair cancels once; the third copy is kept
    assert cancel_reversed_pairs([ccw, cw, ccw]) == Region((ccw,))
    assert cancel_reversed_pairs([cw, ccw, cw]) == Region((cw,))
    assert cancel_reversed_pairs([ccw, ccw, cw]) == Region((ccw,))
    assert cancel_reversed_pairs([ccw, cw, ccw, cw]) == Region(())
    # a slit and its reverse never cancel; an unrelated ring of the same
    # length is kept
    slit = Ring((Pt(5, 5), Pt(6, 5), Pt(7, 5), Pt(6, 5))).canonical()
    other = square(3, 0, 4, 1).canonical()
    rings = [ccw, cw, ccw, slit, slit.reversed_().canonical(), other]
    for order in itertools.permutations(rings):
        assert (cancel_reversed_pairs(order)
                == ref_cancel_reversed_pairs(order)), order


def test_complement_margin_error():
    box = UniverseBox(Pt(0, 0), Pt(4, 4))
    with pytest.raises(MarginError):
        complement_in_universe(Region((square(1, 1, 2, 2),)), box)


def test_squared_distance_cases():
    assert squared_distance(Pt(0, 1), (Pt(-1, 0), Pt(1, 0))) == 1
    assert squared_distance(Pt(2, 0), (Pt(-1, 0), Pt(1, 0))) == 1
    assert squared_distance(Pt(1, 1), (Pt(0, 0), Pt(2, 2))) == 0
    d = squared_distance(pt(Fraction(1, 2), 1), (Pt(0, 0), Pt(1, 0)))
    assert d == 1 and isinstance(d, int)


def test_validate_bowtie():
    bow = Region((Ring((Pt(0, 0), Pt(2, 2), Pt(2, 0), Pt(0, 2))),))
    kinds = {v.kind for v in validate_region(bow) if v.severity == "error"}
    assert "proper-crossing" in kinds


def test_validate_vertex_on_edge_ok():
    a = square(0, 0, 4, 4)
    tri = Ring((Pt(4, 1), Pt(6, 0), Pt(6, 2)))
    region = Region((a, tri)).canonical()
    assert region_ok(region)


def test_validate_hole_outside_parent():
    bad = Region((square(0, 0, 2, 2), square(5, 5, 6, 6).reversed_()))
    kinds = {v.kind for v in validate_region(bad) if v.severity == "error"}
    # a hole outside every ring is at depth 0, where it must be CCW
    assert kinds == {"orientation"}


def test_validate_degenerate_flagged_not_error():
    slit = Region((square(0, 0, 4, 4), Ring((Pt(10, 0), Pt(11, 0)))))
    vio = validate_region(slit)
    assert any(v.severity == "degenerate" for v in vio)
    assert region_ok(slit)


def test_validate_nesting_three_levels():
    # an island in a hole in an outer ring, listed innermost first
    outer = square(0, 0, 10, 10)
    hole = square(2, 2, 8, 8).reversed_()
    island = square(4, 4, 6, 6)
    region = Region((island, outer, hole))
    assert region.parents == (2, None, 1)
    assert validate_region(region) == []
    flipped = Region((island.reversed_(), outer, hole))
    assert flipped.parents == (2, None, 1)
    assert validate_region(flipped) == [Violation(
        "orientation", "ring 0 at depth 2 must be CCW", "error")]


def test_validate_region_work_is_near_linear_on_many_holes(monkeypatch):
    """On a square with 225 unit holes, the edge pairs come from the sweep
    and a hole is tested for nesting only inside rings whose bounding box
    holds its first vertex: at most 1 000 segment intersections (the 904
    edge pairs meeting at ring corners) and one point classification per
    hole."""
    calls = {"segment_intersection": 0, "point_in_region": 0}
    for name in calls:
        real = getattr(exact_core, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(exact_core, name, counted)
    assert validate_region(holed_square(15)) == []
    assert calls["segment_intersection"] <= 1000, calls
    assert calls["point_in_region"] <= 225, calls


def _quarter_turns(region: Region, k: int) -> Region:
    def turn(p: Pt) -> Pt:
        for _ in range(k):
            p = Pt(-p.y, p.x)
        return p
    return Region(tuple(Ring(tuple(map(turn, r.pts))) for r in region.rings))


@pytest.mark.parametrize("k", range(4))
def test_validate_edge_overlap_severity(k):
    outer = square(0, 0, 4, 4)
    # a hole on the outer ring's edge runs along it the other way: a
    # zero-width pinch, flagged but valid
    notch = _quarter_turns(Region((outer, square(1, 0, 3, 2).reversed_())), k)
    overlaps = [v for v in validate_region(notch) if v.kind == "edge-overlap"]
    assert [v.severity for v in overlaps] == ["degenerate"]
    assert region_ok(notch)
    # an island on the same edge runs along it the same way: invalid
    doubled = _quarter_turns(Region((outer, square(1, 0, 3, 2))), k)
    overlaps = [v for v in validate_region(doubled)
                if v.kind == "edge-overlap"]
    assert [v.severity for v in overlaps] == ["error"]
    assert not region_ok(doubled)


def test_trace_cycles_dangling_end_is_an_invariant_error():
    with pytest.raises(InternalInvariantError, match="dangling"):
        trace_cycles([(Pt(0, 0), Pt(1, 0)), (Pt(1, 0), Pt(1, 1))])


def test_ring_canonical_collapses_collinear():
    r = Ring((Pt(0, 0), Pt(1, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2))).canonical()
    assert r.pts == (Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2))


def test_ring_canonical_keeps_reversal_spur():
    r = Ring((Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(6, 2), Pt(4, 2), Pt(4, 4),
              Pt(0, 4))).canonical()
    assert Pt(6, 2) in r.pts
    assert r.collapse_spurs().pts == Ring(
        (Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4))).canonical().pts


# ---------------------------------------------------------------------------
# point_in_region against the oracle's independent integer scan


def _probe_points(region: Region) -> tuple[list[Pt], list[Pt]]:
    """(a 1/4-spaced grid one step beyond the bbox, every vertex and every
    edge midpoint)."""
    x0, y0, x1, y1 = region.bbox
    grid = [pt(Fraction(i, 4), Fraction(j, 4))
            for i in range(4 * math.floor(x0) - 1, 4 * math.ceil(x1) + 2)
            for j in range(4 * math.floor(y0) - 1, 4 * math.ceil(y1) + 2)]
    mids = [pt(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))
            for a, b in region.edges() if a != b]
    return grid, sorted(region.vertex_positions()) + mids


def test_point_in_region_matches_int_membership(hand_pairs):
    """Every probe against the oracle's scalar integer scan, the three-way
    class each time; the vertices, the midpoints and the lattice points
    also after a far translation."""
    for name, region in membership_regions(hand_pairs):
        if region.is_empty:
            continue
        grid, vertices_and_mids = _probe_points(region)
        points = grid + vertices_and_mids
        got = [point_in_region(q, region) for q in points]
        scan = IntMembership(region)
        assert got == [scan.classify(q) for q in points], name
        assert set(got) == {INTERIOR, BOUNDARY, EXTERIOR}, name
        far = shifted(region, *FAR)
        far_scan = IntMembership(far)
        kept = [(q, c) for i, (q, c) in enumerate(zip(points, got))
                if i >= len(grid) or q.is_lattice]
        moved = [pt(q.x + FAR[0], q.y + FAR[1]) for q, _ in kept]
        want = [c for _, c in kept]
        assert [point_in_region(q, far) for q in moved] == want, name
        assert [far_scan.classify(q) for q in moved] == want, name
