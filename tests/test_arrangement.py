import random
from fractions import Fraction

import pytest

from latbool.arrangement import (
    CONVEX,
    REFLEX,
    exact_boolean,
    exact_intersection,
    find_segment_intersections,
)
from latbool.exact_core import (
    BOUNDARY,
    PreconditionError,
    Pt,
    Region,
    Ring,
    point_in_region,
    pt,
    universe_for,
)
from latbool.oracle import brute_boolean, properly_crossing_pairs

from conftest import square


def test_axis_aligned_overlap():
    a = Region((square(0, 0, 4, 4),))
    b = Region((square(2, 2, 6, 6),))
    x = exact_intersection(a, b)
    assert x.region.canonical() == Region((square(2, 2, 4, 4),)).canonical()
    assert x.stats.k == 0
    assert all(v.pos.is_lattice for ring in x.rings for v in ring)


def test_e2_triangles(e2_pair):
    a, b = e2_pair
    x = exact_intersection(a, b)
    apex = pt(Fraction(5, 2), Fraction(5, 2))
    expected = Region((Ring((Pt(0, 0), Pt(5, 0), apex)),)).canonical()
    assert x.region.canonical() == expected
    assert x.stats.k == 1
    tags = {v.pos: v.convexity for ring in x.rings for v in ring}
    assert tags[apex] == CONVEX


def test_disjoint_empty():
    a = Region((square(0, 0, 1, 1),))
    b = Region((square(3, 3, 4, 4),))
    x = exact_intersection(a, b)
    assert x.is_empty
    assert x.stats.k == 0 and x.stats.h == 0


def test_union_of_disjoint_squares():
    a = Region((square(0, 0, 1, 1),))
    b = Region((square(3, 3, 4, 4),))
    u = exact_boolean(a, b, "union", universe_for([a, b]))
    assert len(u.rings) == 2
    assert u.region.canonical() == Region(
        (square(0, 0, 1, 1), square(3, 3, 4, 4))).canonical()


def test_self_difference_empty():
    a = Region((square(0, 0, 4, 4),))
    assert exact_boolean(a, a, "difference", universe_for([a])).is_empty


def test_union_e2_oracle_sampled(e2_pair):
    a, b = e2_pair
    u = exact_boolean(a, b, "union", universe_for([a, b]))
    rng = random.Random(11)
    samples = [pt(Fraction(rng.randint(-8, 48), 8),
                  Fraction(rng.randint(-8, 48), 8)) for _ in range(500)]
    for row in brute_boolean(a, b, "union", samples):
        if row.expected == "skip":
            continue
        got = point_in_region(row.point, u.region)
        if got == BOUNDARY:
            continue
        assert got == row.expected, (row, got)


def test_commutativity(hand_pairs):
    for _, a, b in hand_pairs[:8]:
        x1 = exact_intersection(a, b).region.canonical()
        x2 = exact_intersection(b, a).region.canonical()
        assert x1 == x2


def test_crossing_vertices_convex(hand_pairs):
    for _, a, b in hand_pairs:
        x = exact_intersection(a, b)
        for ring in x.rings:
            for v in ring:
                if not v.pos.is_lattice:
                    assert v.convexity == CONVEX
                if v.convexity == REFLEX:
                    assert v.pos.is_lattice


def test_stats_h_matches_brute(hand_pairs):
    for _, a, b in hand_pairs:
        x = exact_intersection(a, b)
        brute = properly_crossing_pairs(a.edge_list(), b.edge_list())
        assert x.stats.h == brute


def test_k_le_h(hand_pairs):
    for _, a, b in hand_pairs:
        s = exact_intersection(a, b).stats
        assert s.k <= s.h


def test_membership_oracle_on_fixtures(hand_pairs):
    rng = random.Random(3)
    for name, a, b in hand_pairs:
        box = universe_for([a, b])
        for op in ("intersection", "union", "difference"):
            x = exact_boolean(a, b, op, box)
            x0, y0 = box.min
            x1, y1 = box.max
            samples = [pt(Fraction(rng.randint(8 * x0, 8 * x1), 8),
                          Fraction(rng.randint(8 * y0, 8 * y1), 8))
                       for _ in range(120)]
            for row in brute_boolean(a, b, op, samples):
                if row.expected == "skip":
                    continue
                got = point_in_region(row.point, x.region)
                if got == BOUNDARY:
                    continue
                assert got == row.expected, (name, op, row, got)


def test_invalid_input_rejected():
    bow = Region((Ring((Pt(0, 0), Pt(2, 2), Pt(2, 0), Pt(0, 2))),))
    with pytest.raises(PreconditionError):
        exact_intersection(bow, bow)


def test_find_segment_intersections_counts():
    segs = [(Pt(0, 0), Pt(4, 4)), (Pt(0, 4), Pt(4, 0)), (Pt(2, -1), Pt(2, 5))]
    hits = find_segment_intersections(segs)
    pairs = {(i, j) for i, j, _ in hits}
    assert pairs == {(0, 1), (0, 2), (1, 2)}
