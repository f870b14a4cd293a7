import random
from collections import Counter
from fractions import Fraction

import pytest

from latbool import arrangement, exact_core
from latbool.arrangement import (
    CONVEX,
    REFLEX,
    ExactVertex,
    exact_boolean,
    exact_intersection,
    find_segment_intersections,
)
from latbool.decomposition import Wall, reflex_vertical_decomposition
from latbool.exact_core import (
    BOUNDARY,
    INTERIOR,
    PreconditionError,
    Pt,
    Region,
    Ring,
    _from_frame,
    complement_in_universe,
    point_in_region,
    pt,
    squared_distance,
    universe_for,
)
from latbool.fixtures import random_pairs

from brute import brute_boolean, properly_crossing_pairs
from conftest import (
    CORPUS_SEED,
    FAR,
    cell_of_edge_start,
    crack_middle_operands,
    shifted,
    square,
)


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


def _overlay_inputs(name: str, a: Region, b: Region):
    """The operand pairs `exact_overlay` intersects: A*B, A*Bc and Ac*Bc."""
    box = universe_for([a, b])
    ac = complement_in_universe(a, box)
    bc = complement_in_universe(b, box)
    return [(f"{name}.AB", a, b), (f"{name}.ABc", a, bc),
            (f"{name}.AcBc", ac, bc)]


def _offset_points(piece, pieces) -> tuple[Pt, Pt]:
    """m + eps*n and m - eps*n for the piece's midpoint m and left normal n,
    with eps = 2^-k so small that the offset meets no other piece."""
    a, b = piece.a, piece.b
    m = pt(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))
    nx, ny = a.y - b.y, b.x - a.x
    clearance = min((squared_distance(m, (q.a, q.b)) for q in pieces
                     if q is not piece), default=1)
    eps = Fraction(1, 2)
    while eps * eps * (nx * nx + ny * ny) >= clearance:
        eps /= 2
    return (pt(m.x + eps * nx, m.y + eps * ny),
            pt(m.x - eps * nx, m.y - eps * ny))


def test_piece_sides_match_offset_points(hand_pairs, monkeypatch):
    """Each atomic piece's sides, derived from its own edges and from its
    predecessor on the overlay's sweep line, agree with point membership
    just off the piece: the overlay emits the piece toward the side inside
    both operands, and a slit piece inside on both sides as a doubled
    crack.  Every case is also checked far from the origin."""
    # four pieces fan out of (2, 2), whose (a, b) order is not their
    # bottom-to-top order, and B's vertical edge at x = 2 lies above them
    fan = Region((Ring((Pt(2, 2), Pt(6, 0), Pt(10, 6), Pt(4, 8))),))
    fan_vertical = Region((Ring((Pt(2, 2), Pt(9, 1), Pt(3, 3))),
                           square(2, 4, 3, 5)))
    cases = _overlay_inputs("fan-vertical", fan, fan_vertical)
    for name, a, b in hand_pairs:
        cases += _overlay_inputs(name, a, b)
    for name, a, b in random_pairs(16, seed=CORPUS_SEED):
        cases += _overlay_inputs(name, a, b)
    comp, pixels_comp, _ = crack_middle_operands()
    cases.append(("rand-015.middle", comp, pixels_comp))
    cases += [(f"{name}-far", shifted(a, *FAR), shifted(b, *FAR))
              for name, a, b in cases]

    seen: dict[str, list] = {}
    real_atomize = arrangement._atomize

    def atomize(*args):
        seen["pieces"] = real_atomize(*args)
        return seen["pieces"]

    def trace(directed):
        seen["directed"] = list(directed)
        return []  # only the classification is checked, not the rings

    def from_frame(points, d):
        seen["d"] = d  # the overlay's frame, to map the pieces back
        return _from_frame(points, d)

    monkeypatch.setattr(arrangement, "_atomize", atomize)
    monkeypatch.setattr(arrangement, "trace_rings", trace)
    monkeypatch.setattr(arrangement, "_from_frame", from_frame)
    cracks = 0
    for name, a, b in cases:
        exact_intersection(a, b, check=False)
        pieces = seen["pieces"]
        back = _from_frame({p for e in pieces for p in (e.a, e.b)}, seen["d"])
        unframed = [e._replace(a=back[e.a], b=back[e.b]) for e in pieces]
        want: list[tuple[Pt, Pt]] = []
        for e, u in zip(pieces, unframed):
            sides = []
            for q in _offset_points(u, unframed):
                where = (point_in_region(q, a), point_in_region(q, b))
                assert BOUNDARY not in where, (name, u, q)
                sides.append(where == (INTERIOR, INTERIOR))
            in_l, in_r = sides
            if in_l != in_r:
                want.append((e.a, e.b) if in_l else (e.b, e.a))
            elif in_l and e.slit_only:
                want += [(e.a, e.b), (e.b, e.a)]
                cracks += 1
        assert Counter(seen["directed"]) == Counter(want), name
    assert cracks > 0


def _frame_cases(hand_pairs):
    """The overlay inputs of the hand pairs and of a corpus sample, and the
    middle overlay of rand-015 with rational operand vertices."""
    cases = []
    for name, a, b in hand_pairs + random_pairs(16, seed=CORPUS_SEED):
        cases += _overlay_inputs(name, a, b)
    comp, pixels_comp, _ = crack_middle_operands()
    cases.append(("rand-015.middle", comp, pixels_comp))
    return cases


@pytest.mark.parametrize("s, dx, dy", [(3, 0, 0), (1, *FAR)],
                         ids=["scaled", "far"])
def test_overlay_and_decomposition_commute_with_scaling_and_translation(
        hand_pairs, s, dx, dy):
    """Mapping the operands by p -> s*p + (dx, dy) maps the overlay's
    tagged rings and the decomposition's walls, cells, edge->cell map and
    visibility lists the same way, and changes nothing else."""
    def f(p: Pt) -> Pt:
        return pt(p.x * s + dx, p.y * s + dy)

    def moved(region: Region) -> Region:
        return Region(tuple(Ring(tuple(f(p) for p in ring.pts))
                            for ring in region.rings))

    cases = _frame_cases(hand_pairs)
    walls = 0
    for name, a, b in cases:
        x = exact_intersection(a, b, check=False)
        y = exact_intersection(moved(a), moved(b), check=False)
        assert y.rings == tuple(
            tuple(ExactVertex(f(v.pos), v.convexity) for v in ring)
            for ring in x.rings), name
        # k counts non-lattice vertices, which scaling can make lattice
        assert (y.stats.n, y.stats.h) == (x.stats.n, x.stats.h), name
        if s == 1:
            assert y.stats == x.stats, name
        dec_x = reflex_vertical_decomposition(x)
        dec_y = reflex_vertical_decomposition(y)
        assert dec_y.walls == tuple(Wall(f(w.source), f(w.hit))
                                  for w in dec_x.walls), name
        assert list(dec_y.cells) == [
            Ring(tuple(f(p) for p in c.pts)) for c in dec_x.cells], name
        assert cell_of_edge_start(y, dec_y) == {
            (f(u), f(v)): i
            for (u, v), i in cell_of_edge_start(x, dec_x).items()}, name
        assert dec_y.visible_reflex == {
            (f(u), f(v)): tuple(map(f, seen))
            for (u, v), seen in dec_x.visible_reflex.items()}, name
        walls += len(dec_x.walls)
    assert walls > 0


def test_overlay_and_decomposition_agree_without_a_frame(hand_pairs,
                                                         monkeypatch):
    """With `_FRAME_LIMIT` at 0 every frame is the identity, as for inputs
    whose denominators have a large lcm: the overlay and the decomposition
    then run on the points as they are, with the same results."""
    def run(a, b):
        x = exact_intersection(a, b, check=False)
        d = reflex_vertical_decomposition(x)
        return (x.rings, x.stats, d.walls, list(d.cells),
                cell_of_edge_start(x, d), d.visible_reflex)

    cases = _frame_cases(hand_pairs)
    framed = [run(a, b) for _, a, b in cases]
    monkeypatch.setattr(exact_core, "_FRAME_LIMIT", 0)
    for (name, a, b), want in zip(cases, framed):
        assert run(a, b) == want, name
