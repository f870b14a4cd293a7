import random
from fractions import Fraction

import pytest

from latbool import rounding
from latbool.arrangement import (
    ExactRegion,
    ExactVertex,
    OverlayStats,
    exact_intersection,
    vertex_convexity,
)
from latbool.decomposition import reflex_vertical_decomposition
from latbool.exact_core import (
    PreconditionError,
    Pt,
    Region,
    Ring,
    point_in_region,
    pt,
)
from latbool.fixtures import random_pairs
from latbool.oracle import brute_nvlp, brute_nvlp_region, vertically_visible
from latbool.setops import sandwich

from conftest import CORPUS_SEED, shifted, square


def _identity_exact(region):
    return exact_intersection(region, region)


def test_convex_region_single_cell(e2_pair):
    a, b = e2_pair
    x = exact_intersection(a, b)
    d = reflex_vertical_decomposition(x)
    assert len(d.cells) == 1
    assert not d.walls
    assert all(not v for v in d.visible_reflex.values())
    apex = pt(Fraction(5, 2), Fraction(5, 2))
    assert d.cell_of_vertex(apex) is d.cells[0]


def test_l_shape_decomposition():
    l_region = Region((Ring((Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2),
                             Pt(2, 4), Pt(0, 4))),))
    d = reflex_vertical_decomposition(_identity_exact(l_region))
    assert len(d.walls) == 1
    assert d.walls[0].source == Pt(2, 2) and d.walls[0].hit == Pt(2, 0)
    assert len(d.cells) == 2
    # vertex (4,2) maps to the right cell [2,4]x[0,2]
    cell = d.cell_of_vertex(Pt(4, 2))
    assert cell.ring.canonical() == square(2, 0, 4, 2).canonical()


def test_hole_emits_four_walls_and_area_partition():
    holed = Region((square(0, 0, 6, 6), square(2, 2, 4, 4).reversed_()))
    d = reflex_vertical_decomposition(_identity_exact(holed))
    assert len(d.walls) == 4
    total = sum(c.ring.signed_area2 for c in d.cells)
    assert total == 2 * (36 - 4)


def test_area_partition_on_fixtures(hand_pairs):
    for name, a, b in hand_pairs:
        x = exact_intersection(a, b)
        if x.is_empty:
            continue
        d = reflex_vertical_decomposition(x)
        area_cells = sum(c.ring.signed_area2 for c in d.cells)
        area_region = sum(r.signed_area2 for r in x.region.rings)
        assert area_cells == area_region, name


def test_cells_cover_interior_points(hand_pairs):
    rng = random.Random(5)
    for name, a, b in hand_pairs[:6]:
        x = exact_intersection(a, b)
        if x.is_empty:
            continue
        d = reflex_vertical_decomposition(x)
        x0, y0, x1, y1 = x.region.bbox
        hits = 0
        for _ in range(200):
            q = pt(Fraction(rng.randint(int(8 * x0), int(8 * x1)), 8),
                   Fraction(rng.randint(int(8 * y0), int(8 * y1)), 8))
            if point_in_region(q, x.region) != "interior":
                continue
            hits += 1
            containing = [c for c in d.cells if c.contains(q)]
            assert containing, (name, q)
        assert hits > 0


def test_cell_nvlp_equals_region_nvlp(hand_pairs):
    for name, a, b in hand_pairs:
        x = exact_intersection(a, b)
        if x.is_empty:
            continue
        d = reflex_vertical_decomposition(x)
        for pos in sorted({v.pos for ring in x.rings for v in ring}):
            if pos.is_lattice:
                continue
            cell = d.cell_of_vertex(pos)
            assert brute_nvlp(pos, cell.ring) == \
                brute_nvlp_region(pos, x.region), (name, pos)


def test_vertex_cell_map_takes_the_first_cell_in_order(hand_pairs):
    """Each vertex maps to the first cell, by least vertex and then by
    ring, whose boundary visits it; a reflex vertex lies on several."""
    shared = 0
    for name, a, b in hand_pairs + random_pairs(16, seed=CORPUS_SEED):
        x = exact_intersection(a, b)
        d = reflex_vertical_decomposition(x)
        order = sorted(d.cells, key=lambda c: (min(c.ring.pts), c.ring.pts))
        for pos in {v.pos for ring in x.rings for v in ring}:
            visits = [c for c in order if pos in c.incident_vertices]
            shared += len(visits) > 1
            want = visits[0] if visits else next(
                c for c in order if c.contains(pos))
            assert d.cell_of_vertex(pos) is want, (name, pos)
    assert shared > 0


def test_walls_stop_at_reflex_vertex_stack():
    # two notches aligned on one column: the walls meet at the vertices
    zig = Region((Ring((Pt(0, 0), Pt(6, 0), Pt(6, 6), Pt(4, 6), Pt(4, 4),
                        Pt(2, 4), Pt(2, 2), Pt(0, 2))),))
    d = reflex_vertical_decomposition(_identity_exact(zig))
    segs = {(w.source, w.hit) for w in d.walls}
    assert (Pt(4, 4), Pt(4, 0)) in segs
    assert (Pt(2, 2), Pt(2, 0)) in segs


def test_vertical_visibility_public():
    l_region = Region((Ring((Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2),
                             Pt(2, 4), Pt(0, 4))),))
    assert vertically_visible(Pt(2, 2), (Pt(0, 0), Pt(4, 0)), l_region)
    assert not vertically_visible(Pt(2, 2), (Pt(0, 4), Pt(0, 0)), l_region)


def test_empty_region_decomposition():
    x = exact_intersection(Region((square(0, 0, 2, 2),)),
                           Region((square(5, 5, 7, 7),)))
    assert x.is_empty
    d = reflex_vertical_decomposition(x)
    assert d.cells == () and d.walls == ()
    assert d.cell_index_of_vertex == {} and d.visible_reflex == {}
    assert d.cell_of_edge_start == {}
    with pytest.raises(PreconditionError):
        d.cell_of_vertex(Pt(0, 0))


# ---------------------------------------------------------------------------
# visibility lists against the independent per-pair test


def _pipeline_regions(monkeypatch, pairs, dx=0, dy=0):
    """Every region the rounding pipeline decomposes while building the
    sandwiches of the pairs: exact results, complement-side intersections
    and the outer roundings' middle regions (with pixel slits)."""
    seen = []
    real = rounding.reflex_vertical_decomposition

    def spy(region):
        seen.append(region)
        return real(region)

    with monkeypatch.context() as m:
        m.setattr(rounding, "reflex_vertical_decomposition", spy)
        for _, a, b in pairs:
            for op in ("intersection", "union", "difference"):
                sandwich(shifted(a, dx, dy), shifted(b, dx, dy), op)
    return seen


def _check_visibility_lists(x) -> int:
    """Each list holds exactly the filtered, vertically visible reflex
    vertices of its directed edge, in (parameter, distance) order."""
    d = reflex_vertical_decomposition(x)
    region = x.region
    edges = {(a, b) for a, b in region.edges() if a != b}
    assert set(d.visible_reflex) == edges
    reflex = sorted(x.reflex_positions())
    checked = 0
    for (a, b), listed in d.visible_reflex.items():
        if a.x == b.x:
            assert listed == ()
            continue
        lo, hi = (a, b) if a.x < b.x else (b, a)
        keys = []
        for r in listed:
            fy = lo.y + Fraction(r.x - lo.x, hi.x - lo.x) * (hi.y - lo.y)
            keys.append((Fraction(r.x - a.x, b.x - a.x), abs(r.y - fy)))
        assert keys == sorted(keys), (a, b, listed)
        eligible = []
        for r in reflex:
            if r == a or r == b or not lo.x < r.x < hi.x:
                continue
            if (b.x - a.x) * (r.y - a.y) - (b.y - a.y) * (r.x - a.x) < 0:
                continue
            eligible.append(r)
            checked += 1
            assert (r in listed) == vertically_visible(r, (a, b), region), \
                (a, b, r)
        assert set(listed) <= set(eligible), (a, b, listed)
    return checked


def test_visibility_lists_match_oracle_on_hand_fixtures(hand_pairs,
                                                        monkeypatch):
    regions = _pipeline_regions(monkeypatch, hand_pairs)
    assert sum(_check_visibility_lists(x) for x in regions) > 0


def test_visibility_lists_match_oracle_on_cracked_regions(monkeypatch):
    # corpus pairs whose pipeline decomposes cracked regions: an edge and
    # its reverse both on the boundary, one face on each side
    names = {"rand-015", "rand-042", "rand-050", "rand-135", "rand-182"}
    pairs = [p for p in random_pairs(200, seed=CORPUS_SEED) if p[0] in names]
    regions = _pipeline_regions(monkeypatch, pairs)

    def cracked(x):
        edges = {(a, b) for a, b in x.region.edges() if a != b}
        return any((b, a) in edges for a, b in edges)

    assert sum(map(cracked, regions)) >= len(names)
    assert sum(_check_visibility_lists(x) for x in regions) > 0


def test_visibility_through_vertical_edge_on_reflex_line():
    # the line x=4 through the reflex vertex (4,4) runs along the
    # boundary: the L's own edge above it and a hole's left edge below it
    l_holed = Region((
        Ring((Pt(0, 0), Pt(10, 0), Pt(10, 4), Pt(4, 4), Pt(4, 10),
              Pt(0, 10))),
        square(4, 1, 6, 3).reversed_(),
        square(1, 6, 3, 8).reversed_(),
    ))
    x = _identity_exact(l_holed)
    d = reflex_vertical_decomposition(x)
    assert Pt(4, 4) in d.visible_reflex[(Pt(0, 0), Pt(10, 0))]
    assert vertically_visible(Pt(4, 4), (Pt(0, 0), Pt(10, 0)), x.region)
    assert _check_visibility_lists(x) > 0
    for dx, dy in ((-37, -101), (10**9 + 7, -10**12)):
        assert _check_visibility_lists(
            _identity_exact(shifted(l_holed, dx, dy))) > 0


def _exact_as_given(region):
    """An ExactRegion with the rings exactly as given (the overlay would
    fill a zero-width crack)."""
    rings = []
    for ring in region.rings:
        m = len(ring.pts)
        rings.append(tuple(
            ExactVertex(p, vertex_convexity(ring.pts[i - 1], p,
                                            ring.pts[(i + 1) % m]))
            for i, p in enumerate(ring.pts)))
    return ExactRegion(tuple(rings), OverlayStats(0, 0, 0))


def test_visibility_blocked_by_crack_and_owned_by_one_side():
    # a crack from the right side to its tip (4,5), over a notch whose
    # reflex corners (6,2) and (8,2) lie below it
    cracked = Region((Ring((
        Pt(0, 0), Pt(6, 0), Pt(6, 2), Pt(8, 2), Pt(8, 0), Pt(10, 0),
        Pt(10, 5), Pt(4, 5), Pt(10, 5), Pt(10, 10), Pt(0, 10))),))
    for dx, dy in ((0, 0), (-37, -101), (10**9 + 7, -10**12)):
        x = _exact_as_given(shifted(cracked, dx, dy))
        d = reflex_vertical_decomposition(x)
        notch = Pt(6 + dx, 2 + dy)
        top = (Pt(10 + dx, 10 + dy), Pt(dx, 10 + dy))
        below = (Pt(10 + dx, 5 + dy), Pt(4 + dx, 5 + dy))
        # the crack is zero-width, yet opaque from above
        assert notch not in d.visible_reflex[top]
        # only the crack's lower side owns the notch
        assert notch in d.visible_reflex[below]
        assert notch not in d.visible_reflex[below[::-1]]
        assert _check_visibility_lists(x) > 0


@pytest.mark.parametrize("dx, dy", [(-37, -101), (10**9 + 7, -10**12)])
def test_visibility_lists_match_oracle_translated(dx, dy, monkeypatch):
    pairs = random_pairs(6, seed=CORPUS_SEED)
    regions = _pipeline_regions(monkeypatch, pairs, dx, dy)
    assert sum(_check_visibility_lists(x) for x in regions) > 0
