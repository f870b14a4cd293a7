import random
from fractions import Fraction

import pytest

from latbool import rounding
from latbool.arrangement import exact_intersection
from latbool.decomposition import Decomposition, reflex_vertical_decomposition
from latbool.exact_core import (
    Faces,
    InternalInvariantError,
    PreconditionError,
    Pt,
    Region,
    Ring,
    _from_frame,
    point_in_region,
    pt,
)
from latbool.fixtures import random_pairs
from latbool.setops import sandwich

from brute import (
    brute_nvlp,
    brute_nvlp_region,
    in_convex_cell,
    trace_cycles,
    vertically_visible,
)
from conftest import (
    CORPUS_SEED,
    cell_of_edge_start,
    exact_as_given,
    occurrence_cells,
    shifted,
    square,
    star_ladder_pairs,
)


def _identity_exact(region):
    return exact_intersection(region, region)


def test_convex_region_single_cell(e2_pair):
    a, b = e2_pair
    x = exact_intersection(a, b)
    d = reflex_vertical_decomposition(x)
    assert len(d.cells) == 1
    assert not d.walls
    assert all(not v for v in d.visible_reflex.values())
    assert all(cell is d.cells[0] for _, cell in occurrence_cells(x, d))


def test_l_shape_decomposition():
    l_region = Region((Ring((Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2),
                             Pt(2, 4), Pt(0, 4))),))
    x = _identity_exact(l_region)
    d = reflex_vertical_decomposition(x)
    assert len(d.walls) == 1
    assert d.walls[0].source == Pt(2, 2) and d.walls[0].hit == Pt(2, 0)
    assert len(d.cells) == 2
    right = square(2, 0, 4, 2).canonical()
    left = square(0, 0, 2, 4).canonical()
    # the reflex corner (2,2) lies on both cells; its outgoing edge, up to
    # (2,4), bounds the left one
    want = {Pt(0, 0): left, Pt(4, 0): right, Pt(4, 2): right,
            Pt(2, 2): left, Pt(2, 4): left, Pt(0, 4): left}
    assert dict(occurrence_cells(x, d)) == want


def test_hole_emits_four_walls_and_area_partition():
    holed = Region((square(0, 0, 6, 6), square(2, 2, 4, 4).reversed_()))
    d = reflex_vertical_decomposition(_identity_exact(holed))
    assert len(d.walls) == 4
    total = sum(c.signed_area2 for c in d.cells)
    assert total == 2 * (36 - 4)


def test_area_partition_on_fixtures(hand_pairs):
    for name, a, b in hand_pairs:
        x = exact_intersection(a, b)
        if x.is_empty:
            continue
        d = reflex_vertical_decomposition(x)
        area_cells = sum(c.signed_area2 for c in d.cells)
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
            containing = [c for c in d.cells if in_convex_cell(q, c)]
            assert containing, (name, q)
        assert hits > 0


def test_cell_nvlp_equals_region_nvlp(hand_pairs):
    for name, a, b in hand_pairs:
        x = exact_intersection(a, b)
        if x.is_empty:
            continue
        d = reflex_vertical_decomposition(x)
        for pos, cell in occurrence_cells(x, d):
            if pos.is_lattice:
                continue
            assert brute_nvlp(pos, cell) == \
                brute_nvlp_region(pos, x.region), (name, pos)


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
    assert d.visible_reflex == {} and cell_of_edge_start(x, d) == {}
    with pytest.raises(PreconditionError):
        d.cell_at_edge_start(Pt(0, 0), Pt(2, 0))


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
    assert set(cell_of_edge_start(x, d)) == edges
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


def test_visibility_blocked_by_crack_and_owned_by_one_side():
    # a crack from the right side to its tip (4,5), over a notch whose
    # reflex corners (6,2) and (8,2) lie below it
    cracked = Region((Ring((
        Pt(0, 0), Pt(6, 0), Pt(6, 2), Pt(8, 2), Pt(8, 0), Pt(10, 0),
        Pt(10, 5), Pt(4, 5), Pt(10, 5), Pt(10, 10), Pt(0, 10))),))
    for dx, dy in ((0, 0), (-37, -101), (10**9 + 7, -10**12)):
        x = exact_as_given(shifted(cracked, dx, dy))
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


# ---------------------------------------------------------------------------
# cells walked on demand against one full trace of the piece graph


def _traced_cells(d) -> tuple[list[Ring], dict]:
    """The cells of d as one full pass of the reference face walk
    (`brute.trace_cycles`) over its pieces gives them: every face
    canonicalized, degenerate faces dropped, in trace order, mapped out of
    the frame; and each piece's cell index."""
    rings: list[Ring] = []
    piece_cell = {}
    for cycle in trace_cycles(list(d._faces.pieces)):
        ring = Ring(tuple(cycle)).canonical()
        if len(ring.pts) < 3 or ring.is_degenerate:
            continue
        assert ring.is_ccw
        n = len(cycle)
        for i in range(n):
            piece_cell[(cycle[i], cycle[(i + 1) % n])] = len(rings)
        back = _from_frame(ring.pts, d._scale)
        # canonical again out of the frame, as the marked cells claim
        rings.append(Ring(tuple(back[p] for p in ring.pts)).canonical())
    return rings, piece_cell


def _check_cells_on_demand(x) -> int:
    """For every directed edge of x: the cell read before `cells` is the
    full trace's cell, and the same object as its entry in `cells`; in a
    second decomposition, read after `cells`, it is that entry too.  An
    edge without a cell, or not in the decomposition, raises."""
    d, d_full = reflex_vertical_decomposition(x), reflex_vertical_decomposition(x)
    rings, piece_cell = _traced_cells(d)
    assert list(d_full.cells) == rings
    edges = list(dict.fromkeys(e for e in x.region.edges() if e[0] != e[1]))
    read = []
    for u, v in edges:
        want = piece_cell.get(d._faces.pieces[d._first_piece[(u, v)]])
        if want is None:
            with pytest.raises(PreconditionError):
                d.cell_at_edge_start(u, v)
            continue
        cell = d.cell_at_edge_start(u, v)
        assert cell == rings[want], (u, v)
        read.append((cell, want))
        assert d_full.cell_at_edge_start(u, v) is d_full.cells[want]
    for u, v in edges:
        if (v, u) not in d._first_piece:
            with pytest.raises(PreconditionError):
                d.cell_at_edge_start(v, u)
    assert list(d.cells) == rings
    for cell, want in read:
        assert cell is d.cells[want]
    return len(read)


def test_cells_on_demand_match_full_trace(hand_pairs, monkeypatch):
    """Every region the pipeline decomposes (each op's exact overlay and
    each outer rounding's middle region) for the hand fixtures, a corpus
    sample and the star ladder."""
    pairs = (list(hand_pairs) + random_pairs(8, seed=CORPUS_SEED)
             + star_ladder_pairs())
    regions = _pipeline_regions(monkeypatch, pairs)
    assert sum(_check_cells_on_demand(x) for x in regions) > 2000


def test_cell_of_a_degenerate_face_is_refused():
    # a lone slit ring bounds a zero-area face, which is no cell
    slit = (Pt(8, 1), Pt(9, 1))
    x = exact_as_given(Region((square(0, 0, 4, 4), Ring(slit))))
    d = reflex_vertical_decomposition(x)
    for u, v in (slit, slit[::-1]):
        with pytest.raises(PreconditionError):
            d.cell_at_edge_start(u, v)
    assert _check_cells_on_demand(x) == 4
    assert list(d.cells) == [square(0, 0, 4, 4).canonical()]


def test_face_walk_that_never_closes_raises():
    # A->B enters the cycle B->C->D->B, which never leads back to A->B
    a, b, c, d = Pt(0, 0), Pt(2, 0), Pt(3, 1), Pt(2, 2)
    faces = Faces([(a, b), (b, c), (c, d), (d, b)])
    with pytest.raises(InternalInvariantError, match="did not close"):
        faces.through(0)


def test_clockwise_cell_is_an_invariant_error():
    # a lone clockwise square: its face closes, but with the interior on
    # the right
    a, b, c, d = Pt(0, 0), Pt(0, 2), Pt(2, 2), Pt(2, 0)
    dec = Decomposition({}, [], [(a, b), (b, c), (c, d), (d, a)],
                        {(a, b): 0}, 1)
    with pytest.raises(InternalInvariantError, match="clockwise"):
        dec.cell_at_edge_start(a, b)
