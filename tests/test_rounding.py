import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from latbool import exact_core, rounding
from latbool.arrangement import exact_intersection
from latbool.decomposition import ConvexCell, reflex_vertical_decomposition
from latbool.exact_core import (
    Pt,
    Region,
    Ring,
    pt,
    region_ok,
    universe_for,
)
from latbool.lpr import parse_region
from latbool.oracle import check_hausdorff, check_inclusion
from latbool.rounding import (
    RANK_INSERTED,
    RANK_ORIGINAL,
    _removal_topology_ok,
    build_chain,
    convexify_cleanup,
    inner_round,
    nvlp,
    outer_round,
    pixel_set,
    remove_zero_area,
    simplify_reflex,
)
from latbool.setops import sandwich

from brute import brute_nvlp, in_convex_cell
from conftest import exact_as_given, occurrence_cells, square

DATA = Path(__file__).parent / "data"


def _cell(*pts) -> ConvexCell:
    return ConvexCell(Ring(tuple(pts)))


def _identity(region: Region):
    return exact_intersection(region, region)


# --- nvlp -------------------------------------------------------------------

def test_nvlp_identity_on_lattice_vertex():
    cell = _cell(Pt(0, 0), Pt(5, 0), Pt(3, 1))
    assert nvlp(Pt(3, 1), cell) == Pt(3, 1)


def test_nvlp_tie_breaks_lexicographically():
    apex = pt(Fraction(5, 2), Fraction(5, 2))
    cell = _cell(Pt(0, 0), Pt(5, 0), apex)
    # candidates (2,2) and (3,2) tie at squared distance 1/2
    assert nvlp(apex, cell) == Pt(2, 2)
    assert brute_nvlp(apex, cell.ring) == Pt(2, 2)


def test_nvlp_lattice_free_cell_returns_none():
    # crossing parallelogram of the sliver fixture, shifted to be generic
    c1 = pt(Fraction(7, 2), Fraction(3, 2))
    c2 = pt(4, Fraction(9, 7))
    c3 = pt(Fraction(9, 2), Fraction(3, 2))
    c4 = pt(4, Fraction(12, 7))
    cell = _cell(c1, c2, c3, c4)
    assert nvlp(c1, cell) is None
    assert brute_nvlp(c1, cell.ring) is None


def test_nvlp_requires_point_on_cell():
    cell = _cell(Pt(0, 0), Pt(5, 0), Pt(3, 1))
    with pytest.raises(Exception):
        nvlp(Pt(40, 40), cell)


def test_nvlp_matches_brute_on_fixture_cells(hand_pairs):
    for name, a, b in hand_pairs:
        x = exact_intersection(a, b)
        if x.is_empty:
            continue
        d = reflex_vertical_decomposition(x)
        for pos, cell in occurrence_cells(x, d):
            assert nvlp(pos, cell) == brute_nvlp(pos, cell.ring), (name, pos)


def _primes(n: int, above: int) -> list[int]:
    out, k = [], above
    while len(out) < n:
        k += 1
        if all(k % q for q in range(2, math.isqrt(k) + 1)):
            out.append(k)
    return out


def test_nvlp_matches_brute_where_the_frame_falls_back():
    """Cells of a region whose vertex denominators have an lcm past
    `_FRAME_LIMIT`: the decomposition keeps their Fraction coordinates, and
    nvlp clears the cell's own denominators."""
    # a convex chain on y = x^2 / 8 with 48 distinct prime denominators,
    # under a lattice top with two reflex corners
    chain = [pt(x, x * x / 8) for x in (Fraction(i, 6) + Fraction(1, q)
                                        for i, q in enumerate(_primes(48, 50)))]
    top = [Pt(8, 12), Pt(4, 12), Pt(4, 10), Pt(2, 10), Pt(0, 12)]
    x = exact_as_given(Region((Ring(tuple(chain + top)),)))
    assert region_ok(x.region)
    d_frame, _ = exact_core._to_frame(x.region.vertex_positions())
    assert d_frame == 1
    d = reflex_vertical_decomposition(x)
    assert len(d.cells) >= 3
    checked = 0
    for pos, cell in occurrence_cells(x, d):
        assert nvlp(pos, cell) == brute_nvlp(pos, cell.ring), pos
        checked += not pos.is_lattice
    assert checked == len(chain)


def _nearest_count(p: Pt, ring: Ring) -> int:
    """How many lattice points of the closed cell are nearest to p."""
    x0, y0, x1, y1 = ring.bbox
    dists = [(p.x - gx) ** 2 + (p.y - gy) ** 2
             for gx in range(math.ceil(x0), math.floor(x1) + 1)
             for gy in range(math.ceil(y0), math.floor(y1) + 1)
             if in_convex_cell(Pt(gx, gy), ring)]
    return dists.count(min(dists)) if dists else 0


def test_nvlp_matches_brute_at_distance_ties():
    """Triangles with half- and quarter-integer vertices, snapped from each
    vertex and edge midpoint: many of these points are equally near two or
    four lattice points, and the tie breaks by x, then y."""
    rng = random.Random(11)
    ties = 0
    for _ in range(120):
        den = rng.choice((2, 4))
        a, b, c = (pt(Fraction(rng.randint(0, 8 * den), den),
                      Fraction(rng.randint(0, 8 * den), den))
                   for _ in range(3))
        if rng.random() < 0.5:
            # a horizontal edge on a lattice row: p half-way between two
            # columns ties with the bound of the farther column
            b = pt(b.x, math.floor(a.y))
            a = pt(a.x, b.y)
        ring = Ring((a, b, c))
        if ring.signed_area2 == 0:
            continue
        if not ring.is_ccw:
            ring = ring.reversed_()
        cell = ConvexCell(ring)
        along = [pt(u.x + t * (v.x - u.x), u.y + t * (v.y - u.y))
                 for u, v in ring.edges()
                 for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))]
        for p in (a, b, c, *along):
            assert nvlp(p, cell) == brute_nvlp(p, ring), (p, ring)
            ties += _nearest_count(p, ring) > 1
    assert ties >= 60


# --- chains ------------------------------------------------------------------

def test_chain_plain_edge(e2_pair):
    a, b = e2_pair
    x = exact_intersection(a, b)
    d = reflex_vertical_decomposition(x)
    apex = pt(Fraction(5, 2), Fraction(5, 2))
    chain = build_chain(Pt(0, 0), Pt(5, 0), d, Pt(0, 0), Pt(5, 0))
    assert chain == [Pt(0, 0), Pt(5, 0)]
    chain = build_chain(apex, Pt(0, 0), d, Pt(2, 2), Pt(0, 0))
    assert chain == [Pt(2, 2), Pt(0, 0)]


def test_chain_through_visible_reflex():
    lshape = Region((Ring((Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2),
                           Pt(2, 4), Pt(0, 4))),))
    d = reflex_vertical_decomposition(_identity(lshape))
    chain = build_chain(Pt(0, 0), Pt(4, 0), d, Pt(0, 0), Pt(4, 0))
    assert chain == [Pt(0, 0), Pt(2, 2), Pt(4, 0)]


def test_nvlp_scans_only_the_columns_near_p(monkeypatch):
    """A 1000-column cell whose nearest lattice point is next to p: the
    outward scan stops after the few columns that can still win."""
    calls = []
    real = rounding._column_rows

    def counted(edges, x, s):
        calls.append(x)
        return real(edges, x, s)

    monkeypatch.setattr(rounding, "_column_rows", counted)
    apex = pt(Fraction(1001, 2), Fraction(7, 2))
    cell = _cell(Pt(0, 0), Pt(1000, 0), apex)
    assert nvlp(apex, cell) == Pt(500, 3) == brute_nvlp(apex, cell.ring)
    assert len(calls) <= 4


# --- convexify ---------------------------------------------------------------

def test_convexify_keeps_convex_ring():
    ring = square(0, 0, 4, 4)
    pts, _ = convexify_cleanup(ring.pts, [False] * 4, [RANK_INSERTED] * 4)
    assert tuple(pts) == ring.pts


def test_convexify_removes_single_dent():
    pts = [Pt(0, 0), Pt(2, 1), Pt(4, 0), Pt(4, 4), Pt(0, 4)]
    cleaned, _ = convexify_cleanup(pts, [False] * 5, [RANK_INSERTED] * 5)
    assert Pt(2, 1) not in cleaned


def test_convexify_cascade():
    pts = [Pt(0, 0), Pt(2, 1), Pt(3, 1), Pt(5, 0), Pt(5, 5), Pt(0, 5)]
    cleaned, _ = convexify_cleanup(pts, [False] * 6, [RANK_INSERTED] * 6)
    assert Pt(2, 1) not in cleaned and Pt(3, 1) not in cleaned
    from latbool.arrangement import REFLEX, vertex_convexity
    n = len(cleaned)
    for i in range(n):
        assert vertex_convexity(cleaned[i - 1], cleaned[i],
                                cleaned[(i + 1) % n]) != REFLEX


def test_convexify_protected_reflex_survives():
    pts = [Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4)]
    prot = [False, False, False, True, False, False]
    rank = [RANK_ORIGINAL if p else RANK_INSERTED for p in prot]
    cleaned, kept = convexify_cleanup(pts, prot, rank)
    assert Pt(2, 2) in cleaned


def test_convexify_retests_only_the_neighbours(monkeypatch):
    """A 200-vertex sawtooth loses its 98 reflex teeth one by one; each
    removal re-tests two turns instead of all of them."""
    calls = []
    real = rounding.vertex_convexity

    def counted(prev, v, nxt):
        calls.append(v)
        return real(prev, v, nxt)

    monkeypatch.setattr(rounding, "vertex_convexity", counted)
    pts = [Pt(i, i % 2) for i in range(198)] + [Pt(198, 10), Pt(0, 10)]
    cleaned, _ = convexify_cleanup(pts, [False] * len(pts),
                                   [RANK_INSERTED] * len(pts))
    assert cleaned == ([Pt(i, 0) for i in range(0, 197, 2)]
                       + [Pt(197, 1), Pt(198, 10), Pt(0, 10)])
    assert len(calls) <= 3 * len(pts)


# --- inner_round ---------------------------------------------------------------

def test_inner_identity_on_lattice_region():
    r = Region((square(2, 2, 4, 4),))
    assert inner_round(_identity(r)).canonical() == r.canonical()


def test_inner_e2(e2_pair):
    a, b = e2_pair
    x = exact_intersection(a, b)
    expected = Region((Ring((Pt(0, 0), Pt(5, 0), Pt(2, 2))),)).canonical()
    assert inner_round(x).canonical() == expected


def test_inner_drops_lattice_free_sliver(hand_pairs):
    pairs = dict((n, (a, b)) for n, a, b in hand_pairs)
    a, b = pairs["lattice-free-sliver"]
    x = exact_intersection(a, b)
    assert not x.is_empty
    assert len(x.rings) == 1
    assert inner_round(x).is_empty


# --- pixel_set -----------------------------------------------------------------

def test_pixels_empty_for_lattice_region():
    assert pixel_set(_identity(Region((square(0, 0, 3, 3),)))).is_empty


def test_pixel_full_square(e2_pair):
    a, b = e2_pair
    pix = pixel_set(exact_intersection(a, b))
    assert pix.canonical() == Region((square(2, 2, 3, 3),)).canonical()


def test_pixel_degenerate_unit_segment():
    # crossing at (1, 3/2): one integer coordinate -> vertical unit slit
    a = Region((Ring((Pt(0, 0), Pt(2, 3), Pt(0, 3))),))
    b = Region((square(1, 0, 3, 3),))
    pix = pixel_set(exact_intersection(a, b))
    assert len(pix.rings) == 1
    slit = pix.rings[0]
    assert slit.is_degenerate
    assert set(slit.pts) == {Pt(1, 1), Pt(1, 2)}


def test_pixel_merge_adjacent():
    # two crossings sharing a pixel column merge into one orthogonal ring
    a = Region((Ring((Pt(0, 0), Pt(7, 2), Pt(7, 3), Pt(0, 5))),)).canonical()
    b = Region((Ring((Pt(7, 0), Pt(7, 5), Pt(0, 3), Pt(0, 2))),)).canonical()
    x = exact_intersection(a, b)
    assert x.stats.k >= 2
    pix = pixel_set(x)
    assert not pix.is_empty
    assert region_ok(pix)


# --- outer_round ----------------------------------------------------------------

def test_outer_identity_on_lattice_region():
    r = Region((square(2, 2, 4, 4),))
    box = universe_for([r])
    assert outer_round(_identity(r), box).canonical() == r.canonical()


def test_outer_e2_properties(e2_pair):
    a, b = e2_pair
    x = exact_intersection(a, b)
    box = universe_for([a, b])
    outer = outer_round(x, box)
    assert all(p.is_lattice for ring in outer.rings for p in ring.pts)
    assert check_inclusion(x.region, outer) is None
    assert check_hausdorff(x.region, outer, Fraction(1, 8),
                           mode="outer", assume_inclusion=True) is None


def test_outer_empty():
    e = exact_intersection(Region((square(0, 0, 1, 1),)),
                           Region((square(3, 3, 4, 4),)))
    box = universe_for([Region((square(0, 0, 1, 1),))])
    assert outer_round(e, box).is_empty


# --- simplify_reflex / remove_zero_area -----------------------------------------

def test_simplify_noop_without_extraneous(e2_pair):
    a, b = e2_pair
    x = exact_intersection(a, b)
    r = inner_round(x)  # all vertices have counterparts? (2,2) does not
    # use the exact region itself as its own "outer": nothing to remove
    ident = _identity(Region((square(0, 0, 4, 4),)))
    same = simplify_reflex(ident.region, ident)
    assert same.canonical() == ident.region.canonical()


def test_simplify_removes_pixel_corner(e2_pair):
    a, b = e2_pair
    x = exact_intersection(a, b)
    raw = Region((Ring((Pt(0, 0), Pt(5, 0), Pt(3, 2), Pt(3, 3),
                        Pt(2, 3), Pt(2, 2))),))
    out = simplify_reflex(raw, x)
    assert Pt(3, 2) not in out.rings[0].pts
    assert check_inclusion(x.region, out) is None


def test_simplify_keeps_far_reflex():
    base = Region((square(0, 0, 10, 10),))
    x = _identity(base)
    dented = Region((Ring((Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(5, 5),
                           Pt(0, 10))),))
    # (5,5) is reflex and extraneous but its removal is barred: neighbors
    # (10,10) and (0,10) are never within sqrt(2) of one shared edge
    out = simplify_reflex(dented, x)
    assert Pt(5, 5) in out.rings[0].pts


def test_removal_topology_guards_the_swept_triangle():
    # removing the reflex dent (2, 1) sweeps the triangle (4,4), (2,1), (0,4)
    dented = [Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(2, 1), Pt(0, 4)]
    assert _removal_topology_ok([dented], 0, 3)
    # another ring's vertex strictly inside that triangle bars the removal
    island = [Pt(2, 3), Pt(1, 2), Pt(3, 2)]
    assert not _removal_topology_ok([dented, island], 0, 3)
    # a ring crossing the new edge (4,4)-(0,4) bars it too
    across = [Pt(1, 5), Pt(1, 3), Pt(0, 3)]
    assert not _removal_topology_ok([dented, across], 0, 3)
    # a collinear vertex sweeps no area
    flat = [Pt(0, 0), Pt(2, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)]
    assert _removal_topology_ok([flat, island], 0, 1)


def test_removal_topology_refuses_a_pinch():
    # another visit of (2, 1) has an edge into the swept triangle; it ends
    # on the new edge, so neither the crossing nor the vertex test sees it
    dented = [Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(2, 1), Pt(0, 4)]
    spike = [Pt(2, 1), Pt(2, 4)]
    assert not _removal_topology_ok([dented, spike], 0, 3)


def test_outer_rounding_of_a_pinched_hole_covers_the_exact_region():
    """Two 160-vertex stars (perfbench's star_region, random.Random(7)):
    the outer rounding of their intersection has a hole ring that visits
    (144, 96) twice.  Removing one visit as a reflex vertex used to uncover
    part of the exact region."""
    a, b = (parse_region((DATA / f"star160-pinch.{s}.lpr").read_text())
            for s in "AB")
    _, exact, outer = sandwich(a, b, "intersection")
    assert region_ok(outer)
    assert check_inclusion(exact.region, outer) is None


def test_outer_convex_component_side_effect(hand_pairs):
    # when no components merge, a convex component of the exact region
    # stays convex in the outer rounding
    from latbool.arrangement import REFLEX, vertex_convexity
    from latbool.exact_core import INTERIOR, point_in_region
    from latbool.oracle import IntMembership, region_interior_sample
    from latbool.setops import OpRequest, apply

    for name, a, b in hand_pairs:
        for op in ("intersection", "difference"):
            exact = apply(OpRequest(op, "exact", a, b))
            outer = apply(OpRequest(op, "outer", a, b))
            n_exact = sum(1 for i, r in enumerate(exact.region.rings)
                          if r.is_ccw and exact.region.parents[i] is None)
            n_outer = sum(1 for i, r in enumerate(outer.rings)
                          if r.is_ccw and outer.parents[i] is None)
            if n_exact != n_outer:
                continue
            for ri, ring in enumerate(exact.rings):
                if any(v.convexity == REFLEX for v in ring):
                    continue
                if not exact.region.rings[ri].is_ccw:
                    continue
                probe = region_interior_sample(
                    exact.region.rings[ri], IntMembership(exact.region))
                if probe is None:
                    continue
                for oi, oring in enumerate(outer.rings):
                    if not oring.is_ccw or oring.is_degenerate:
                        continue
                    if point_in_region(probe, Region((oring,))) != INTERIOR:
                        continue
                    m = len(oring.pts)
                    for i, p in enumerate(oring.pts):
                        turn = vertex_convexity(oring.pts[i - 1], p,
                                                oring.pts[(i + 1) % m])
                        assert turn != REFLEX, (name, op, p)


def test_remove_zero_area():
    needle = Ring((Pt(0, 0), Pt(3, 0)))
    keep = square(5, 5, 7, 7)
    region = Region((needle, keep))
    out = remove_zero_area(region)
    assert out.canonical() == Region((keep,)).canonical()
    assert remove_zero_area(Region((keep,))).canonical() == \
        Region((keep,)).canonical()
