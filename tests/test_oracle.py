import math
import random
from fractions import Fraction

import pytest

from latbool.arrangement import exact_intersection
from latbool.exact_core import (
    EXTERIOR,
    INTERIOR,
    PreconditionError,
    Pt,
    Region,
    Ring,
    complement_in_universe,
    gap_midpoints,
    hit_points,
    point_in_region,
    pt,
    segment_intersection,
    segment_param,
    squared_distance,
    universe_for,
)
from latbool import oracle
from latbool.fixtures import random_pairs
from latbool.oracle import (
    IntMembership,
    Witness,
    _edge_rows,
    _sq_dist_lt,
    _sweep_events,
    _uncovered,
    _visible,
    brute_boolean,
    brute_nvlp,
    check_hausdorff,
    check_inclusion,
    intersecting_pairs,
    is_visible,
    lattice_closure,
    properly_crossing_pairs,
    region_interior_sample,
    snap_segment_hits_closure_interior,
)

from latbool.rounding import pixel_set
from latbool.setops import _sandwich, sandwich

from conftest import (
    CORPUS_SEED,
    FAR,
    crack_middle_operands,
    membership_regions,
    shifted,
    square,
)


def test_brute_nvlp_examples(e2_pair):
    cell = Ring((Pt(0, 0), Pt(5, 0), Pt(3, 1)))
    assert brute_nvlp(Pt(3, 1), cell) == Pt(3, 1)
    apex = pt(Fraction(5, 2), Fraction(5, 2))
    tri = Ring((Pt(0, 0), Pt(5, 0), apex))
    assert brute_nvlp(apex, tri) == Pt(2, 2)


def test_lattice_closure_counts(unit_square):
    c = lattice_closure(unit_square)
    assert (len(c.points), len(c.segments), len(c.squares)) == (4, 4, 1)
    c2 = lattice_closure(Region((square(0, 0, 2, 1),)))
    assert (len(c2.points), len(c2.segments), len(c2.squares)) == (6, 7, 2)


def test_lattice_closure_sliver_empty(hand_pairs):
    pairs = dict((n, (a, b)) for n, a, b in hand_pairs)
    a, b = pairs["lattice-free-sliver"]
    x = exact_intersection(a, b)
    c = lattice_closure(x.region)
    assert not c.points and not c.segments and not c.squares


def test_closure_self_consistency(hand_pairs):
    for name, a, b in hand_pairs[:5]:
        box = universe_for([a, b])
        twice = complement_in_universe(
            complement_in_universe(a, box), box, margin=0)
        assert lattice_closure(a) == lattice_closure(twice), name


def test_check_inclusion_reflexive(unit_square):
    assert check_inclusion(unit_square, unit_square) is None


def test_check_inclusion_disjoint_witness(unit_square):
    other = Region((square(5, 5, 6, 6),))
    w = check_inclusion(unit_square, other)
    assert isinstance(w, Witness)
    assert w.kind == "vertex-outside" and w.point == Pt(0, 0)


def test_check_inclusion_hole_swallow():
    inner = Region((square(0, 0, 6, 6),))
    outer = Region((square(-1, -1, 7, 7), square(2, 2, 3, 3).reversed_()))
    w = check_inclusion(inner, outer)
    assert w is not None and w.kind == "boundary-swallowed"


def test_check_inclusion_component_outside():
    """A unit square that exactly fills a hole of outer: its boundary lies
    on outer's, so only the interior probe can see it is outside."""
    inner = Region((square(2, 2, 3, 3),))
    outer = Region((square(0, 0, 5, 5), square(2, 2, 3, 3).reversed_()))
    w = check_inclusion(inner, outer)
    assert w is not None and w.kind == "component-outside"
    assert point_in_region(w.point, inner) == INTERIOR
    assert point_in_region(w.point, outer) == EXTERIOR


def test_check_hausdorff_equal_ok(unit_square):
    assert check_hausdorff(unit_square, unit_square) is None


def test_check_hausdorff_dilated_witness():
    small = Region((square(5, 5, 6, 6),))
    big = Region((square(0, 0, 11, 11),))
    w = check_hausdorff(small, big, mode="inner")
    assert w is not None and w.kind == "hausdorff"


def test_check_hausdorff_requires_inclusion():
    a = Region((square(0, 0, 2, 2),))
    b = Region((square(5, 5, 7, 7),))
    with pytest.raises(PreconditionError):
        check_hausdorff(a, b)


def test_check_hausdorff_e2_pipeline(e2_pair):
    from latbool.rounding import inner_round

    a, b = e2_pair
    x = exact_intersection(a, b)
    rounded = inner_round(x)
    assert check_hausdorff(rounded, x.region, Fraction(1, 8),
                           mode="inner", assume_inclusion=True) is None


def test_brute_boolean_disjoint():
    a = Region((square(0, 0, 1, 1),))
    b = Region((square(3, 3, 4, 4),))
    rows = brute_boolean(a, b, "intersection",
                         [pt(Fraction(1, 2), Fraction(1, 2)), Pt(5, 5)])
    assert all(r.expected in (EXTERIOR, "skip") for r in rows)


def test_brute_boolean_self_difference():
    a = Region((square(0, 0, 2, 2),))
    rows = brute_boolean(a, a, "difference",
                         [pt(Fraction(1, 2), Fraction(1, 2)), Pt(9, 9)])
    assert all(r.expected in (EXTERIOR, "skip") for r in rows)


def test_brute_boolean_rejects_an_unknown_op_first():
    """No samples, or only samples on an operand boundary, need no op; an
    unknown one is still a PreconditionError."""
    a = Region((square(0, 0, 2, 2),))
    for samples in ([], [Pt(0, 0), Pt(2, 1)]):
        with pytest.raises(PreconditionError, match="unknown op"):
            brute_boolean(a, a, "xor", samples)


def ref_intersecting_pairs(edges1, edges2) -> int:
    """intersecting_pairs as a double loop over every edge pair."""
    return sum(1 for e1 in edges1 for e2 in edges2
               if segment_intersection(e1, e2) is not None)


def test_intersecting_pairs_matches_double_loop(corpus_sandwiches,
                                                hand_pairs):
    """The checklist's call, overlay edges against pixel edges, on 24
    corpus pairs and 3 ops, both ways round; and each membership region
    against itself (every edge overlaps its copy) and against itself
    moved by 1 and by 1/2, also far from the origin."""
    counts = []
    for name, _, _, _, overlay in corpus_sandwiches:
        edges = overlay.region.edge_list()
        pix = pixel_set(overlay).edge_list()
        want = ref_intersecting_pairs(edges, pix)
        assert intersecting_pairs(edges, pix) == want, name
        assert intersecting_pairs(pix, edges) == want, name
        counts.append(want)
    assert min(counts) == 0 and sum(counts) > 400, counts
    for k, (name, region) in enumerate(membership_regions(hand_pairs)):
        for moved in ((region, shifted(region, *FAR)) if k % 8 == 0
                      else (region,)):
            edges = moved.edge_list()
            for dx in (0, 1, Fraction(1, 2)):
                other = shifted(moved, dx, 0).edge_list()
                assert intersecting_pairs(edges, other) == \
                    ref_intersecting_pairs(edges, other), (name, dx)


def test_pair_counts():
    e1 = [(Pt(0, 0), Pt(4, 4))]
    e2 = [(Pt(0, 4), Pt(4, 0)), (Pt(0, 1), Pt(0, 2))]
    assert properly_crossing_pairs(e1, e2) == 1
    assert intersecting_pairs(e1, e2) == 1
    assert intersecting_pairs([(Pt(0, 0), Pt(4, 0))],
                              [(Pt(2, 0), Pt(6, 0))]) == 1


def test_snap_segment_avoids_closure_interior(e2_pair):
    a, b = e2_pair
    x = exact_intersection(a, b)
    closure = lattice_closure(x.region)
    apex = pt(Fraction(5, 2), Fraction(5, 2))
    assert snap_segment_hits_closure_interior(apex, Pt(2, 2), closure) is None
    # a deliberately bad snap that dives through the closure interior
    bad = snap_segment_hits_closure_interior(apex, Pt(1, 0), closure)
    assert bad is not None


# ---------------------------------------------------------------------------
# check_inclusion's sweep against the per-edge double loop


def _check_inclusion_reference(inner: Region, outer: Region):
    """check_inclusion as a per-edge double loop: every inner edge is cut
    against every outer edge, then every outer edge against every inner
    edge again."""
    for a, b in inner.edges():
        if a == b:
            continue
        for v in (a, b):
            if point_in_region(v, outer) == EXTERIOR:
                return Witness("vertex-outside", v, "inner vertex outside outer")
        for m in gap_midpoints(a, b, _brute_events(a, b, outer)):
            if point_in_region(m, outer) == EXTERIOR:
                return Witness("edge-outside", m,
                               f"inner edge {a}-{b} leaves outer")
    for a, b in outer.edges():
        if a == b:
            continue
        for m in gap_midpoints(a, b, _brute_events(a, b, inner)):
            if point_in_region(m, inner) == INTERIOR:
                return Witness("boundary-swallowed", m,
                               f"outer edge {a}-{b} runs through inner interior")
    for ri, ring in enumerate(inner.rings):
        if ring.is_degenerate or not ring.is_ccw:
            continue
        probe = region_interior_sample(inner, ri)
        if probe is not None and point_in_region(probe, outer) == EXTERIOR:
            return Witness("component-outside", probe,
                           "inner component sample outside outer")
    return None


def test_check_inclusion_matches_reference():
    """Same Witness (kind, point, context) or None on the inclusion pairs
    of 16 acceptance-corpus sandwich results, swapped, with the inner
    argument translated, and with one pair moved far from the origin."""
    ops = ("intersection", "union", "difference")
    cases = []
    for i, (name, a, b) in enumerate(random_pairs(16, seed=CORPUS_SEED)):
        op = ops[i % 3]
        inner, exact, outer = sandwich(a, b, op)
        for small, big in ((inner, exact.region), (exact.region, outer)):
            cases += [(name, small, big), (name, big, small)]
            cases += [(name, shifted(small, dx, dy), big) for dx, dy in
                      ((1, 0), (0, -1), (Fraction(1, 2), Fraction(1, 3)))]
    name, small, big = cases[0]
    cases.append((f"{name}-far", shifted(small, *FAR), shifted(big, *FAR)))
    kinds = set()
    for name, small, big in cases:
        w = check_inclusion(small, big)
        assert w == _check_inclusion_reference(small, big), name
        kinds.add(None if w is None else w.kind)
    assert {None, "vertex-outside", "edge-outside"} <= kinds


def _brute_events(a: Pt, b: Pt, region: Region) -> list[Fraction]:
    """Every parameter in (0, 1) where a-b meets an edge of the region."""
    ts = set()
    for c, d in region.edges():
        if c != d:
            for h in hit_points(segment_intersection((a, b), (c, d))):
                t = segment_param(a, b, h)
                if 0 < t < 1:
                    ts.add(t)
    return sorted(ts)


def _assert_sweep_is_brute_force(p: Region, q: Region, name: str) -> None:
    rows_p, rows_q = _edge_rows(p.edges()), _edge_rows(q.edges())
    events_p, events_q = _sweep_events(rows_p, rows_q)
    for rows, events, other in ((rows_p, events_p, q), (rows_q, events_q, p)):
        assert len(events) == len(rows), name
        for (a, b, *_), got in zip(rows, events):
            want = _brute_events(a, b, other)
            assert got == want, (name, a, b)


def _crack_middle() -> tuple[Region, Region]:
    """outer_round's middle overlay of rand-015's difference, whose slit
    pixel leaves a doubled crack edge, and that difference."""
    comp, pixels_comp, diff = crack_middle_operands()
    middle = exact_intersection(comp, pixels_comp, check=False).region
    edges = set(middle.edges())
    assert any((d, c) in edges for c, d in edges), "no crack"
    return middle, diff


def test_sweep_events_match_brute_force():
    tri = Region((Ring((Pt(0, 0), Pt(3, 1), Pt(0, 2))),))
    cases = {
        # axis-parallel edges crossing in a plus
        "vertical-horizontal": (Region((square(0, 0, 4, 4),)),
                                Region((square(2, -1, 6, 3),))),
        "plus": (Region((square(0, 2, 6, 3),)), Region((square(2, 0, 3, 6),))),
        # shared horizontal lines and a shared diagonal
        "collinear": (Region((square(0, 0, 4, 4),)),
                      Region((square(2, 0, 6, 4),))),
        "collinear-diagonal": (
            Region((Ring((Pt(0, 0), Pt(4, 4), Pt(0, 4))),)),
            Region((Ring((Pt(2, 2), Pt(6, 2), Pt(6, 6))),))),
        "same": (Region((square(0, 0, 4, 4),)), Region((square(0, 0, 4, 4),))),
        # a shared edge, a shared corner, a vertex on an edge
        "touch": (Region((square(0, 0, 2, 2),)), Region((square(2, 0, 4, 2),))),
        "corner": (Region((square(0, 0, 2, 2),)),
                   Region((square(2, 2, 4, 4),))),
        "t-junction": (Region((square(0, 0, 4, 4),)),
                       Region((Ring((Pt(2, 4), Pt(3, 6), Pt(1, 6))),))),
        # many edges starting at x = 0 on both sides
        "shared-xlo": (Region((square(0, 0, 4, 4), square(0, 5, 2, 7))),
                       Region((square(0, 1, 3, 3), tri.rings[0]))),
        "empty": (Region(()), Region((square(0, 0, 1, 1),))),
    }
    middle, diff = _crack_middle()
    cases["crack-vs-exact"] = (middle, diff)
    cases["crack-vs-crack"] = (middle, middle)
    for name, a, b in random_pairs(8, seed=CORPUS_SEED):
        cases[name] = (a, b)
    for name, (p, q) in cases.items():
        _assert_sweep_is_brute_force(p, q, name)
        _assert_sweep_is_brute_force(q, p, f"{name}-swapped")
    _assert_sweep_is_brute_force(shifted(middle, *FAR), shifted(diff, *FAR),
                                 "crack-far")


# ---------------------------------------------------------------------------
# the Hausdorff check's row scan against per-point classification


def _spacing_for(region: Region) -> int:
    """1/8 on small regions, a coarser 1/3 or 1/1 on larger ones, so that
    no region has more than 6 000 samples."""
    x0, y0, x1, y1 = region.bbox
    return next(m for m in (8, 3, 1)
                if (m * (x1 - x0) + 3) * (m * (y1 - y0) + 3) <= 6000)


def _assert_rows_match_classify(region: Region, m: int, name: str) -> None:
    """Every sample (i/m, j/m) one step around the bbox: row_ranges holds
    i exactly when classify says the sample is not exterior."""
    scan = IntMembership(region)
    x0, y0, x1, y1 = region.bbox
    cols = range(math.floor(x0 * m) - 1, math.ceil(x1 * m) + 2)
    for j in range(math.floor(y0 * m) - 1, math.ceil(y1 * m) + 2):
        ranges = scan.row_ranges(m, j)
        assert all(lo <= hi for lo, hi in ranges), (name, j)
        assert all(r[1] + 1 < s[0] for r, s in zip(ranges, ranges[1:])), (
            name, j)
        got = [i for lo, hi in ranges for i in range(lo, hi + 1)]
        want = [i for i in cols if scan.classify(
            pt(Fraction(i, m), Fraction(j, m))) != EXTERIOR]
        assert got == want, (name, m, j)


def test_row_ranges_match_classify(hand_pairs):
    """The hand fixtures, 16 corpus pairs with their results and the
    rand-015 crack overlay with its rational vertices, also after the far
    translation."""
    regions = [(n, r) for n, r in membership_regions(hand_pairs)
               if not r.is_empty]
    assert {_spacing_for(r) for _, r in regions} == {8, 3, 1}
    for name, region in regions:
        m = _spacing_for(region)
        _assert_rows_match_classify(region, m, name)
        _assert_rows_match_classify(shifted(region, *FAR), m, f"{name}-far")


def _hausdorff_reference(small: Region, big: Region, m: int, mode: str):
    """The first sample of the full 1/m grid over big's bbox, bottom row
    first and left to right, in big but not in small and at squared
    distance >= 2 from every reference edge; None if there is none."""
    in_big = IntMembership(big).classify
    in_small = IntMembership(small).classify
    ref = [e for e in (big if mode == "inner" else small).edges()
           if e[0] != e[1]]
    x0, y0, x1, y1 = big.bbox
    for j in range(math.floor(y0 * m), math.ceil(y1 * m) + 1):
        for i in range(math.floor(x0 * m), math.ceil(x1 * m) + 1):
            q = pt(Fraction(i, m), Fraction(j, m))
            if (in_big(q) != EXTERIOR and in_small(q) == EXTERIOR
                    and all(squared_distance(q, e) >= 2 for e in ref)):
                return q
    return None


def ref_check_hausdorff(small: Region, big: Region, m: int, mode: str):
    """check_hausdorff without the sweep: every row of big's bounding box
    through `IntMembership.row_ranges` over all edges of both sides, and
    every sample of big \\ small against every reference edge."""
    if big.bbox is None:
        return None
    in_big = IntMembership(big)
    in_small = IntMembership(small)
    ref = in_big if mode == "inner" else in_small
    f = ref._scale
    ref_edges = [tuple(c * m for c in e) for e in ref._edges]
    _, y0, _, y1 = big.bbox
    for j in range(math.ceil(y0 * m), math.floor(y1 * m) + 1):
        for i in _uncovered(in_big.row_ranges(m, j),
                            in_small.row_ranges(m, j)):
            if not any(_sq_dist_lt(e, i * f, j * f, f * m)
                       for e in ref_edges):
                return Witness("hausdorff", pt(Fraction(i, m), Fraction(j, m)),
                               f"sample in big\\small at squared distance >= 2 "
                               f"from {mode} reference boundary")
    return None


def _assert_hausdorff_matches_reference(small, big, m, mode, name):
    w = check_hausdorff(small, big, Fraction(1, m), mode=mode,
                        assume_inclusion=True)
    want = _hausdorff_reference(small, big, m, mode)
    assert (w is None) == (want is None), (name, m, mode)
    if w is None:
        return False
    assert w.kind == "hausdorff" and w.point == want, (name, m, mode)
    # a real violation, judged by the pipeline's own routines
    q = w.point
    assert (q.x * m).denominator == (q.y * m).denominator == 1, name
    assert point_in_region(q, big) != EXTERIOR, name
    assert small.is_empty or point_in_region(q, small) == EXTERIOR, name
    ref = big if mode == "inner" else small
    assert all(squared_distance(q, e) >= 2 for e in ref.edges()
               if e[0] != e[1]), name
    return True


def test_check_hausdorff_matches_full_grid(hand_pairs):
    """None exactly when the full-grid reference finds no violation, and
    otherwise the reference's first violating sample."""
    empty = Region(())
    three = Region((square(0, 0, 3, 3),))
    dilated = (Region((square(5, 5, 6, 6),)), Region((square(0, 0, 11, 11),)))
    cases = [
        # the only far sample is (3/2, 3/2): only m > 1 sees it
        ("three-empty", empty, three, (1, 2, 8), ("inner",)),
        # no reference edge at all: every sample of big violates
        ("three-empty", empty, three, (1, 8), ("outer",)),
        ("dilated", *dilated, (1, 8), ("inner", "outer")),
        ("dilated-far", *(shifted(r, *FAR) for r in dilated), (1, 8),
         ("inner", "outer")),
        # every sample of big \ small lies within 1 of big's boundary,
        # but (0, 0) is at exactly sqrt(2) from small's
        ("shrunk", Region((square(1, 1, 10, 10),)),
         Region((square(0, 0, 11, 11),)), (1, 8), ("inner", "outer")),
        ("equal", three, three, (8,), ("inner", "outer")),
        # (2, 2), the one integer sample at distance 2, is small's corner
        ("corner", Region((square(2, 2, 3, 3),)),
         Region((square(0, 0, 4, 4),)), (1,), ("inner",)),
        # (4, 2) lies at exactly sqrt(2) from the interior of the diagonal
        ("diagonal", Region((Ring((Pt(0, 0), Pt(4, 0), Pt(0, 4))),)),
         Region((square(0, 0, 4, 4),)), (1, 8), ("inner", "outer")),
    ]
    for name, a, b in hand_pairs:
        for op in ("intersection", "union", "difference"):
            inner, exact, outer = sandwich(a, b, op)
            for small, big in ((inner, exact.region), (exact.region, outer)):
                if not big.is_empty:
                    cases.append((f"{name}.{op}", small, big,
                                  (_spacing_for(big),), ("inner", "outer")))
    comp, pixels_comp, _ = crack_middle_operands()
    middle = exact_intersection(comp, pixels_comp, check=False).region
    cases.append(("crack", middle, comp, (3,), ("inner", "outer")))
    found = {"inner": 0, "outer": 0}
    for name, small, big, ms, modes in cases:
        assert check_inclusion(small, big) is None, name
        for m in ms:
            for mode in modes:
                found[mode] += _assert_hausdorff_matches_reference(
                    small, big, m, mode, name)
    assert min(found.values()) >= 3, found


def _assert_sweep_matches_row_scan(small, big, m, mode, name) -> bool:
    w = check_hausdorff(small, big, Fraction(1, m), mode=mode,
                        assume_inclusion=True)
    assert w == ref_check_hausdorff(small, big, m, mode), (name, m, mode)
    return w is not None


def _row_skip_cases() -> list[tuple[str, Region, Region, tuple[int, ...]]]:
    """(name, small, big, spacings): pairs whose edges agree on most rows,
    so that the sweep skips them, and pairs that differ only in how their
    edges are listed."""
    def ring(*xy):
        return Ring(tuple(pt(x, y) for x, y in xy))

    box = square(0, 0, 4, 4)
    tall = Region((square(0, 0, 2, 40),))
    # one horizontal edge, listed twice in `stacked` and not in `one_ring`
    stacked = Region((square(0, 0, 2, 20), square(0, 20, 2, 40)))
    one_ring = Region((ring((0, 0), (2, 0), (2, 20), (2, 40), (0, 40),
                            (0, 20)),))
    # the spike's edges end on the sample row y = 11/2, the only row with a
    # sample at distance >= sqrt(2) from the square's boundary
    spike = Region((ring((0, 0), (4, 0), (4, 4), (Fraction(33, 16), 4),
                         (2, Fraction(11, 2)), (Fraction(31, 16), 4),
                         (0, 4)),))
    # an island whose edges start on the bottom row, far from the square
    island = Region((box, square(10, 0, 11, 1)))
    # the square's boundary cut at different points on the two sides
    cut = Region((ring((0, 0), (2, 0), (4, 0), (4, 3), (4, 4), (1, 4),
                       (0, 4), (0, 1)),))
    # the square listed twice: each crossing cancels its copy, so only the
    # boundary is left, yet the set of edges is the square's
    twice = Region((box, box))
    tri = ring((0, 0), (6, 0), (0, 6))
    middle, _ = _crack_middle()
    crack_free = Region(tuple(r.collapse_spurs() for r in middle.rings))
    assert len(crack_free.edge_list()) == len(middle.edge_list()) - 2
    cases = [
        ("equal", tall, tall, (8, 1)),
        ("equal-crack", middle, middle, (3,)),
        ("horizontal", one_ring, stacked, (8, 3)),
        ("horizontal-swapped", stacked, one_ring, (8,)),
        ("spike", Region((box,)), spike, (8,)),
        ("island", Region((box,)), island, (8, 1)),
        ("cut", Region((box,)), cut, (8, 3)),
        ("cut-swapped", cut, Region((box,)), (8,)),
        ("twice", twice, Region((box,)), (8,)),
        ("twice-triangle", Region((tri, tri)), Region((tri,)), (8,)),
        ("crack", crack_free, middle, (8, 3)),
        ("crack-swapped", middle, crack_free, (8,)),
    ]
    return cases + [(f"{name}-far", shifted(small, *FAR), shifted(big, *FAR),
                     ms) for name, small, big, ms in cases]


@pytest.fixture(scope="module")
def corpus_sandwiches():
    """(name.op, inner, exact, outer, overlay) of `_sandwich`, which the
    checklist runs, for 24 corpus pairs and 3 ops."""
    return [(f"{name}.{op}", *_sandwich(a, b, op))
            for name, a, b in random_pairs(24, seed=CORPUS_SEED)
            for op in ("intersection", "union", "difference")]


def test_check_hausdorff_sweep_matches_row_scan(corpus_sandwiches):
    """The same None or witness as the scan of every row and every
    reference edge: both modes of the checklist calls of 24 corpus pairs
    and 3 ops, the same exact regions against an empty region and inside
    their bounding box widened by 2, and pairs built to have rows that the
    sweep skips."""
    cases = []
    for name, inner, exact, outer, _ in corpus_sandwiches:
        exact = exact.region
        cases += [(name, small, big, (8,)) for small, big in
                  ((inner, exact), (exact, outer))]
        if exact.is_empty:
            continue
        x0, y0, x1, y1 = exact.bbox
        wide = Region((square(math.floor(x0) - 2, math.floor(y0) - 2,
                              math.ceil(x1) + 2, math.ceil(y1) + 2),))
        cases += [(f"{name}-empty", Region(()), exact, (8, 4)),
                  (f"{name}-wide", exact, wide, (8, 3))]
    cases += _row_skip_cases()
    found = {True: 0, False: 0}
    for name, small, big, ms in cases:
        for m in ms:
            for mode in ("inner", "outer"):
                found[_assert_sweep_matches_row_scan(small, big, m, mode,
                                                     name)] += 1
    assert min(found.values()) > 200, found


def test_check_hausdorff_row_skip_cases():
    """The row-skip pairs against small's boundary: the first far sample
    where the two sides' membership differs, and None where it does not."""
    far = {"spike": pt(2, Fraction(11, 2)), "island": Pt(10, 0),
           "twice": pt(Fraction(3, 2), Fraction(3, 2)),
           "twice-triangle": pt(Fraction(3, 2), Fraction(3, 2))}
    for name, small, big, ms in _row_skip_cases():
        want = far.get(name.removesuffix("-far"))
        if want is not None and name.endswith("-far"):
            want = pt(want.x + FAR[0], want.y + FAR[1])
        for m in ms:
            w = check_hausdorff(small, big, Fraction(1, m), mode="outer",
                                assume_inclusion=True)
            assert (w and w.point) == want, (name, m)


def test_check_hausdorff_runs_the_row_rule_only_on_differing_rows(
        monkeypatch):
    """The row rule sees no row of a tall region checked against itself,
    and only the rows of the one short edge in which two listings of a
    tall region differ."""
    rows: list[Fraction] = []
    real = oracle._row_ranges

    def counted(edges, s, y):
        rows.append(Fraction(y, s))
        return real(edges, s, y)

    monkeypatch.setattr(oracle, "_row_ranges", counted)
    tall = Region((square(0, 0, 2, 100),))
    assert check_hausdorff(tall, tall) is None
    assert rows == []
    # the same rectangle as two rings, and as one ring through the same
    # vertices: only their shared edge, listed twice, differs
    stacked = Region((square(0, 0, 2, 50), square(0, 50, 2, 100)))
    one_ring = Region((Ring((Pt(0, 0), Pt(2, 0), Pt(2, 50), Pt(2, 100),
                             Pt(0, 100), Pt(0, 50))),))
    assert check_hausdorff(one_ring, stacked, assume_inclusion=True) is None
    # both sides on the one row y = 50 of that edge
    assert rows == [400, 400]
    rows.clear()
    island = Region((square(0, 0, 2, 100), square(5, 50, 6, 51)))
    assert check_hausdorff(tall, island) is None
    assert rows == [j for j in range(400, 409) for _ in range(2)]


def test_check_hausdorff_checks_its_arguments_first(unit_square):
    empty = Region(())
    for big in (empty, unit_square):
        for spacing in (0, Fraction(2, 3), Fraction(-1, 8)):
            with pytest.raises(PreconditionError, match="spacing"):
                check_hausdorff(empty, big, spacing)
        for mode in ("inenr", "Inner", ""):
            with pytest.raises(PreconditionError, match="mode"):
                check_hausdorff(empty, big, mode=mode)


# ---------------------------------------------------------------------------
# the oracle's visibility test and interior probe


def ref_is_visible(p: Pt, q: Pt, region: Region) -> bool:
    """is_visible as a per-edge scan: pq is cut at its events against every
    edge, and point_in_region classifies the ends and each gap midpoint."""
    if EXTERIOR in (point_in_region(p, region), point_in_region(q, region)):
        raise PreconditionError("visibility endpoints must belong to the region")
    if p == q:
        return True
    return all(point_in_region(m, region) != EXTERIOR
               for m in gap_midpoints(p, q, _brute_events(p, q, region)))


def test_visible_matches_is_visible(hand_pairs):
    """_visible and is_visible against the per-edge scan, on random
    segments between lattice points, vertices and edge midpoints of each
    region, and every unit segment between its lattice points; some
    regions also far from the origin."""
    rng = random.Random(5)
    kinds = set()
    for k, (name, region) in enumerate(membership_regions(hand_pairs)):
        if region.is_empty:
            continue
        for shift in ((0, 0), FAR) if k % 8 == 0 else ((0, 0),):
            moved = shifted(region, *shift)
            scan = IntMembership(moved)
            x0, y0, x1, y1 = moved.bbox
            lattice = [Pt(x, y)
                       for x in range(math.ceil(x0), math.floor(x1) + 1)
                       for y in range(math.ceil(y0), math.floor(y1) + 1)
                       if scan.classify(Pt(x, y)) != EXTERIOR]
            ends = lattice + [
                pt(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))
                for a, b in moved.edges() if a != b]
            ends += sorted(moved.vertex_positions())
            segs = [(g, h) for g in lattice
                    for h in (Pt(g.x + 1, g.y), Pt(g.x, g.y + 1))
                    if h in lattice]
            segs += [(p, q) for p, q in (rng.sample(ends, 2)
                                         for _ in range(60)) if p != q]
            got = _visible(segs, moved, scan)
            assert got == [ref_is_visible(p, q, moved) for p, q in segs], name
            assert got == [is_visible(p, q, moved) for p, q in segs], name
            kinds |= set(got)
    assert kinds == {True, False}


def test_region_interior_sample_is_interior(hand_pairs):
    """The probe of every filled ring is interior by the pipeline's own
    classification, and it stays the same far from the origin."""
    probes = 0
    for name, region in membership_regions(hand_pairs):
        far = shifted(region, *FAR)
        for ri, ring in enumerate(region.rings):
            if ring.is_degenerate or not ring.is_ccw:
                continue
            probe = region_interior_sample(region, ri)
            assert probe is not None, (name, ri)
            assert point_in_region(probe, region) == INTERIOR, (name, ri)
            assert region_interior_sample(far, ri) == pt(
                probe.x + FAR[0], probe.y + FAR[1]), (name, ri)
            probes += 1
    assert probes > 80
