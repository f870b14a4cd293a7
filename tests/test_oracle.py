import random
from fractions import Fraction

import numpy as np
import pytest

from latbool.arrangement import exact_intersection
from latbool.exact_core import (
    EXTERIOR,
    INTERIOR,
    PreconditionError,
    Pt,
    Region,
    Ring,
    _segment_events,
    boundary_gap_midpoints,
    complement_in_universe,
    hit_points,
    point_in_region,
    pt,
    region_interior_sample,
    segment_intersection,
    segment_param,
    universe_for,
)
from latbool.fixtures import random_pairs
from latbool.oracle import (
    RegionKernel,
    Witness,
    _edge_rows,
    _sweep_events,
    brute_boolean,
    brute_nvlp,
    check_hausdorff,
    check_inclusion,
    intersecting_pairs,
    lattice_closure,
    properly_crossing_pairs,
    snap_segment_hits_closure_interior,
)

from latbool.setops import sandwich

from conftest import CORPUS_SEED, crack_middle_operands, shifted, square

FAR = (10 ** 9 + 7, -10 ** 12)


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


def test_pair_counts():
    e1 = [(Pt(0, 0), Pt(4, 4))]
    e2 = [(Pt(0, 4), Pt(4, 0)), (Pt(0, 1), Pt(0, 2))]
    assert properly_crossing_pairs(e1, e2) == 1
    assert intersecting_pairs(e1, e2) == 1
    assert intersecting_pairs([(Pt(0, 0), Pt(4, 0))],
                              [(Pt(2, 0), Pt(6, 0))]) == 1


def test_region_kernel_matches_scalar(hand_pairs):
    rng = random.Random(17)
    for name, a, b in hand_pairs[:6]:
        kern = RegionKernel(a)
        x0, y0, x1, y1 = a.bbox
        ax = np.array([rng.randint(8 * int(x0) - 8, 8 * int(x1) + 8)
                       for _ in range(300)], dtype=np.int64)
        by = np.array([rng.randint(8 * int(y0) - 8, 8 * int(y1) + 8)
                       for _ in range(300)], dtype=np.int64)
        ins, onb = kern.classify(ax, by, 8)
        for i in range(ax.shape[0]):
            q = pt(Fraction(int(ax[i]), 8), Fraction(int(by[i]), 8))
            c = point_in_region(q, a)
            assert ins[i] == (c != EXTERIOR), (name, q)
            assert onb[i] == (c == "boundary"), (name, q)


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
        for m in boundary_gap_midpoints(a, b, outer):
            if point_in_region(m, outer) == EXTERIOR:
                return Witness("edge-outside", m,
                               f"inner edge {a}-{b} leaves outer")
    for a, b in outer.edges():
        if a == b:
            continue
        for m in boundary_gap_midpoints(a, b, inner):
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
    rows_p, rows_q = _edge_rows(p), _edge_rows(q)
    events_p, events_q = _sweep_events(rows_p, rows_q)
    for rows, events, other in ((rows_p, events_p, q), (rows_q, events_q, p)):
        assert len(events) == len(rows), name
        for (a, b, *_), got in zip(rows, events):
            want = _brute_events(a, b, other)
            assert got == want == _segment_events(a, b, other), (name, a, b)


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
