from fractions import Fraction

import pytest

from latbool import arrangement, exact_core, rounding, setops
from latbool.arrangement import OPS, ExactRegion, exact_intersection
from latbool.exact_core import (
    InternalInvariantError,
    PreconditionError,
    Pt,
    Region,
    Ring,
    complement_in_universe,
    pt,
    universe_for,
)
from latbool.fixtures import hand_fixture_pairs, random_pairs
from latbool.lpr import parse_region, write_region
from latbool.oracle import check_inclusion
from latbool.rounding import inner_round
from latbool.setops import OpRequest, apply, sandwich

from conftest import (
    CORPUS_SEED,
    FAR,
    count_overlays,
    shifted,
    square,
    star_ladder_pairs,
)


def test_apply_inner_intersection_trivial():
    a = Region((square(0, 0, 4, 4),))
    b = Region((square(2, 2, 6, 6),))
    expected = Region((square(2, 2, 4, 4),)).canonical()
    for mode in ("inner", "outer"):
        got = apply(OpRequest("intersection", mode, a, b))
        assert got.canonical() == expected
    exact = apply(OpRequest("intersection", "exact", a, b))
    assert exact.region.canonical() == expected


def test_apply_inner_e2(e2_pair):
    a, b = e2_pair
    got = apply(OpRequest("intersection", "inner", a, b))
    assert got.canonical() == Region(
        (Ring((Pt(0, 0), Pt(5, 0), Pt(2, 2))),)).canonical()


def test_union_outer_disjoint_exact():
    a = Region((square(0, 0, 1, 1),))
    b = Region((square(3, 3, 4, 4),))
    got = apply(OpRequest("union", "outer", a, b))
    assert got.canonical() == Region(
        (square(0, 0, 1, 1), square(3, 3, 4, 4))).canonical()


def test_sandwich_trivial_disjoint():
    a = Region((square(0, 0, 1, 1),))
    b = Region((square(3, 3, 4, 4),))
    inner, exact, outer = sandwich(a, b, "intersection")
    assert inner.is_empty and exact.is_empty and outer.is_empty


def test_sandwich_idempotent():
    a = Region((square(0, 0, 4, 4),))
    inner, exact, outer = sandwich(a, a, "intersection")
    assert inner.canonical() == a.canonical()
    assert exact.region.canonical() == a.canonical()
    assert outer.canonical() == a.canonical()


def test_sandwich_strict_chain_e2(e2_pair):
    a, b = e2_pair
    inner, exact, outer = sandwich(a, b, "intersection")
    assert check_inclusion(inner, exact.region) is None
    assert check_inclusion(exact.region, outer) is None
    assert inner.canonical() != exact.region.canonical()
    assert outer.canonical() != exact.region.canonical()


def test_inclusion_chain_on_fixtures(hand_pairs):
    for name, a, b in hand_pairs:
        for op in ("intersection", "union", "difference"):
            inner, exact, outer = sandwich(a, b, op)
            assert check_inclusion(inner, exact.region) is None, (name, op)
            assert check_inclusion(exact.region, outer) is None, (name, op)


def test_sandwich_commutes_with_far_translation(hand_pairs):
    """Translating both operands near 10^12 translates inner, exact and
    outer by the same vector, byte for byte."""
    pairs = hand_pairs + random_pairs(16, seed=CORPUS_SEED)
    for name, a, b in pairs:
        a_far, b_far = shifted(a, *FAR), shifted(b, *FAR)
        for op in ("intersection", "union", "difference"):
            near = sandwich(a, b, op)
            far = sandwich(a_far, b_far, op)
            for mode, r, r_far in zip(("inner", "exact", "outer"), near, far):
                if mode == "exact":
                    r, r_far = r.region, r_far.region
                assert write_region(r_far) == write_region(
                    shifted(r, *FAR)), (name, op, mode)


def test_de_morgan_consistency(hand_pairs):
    # outer union equals the complement of the inner intersection of the
    # complements, inside one shared universe
    for name, a, b in hand_pairs[:8]:
        box = universe_for([a, b])
        ou = apply(OpRequest("union", "outer", a, b))
        ac = complement_in_universe(a, box)
        bc = complement_in_universe(b, box)
        ii = inner_round(exact_intersection(ac, bc))
        manual = complement_in_universe(ii, box, margin=0)
        assert ou.canonical() == manual.canonical(), name


def test_all_lattice_results_equal_across_modes(hand_pairs):
    for name, a, b in hand_pairs:
        for op in ("intersection", "union", "difference"):
            exact = apply(OpRequest(op, "exact", a, b))
            if exact.stats.k != 0:
                continue
            inner = apply(OpRequest(op, "inner", a, b))
            outer = apply(OpRequest(op, "outer", a, b))
            assert inner.canonical() == exact.region.canonical(), (name, op)
            assert outer.canonical() == exact.region.canonical(), (name, op)


def test_sandwich_equals_separate_applies(hand_pairs):
    """`sandwich` returns (Region, ExactRegion, Region), and `apply` gives
    the same object of the same type in each mode."""
    pairs = hand_pairs[::3] + random_pairs(12, seed=CORPUS_SEED)[::2]
    for name, a, b in pairs:
        for op in ("intersection", "union", "difference"):
            triple = sandwich(a, b, op)
            assert [type(r) for r in triple] == [Region, ExactRegion,
                                                 Region], (name, op)
            for mode, want in zip(("inner", "exact", "outer"), triple):
                got = apply(OpRequest(op, mode, a, b))
                assert type(got) is type(want), (name, op, mode)
                assert got == want, (name, op, mode)


def test_operand_swap(hand_pairs):
    name, a, b = hand_pairs[0]
    far = (f"{name}-far", shifted(a, 10**9 + 7, -10**12),
           shifted(b, 10**9 + 7, -10**12))
    pairs = hand_pairs + random_pairs(16, seed=CORPUS_SEED) + [far]
    for name, a, b in pairs:
        for op in ("intersection", "union"):
            i1, x1, o1 = sandwich(a, b, op)
            i2, x2, o2 = sandwich(b, a, op)
            assert x1 == x2, (name, op)
            for r1, r2 in ((i1, i2), (x1.region, x2.region), (o1, o2)):
                assert write_region(r1) == write_region(r2), (name, op)


def test_sandwich_builds_one_operand_overlay(hand_pairs, monkeypatch):
    calls = count_overlays(monkeypatch)
    for name, a, b in hand_pairs:
        for op in ("intersection", "union", "difference"):
            calls.clear()
            sandwich(a, b, op)
            assert calls.count("latbool.arrangement") == 1, (name, op, calls)
            assert len(calls) <= 2, (name, op, calls)


def test_each_operand_and_complement_validated_once(hand_pairs, monkeypatch):
    checked: list[Region] = []
    real = arrangement.region_ok

    def counted(region):
        checked.append(region)
        return real(region)

    monkeypatch.setattr(arrangement, "region_ok", counted)
    for name, a, b in hand_pairs:
        box = universe_for([a, b])
        for op, operands in (
                ("intersection", [a, b]),
                ("difference", [a, b, complement_in_universe(b, box)]),
                ("union", [a, b, complement_in_universe(a, box),
                           complement_in_universe(b, box)])):
            checked.clear()
            sandwich(a, b, op)
            assert checked == operands, (name, op)


def _count_validations(monkeypatch) -> list[Region]:
    """Record every region `validate_region` runs on."""
    validated: list[Region] = []
    real = exact_core.validate_region

    def counted(region):
        validated.append(region)
        return real(region)

    monkeypatch.setattr(exact_core, "validate_region", counted)
    return validated


def test_parsed_operands_are_validated_once(hand_pairs, monkeypatch):
    """parse_region validates a region and keeps the answer on it: sandwich
    does not validate it again, but validates each complement it takes,
    on every call."""
    validated = _count_validations(monkeypatch)
    for name, a0, b0 in hand_pairs:
        validated.clear()
        a = parse_region(write_region(a0))
        b = parse_region(write_region(b0))
        assert validated == [a, b] and validated[0] is a, name
        box = universe_for([a, b])
        ac, bc = (complement_in_universe(r, box) for r in (a, b))
        for op, complements in (("intersection", []),
                                ("difference", [bc]),
                                ("union", [ac, bc])):
            for _ in range(2):
                validated.clear()
                sandwich(a, b, op)
                assert validated == complements, (name, op)
                assert not any(r is a or r is b for r in validated)


def test_region_built_directly_is_validated_on_first_use(monkeypatch):
    validated = _count_validations(monkeypatch)
    a = Region((square(0, 0, 4, 4),))
    b = Region((square(2, 2, 6, 6),))
    sandwich(a, b, "intersection")
    assert validated == [a, b]
    validated.clear()
    sandwich(a, b, "intersection")
    apply(OpRequest("intersection", "inner", a, b))
    assert validated == []


def _assert_is_fresh_canonical(x, where) -> int:
    """x, recorded as its own canonical form, equals the canonical form
    computed afresh on new objects, and every area its rings carry equals
    a fresh one.  The number of rings checked."""
    if isinstance(x, Ring):
        assert Ring(x.pts).canonical() == x, where
        rings = (x,)
    else:
        fresh = Region(tuple(Ring(r.pts) for r in x.rings)).canonical()
        assert fresh == x, where
        rings = x.rings
    for r in rings:
        if "signed_area2" in r.__dict__:
            got, want = r.signed_area2, Ring(r.pts).signed_area2
            assert (type(got), got) == (type(want), want), where
    return len(rings)


def test_marked_canonical_forms_equal_fresh_ones(monkeypatch):
    """Every ring and region that the pipeline records as its own canonical
    form (computed, reversed, a universe box or an overlay ring) equals a
    fresh canonical form, and the region an `ExactRegion` is given lists
    its rings; on all 642 acceptance-corpus ops and the star-ladder pairs."""
    marked: list = []
    preset: list = []
    real_marked = exact_core._marked
    real_exact_region = arrangement._exact_region

    def recording_marked(x):
        marked.append(x)
        return real_marked(x)

    def recording_exact_region(rings, stats, region):
        preset.append((rings, region))
        return real_exact_region(rings, stats, region)

    for module in (exact_core, arrangement):
        monkeypatch.setattr(module, "_marked", recording_marked)
    monkeypatch.setattr(arrangement, "_exact_region",
                        recording_exact_region)
    pairs = (hand_fixture_pairs() + random_pairs(200, seed=CORPUS_SEED)
             + star_ladder_pairs())
    checked = ops = regions = 0
    for name, a, b in pairs:
        for op in OPS:
            marked.clear()
            preset.clear()
            sandwich(a, b, op)
            ops += 1
            # the fresh forms computed below are recorded too
            batch = list(marked)
            for x in batch:
                checked += _assert_is_fresh_canonical(x, (name, op))
            for rings, region in preset:
                assert region == Region(tuple(
                    Ring(tuple(v.pos for v in ring)) for ring in rings)), (
                        name, op)
            regions += len(preset)
    assert ops == 642 + 12
    assert checked > 10 * ops and regions > ops


def test_invalid_operand_rejected_for_every_op():
    good = Region((square(0, 0, 4, 4),))
    bow = Region((Ring((Pt(0, 0), Pt(2, 2), Pt(2, 0), Pt(0, 2))),))
    empty_ring = Region((square(0, 0, 4, 4), Ring(())))
    for bad in (bow, empty_ring):
        for op in ("intersection", "union", "difference"):
            for a, b in ((bad, good), (good, bad)):
                with pytest.raises(PreconditionError):
                    sandwich(a, b, op)
                with pytest.raises(PreconditionError):
                    apply(OpRequest(op, "exact", a, b))
        # every call after the first reused this kept answer
        assert not bad.is_valid


def test_bad_request_rejected():
    """An unknown op or mode is a PreconditionError, raised before any
    operand is validated: the invalid operand's error never shows."""
    a = Region((square(0, 0, 1, 1),))
    bow = Region((Ring((Pt(0, 0), Pt(2, 2), Pt(2, 0), Pt(0, 2))),))
    for op, mode in (("xor", "inner"), ("union", "fast")):
        with pytest.raises(PreconditionError, match="must be one of"):
            OpRequest(op, mode, bow, a)
    box = universe_for([a])
    for run in (lambda: sandwich(bow, a, "xor"),
                lambda: arrangement.exact_boolean(bow, a, "xor", box),
                lambda: arrangement.exact_overlay(bow, a, "xor", box)):
        with pytest.raises(PreconditionError, match="op must be one of"):
            run()


# invariant checks are explicit raises: they hold under python -O too


def test_internal_invariant_error_reexported():
    assert setops.InternalInvariantError is exact_core.InternalInvariantError
    assert issubclass(InternalInvariantError, AssertionError)


def test_outer_round_rejects_non_lattice_vertex(monkeypatch):
    a = Region((Ring((Pt(0, 0), Pt(5, 0), Pt(0, 5))),))
    b = Region((Ring((Pt(0, 0), Pt(5, 0), Pt(5, 5))),))
    off_grid = Region((Ring((Pt(0, 0), Pt(5, 0),
                             pt(Fraction(5, 2), Fraction(5, 2)))),))
    monkeypatch.setattr(rounding, "remove_zero_area", lambda r: off_grid)
    with pytest.raises(InternalInvariantError, match="non-lattice"):
        sandwich(a, b, "intersection")
