"""Acceptance gate: every guarantee checked over the full corpus.

The corpus is 200 seeded random operand pairs (coordinates within
[0, 64]^2) plus the hand fixtures, across intersection, union and
difference.  One summary line per criterion is printed; run with `-s`
(or read captured output) to see them.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction
from pathlib import Path

import pytest

from latbool.arrangement import exact_intersection, find_segment_intersections
from latbool.cli import run_property_checklist
from latbool.decomposition import ConvexCell, reflex_vertical_decomposition
from latbool.exact_core import Pt, Ring, orientation, pt
from latbool.fixtures import default_seed, hand_fixture_pairs, random_pairs
from latbool.lpr import parse_region
from latbool.oracle import (
    brute_nvlp,
    brute_nvlp_region,
    lattice_closure,
    snap_segment_hits_closure_interior,
    vertically_visible,
)
from latbool.rounding import build_chain, nvlp

OPS = ("intersection", "union", "difference")

RANDOM_PAIRS = 200

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def corpus():
    return hand_fixture_pairs() + random_pairs(RANDOM_PAIRS)


@pytest.fixture(scope="module")
def corpus_results(corpus):
    """Checklist results for every (case, op); computed once."""
    t0 = time.time()
    rows = []
    for name, a, b in corpus:
        for op in OPS:
            rows.append((name, op, run_property_checklist(a, b, op)))
    elapsed = time.time() - t0
    return rows, elapsed


def _collect(rows, prefixes: tuple[str, ...]):
    failures = []
    count = 0
    for name, op, results in rows:
        for r in results:
            if r.name.startswith(prefixes):
                count += 1
                if not r.passed:
                    failures.append((name, op, r.name, r.detail))
    return count, failures


def _report(criterion: str, count: int, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({count} checks)")
    for f in failures[:10]:
        print(f"    {f}")


def test_criterion_1_inclusion_chain(corpus_results):
    rows, elapsed = corpus_results
    count, failures = _collect(rows, ("inclusion ",))
    _report("criterion 1 (inclusion chain, zero tolerance)", count, failures)
    assert not failures
    print(f"    corpus runtime {elapsed:.1f}s (budget 300s)")
    assert elapsed < 300


def test_criterion_2_hausdorff(corpus_results):
    rows, _ = corpus_results
    count, failures = _collect(rows, ("hausdorff ",))
    _report("criterion 2 (sqrt-2 Hausdorff at spacing 1/8)", count, failures)
    assert not failures


def test_criterion_3_lattice_outputs(corpus_results):
    rows, _ = corpus_results
    count, failures = _collect(rows, ("lattice vertices", "validate_region"))
    _report("criterion 3 (lattice vertices + validation)", count, failures)
    assert not failures


def test_criterion_4_vertex_bounds(corpus_results):
    rows, _ = corpus_results
    count, failures = _collect(
        rows, ("inner size", "outer size", "union outer size",
               "union inner size"))
    _report("criterion 4 (vertex-count bounds)", count, failures)
    assert not failures


def test_criterion_5_convexity(corpus_results):
    rows, _ = corpus_results
    count, failures = _collect(
        rows, ("inner concavity", "convex component",
               "union convex-vertex"))
    _report("criterion 5 (convexity preservation)", count, failures)
    assert not failures


def test_criterion_6_nvlp_oracle_equivalence(corpus):
    checks = 0
    failures = []
    # all vertices of the hand-fixture intersections, in their cells
    for name, a, b in corpus[: len(hand_fixture_pairs())]:
        x = exact_intersection(a, b)
        if x.is_empty:
            continue
        d = reflex_vertical_decomposition(x)
        for pos in sorted({v.pos for ring in x.rings for v in ring}):
            cell = d.cell_of_vertex(pos)
            checks += 1
            if nvlp(pos, cell) != brute_nvlp(pos, cell.ring):
                failures.append((name, pos))
    # 200 random convex cells with a rational vertex
    rng = random.Random(default_seed() + 1)
    made = 0
    while made < 200:
        a = Pt(rng.randint(0, 24), rng.randint(0, 24))
        b = Pt(rng.randint(0, 24), rng.randint(0, 24))
        c = Pt(rng.randint(0, 24), rng.randint(0, 24))
        if orientation(a, b, c) == 0:
            continue
        if orientation(a, b, c) < 0:
            a, b = b, a
        t = Fraction(rng.randint(1, 15), 16)
        p = pt(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        ring = Ring((p, b, c))
        if ring.is_degenerate:
            continue
        made += 1
        checks += 1
        if nvlp(p, ConvexCell(ring, ring.pts)) != brute_nvlp(p, ring):
            failures.append(("random-cell", p))
    # engineered ties, resolved lexicographically: the four corners around
    # (1/2, 1/2) are equidistant, (0, 0) wins by (x, y) order
    tie_cell = Ring((Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)))
    tie_p = pt(Fraction(1, 2), Fraction(1, 2))
    checks += 1
    got = brute_nvlp(tie_p, tie_cell)
    got2 = nvlp(tie_p, ConvexCell(tie_cell, tie_cell.pts))
    if got != Pt(0, 0) or got2 != Pt(0, 0):
        failures.append(("tie", got, got2))
    apex = pt(Fraction(5, 2), Fraction(5, 2))
    tri = Ring((Pt(0, 0), Pt(5, 0), apex))
    checks += 1
    if nvlp(apex, ConvexCell(tri, tri.pts)) != Pt(2, 2):
        failures.append(("tie-e2", None))
    _report("criterion 6 (NVLP == brute NVLP incl. ties)", checks, failures)
    assert not failures


def test_criterion_7_supporting_invariants(corpus):
    hand = corpus[: len(hand_fixture_pairs())]
    checks = 0
    failures = []
    for name, a, b in hand:
        x = exact_intersection(a, b)
        if x.is_empty:
            continue
        d = reflex_vertical_decomposition(x)
        region = x.region
        reflex_positions = x.reflex_positions()
        closure = lattice_closure(region)
        for ring in x.rings:
            m = len(ring)
            snaps = []
            for i, v in enumerate(ring):
                if v.pos.is_lattice:
                    snaps.append(v.pos)
                else:
                    nxt = ring[(i + 1) % m]
                    snaps.append(nvlp(v.pos,
                                      d.cell_at_edge_start(v.pos, nxt.pos)))
            if any(s is None for s in snaps):
                continue
            for i, v in enumerate(ring):
                nxt = ring[(i + 1) % m]
                # locality: one incident cell already yields the global
                # nearest visible lattice point
                if not v.pos.is_lattice:
                    checks += 1
                    cell = d.cell_of_vertex(v.pos)
                    if brute_nvlp(v.pos, cell.ring) != \
                            brute_nvlp_region(v.pos, region):
                        failures.append(("cell-locality", name, v.pos))
                # the snap segment never enters the lattice-closure interior
                checks += 1
                w = snap_segment_hits_closure_interior(v.pos, snaps[i],
                                                       closure)
                if w is not None:
                    failures.append(("closure-avoidance", name, v.pos, w))
                # chain interior vertices are vertically visible reflex
                # vertices of the exact region
                chain = build_chain(v.pos, nxt.pos, d, snaps[i],
                                    snaps[(i + 1) % m])
                for r in chain[1:-1]:
                    checks += 1
                    if r not in reflex_positions:
                        failures.append(("chain-not-reflex", name, r))
                    elif not vertically_visible(r, (v.pos, nxt.pos), region):
                        failures.append(("chain-not-visible", name, r))
    _report("criterion 7 (cell locality / chain visibility / "
            "closure avoidance)", checks, failures)
    assert not failures


@pytest.mark.scaling
def test_criterion_8_scaling_soft():
    """Doubling the edge count must not blow past quadratic growth.

    Informational guard; the pair overlay with interval pruning sits well
    below the 4.5x budget.
    """
    rng = random.Random(default_seed() + 2)

    def segs(n):
        out = []
        while len(out) < n:
            x, y = rng.randint(0, 4000), rng.randint(0, 4000)
            dx, dy = rng.randint(-25, 25), rng.randint(-25, 25)
            if dx or dy:
                out.append((Pt(x, y), Pt(x + dx, y + dy)))
        return out

    def measure(n):
        times = []
        for _ in range(3):
            s = segs(n)
            t0 = time.perf_counter()
            find_segment_intersections(s)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    t1 = measure(1000)
    t2 = measure(2000)
    ratio = t2 / t1 if t1 > 0 else 0.0
    status = "PASS" if ratio < 4.5 else "FAIL"
    print(f"ACCEPTANCE criterion 8 (scaling): {status} "
          f"(1000 edges {t1 * 1000:.0f}ms, 2000 edges {t2 * 1000:.0f}ms, "
          f"ratio {ratio:.2f} < 4.5)")
    assert ratio < 4.5


@pytest.mark.slow
def test_star160_pinch_pair_passes_the_checklist():
    """Every checklist item, for all 3 ops, on the two 160-vertex stars of
    tests/data/star160-pinch.*.lpr (about a minute on 2 cores)."""
    a, b = (parse_region((DATA / f"star160-pinch.{s}.lpr").read_text())
            for s in "AB")
    for op in OPS:
        failed = [r for r in run_property_checklist(a, b, op) if not r.passed]
        assert not failed, (op, failed)
