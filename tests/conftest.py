from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import hypothesis as hyp
import pytest

import latbool
from latbool import arrangement
from latbool.arrangement import (
    ExactRegion,
    ExactVertex,
    OverlayStats,
    exact_boolean,
    exact_intersection,
    vertex_convexity,
)
from latbool.exact_core import (
    PreconditionError,
    Pt,
    Region,
    Ring,
    Scalar,
    complement_in_universe,
    pt,
    universe_for,
)
from latbool.fixtures import hand_fixture_pairs, random_pairs
from latbool.rounding import pixel_set

# Every property test runs without Hypothesis's explain phase: on the exact
# rational strategies it can rerun a failing case for minutes.  A failure is
# still found and shrunk; only that phase's annotations are left out.
hyp.settings.register_profile(
    "latbool", phases=[p for p in hyp.Phase if p is not hyp.Phase.explain])
hyp.settings.load_profile("latbool")

# the seed of the acceptance corpus (tests/test_acceptance.py)
CORPUS_SEED = 20050317

# a translation that takes small coordinates near 10^12
FAR = (10 ** 9 + 7, -10 ** 12)


def square(x0: int, y0: int, x1: int, y1: int) -> Ring:
    return Ring((Pt(x0, y0), Pt(x1, y0), Pt(x1, y1), Pt(x0, y1)))


def holed_square(n: int) -> Region:
    """The square [0, 2n+1]^2 with an n x n grid of unit holes, 1 apart."""
    holes = tuple(square(2 * i + 1, 2 * j + 1, 2 * i + 2, 2 * j + 2).reversed_()
                  for i in range(n) for j in range(n))
    return Region((square(0, 0, 2 * n + 1, 2 * n + 1),) + holes)


def shifted(region: Region, dx: Scalar, dy: Scalar) -> Region:
    return Region(tuple(Ring(tuple(pt(p.x + dx, p.y + dy) for p in r.pts))
                        for r in region.rings))


def star_ladder_pairs() -> list[tuple[str, Region, Region]]:
    """The operand pairs of perfbench's `stars` workload."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.star_ladder(latbool)


def occurrence_cells(x, d):
    """(position, cell) for each vertex occurrence of the exact region x,
    with the cell that inner rounding snaps it in: the one at the corner
    along the occurrence's outgoing edge, from the decomposition d."""
    for ring in x.rings:
        m = len(ring)
        for i, v in enumerate(ring):
            yield v.pos, d.cell_at_edge_start(v.pos, ring[(i + 1) % m].pos)


def exact_as_given(region: Region) -> ExactRegion:
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


def cell_of_edge_start(x, d) -> dict:
    """The index in `d.cells` of the cell at the start of each directed
    edge of the exact region x, for every edge that has one, in the order
    of the region's edges."""
    index = {id(cell): i for i, cell in enumerate(d.cells)}
    out = {}
    for edge in x.region.edges():
        if edge[0] == edge[1] or edge in out:
            continue
        try:
            out[edge] = index[id(d.cell_at_edge_start(*edge))]
        except PreconditionError:
            pass
    return out


def crack_middle_operands() -> tuple[Region, Region, Region]:
    """(comp, pixels_comp, exact) for rand-015's difference: the operands of
    outer_round's middle overlay, whose slit pixel leaves a doubled crack
    edge, and the exact difference."""
    _, a, b = random_pairs(16, seed=CORPUS_SEED)[15]
    box = universe_for([a, b])
    exact = exact_boolean(a, b, "difference", box)
    comp = complement_in_universe(exact.region, box, margin=0)
    pixels_comp = complement_in_universe(pixel_set(exact), box, margin=0)
    return comp, pixels_comp, exact.region


def membership_regions(hand_pairs) -> list[tuple[str, Region]]:
    """Regions to classify points against: the hand fixtures, 16 corpus
    pairs with their exact results, and a middle overlay with rational
    vertices and a doubled crack edge."""
    regions = [(f"{name}.{side}", r) for name, a, b in hand_pairs
               for side, r in (("A", a), ("B", b))]
    ops = ("intersection", "union", "difference")
    for i, (name, a, b) in enumerate(random_pairs(16, seed=CORPUS_SEED)):
        op = ops[i % 3]
        exact = exact_boolean(a, b, op, universe_for([a, b])).region
        regions += [(f"{name}.A", a), (f"{name}.B", b),
                    (f"{name}.{op}", exact)]
    # outer_round's middle overlay of a difference with a half-lattice
    # vertex: its slit pixel leaves a doubled crack edge
    comp, pixels_comp, _ = crack_middle_operands()
    middle = exact_intersection(comp, pixels_comp, check=False).region
    edges = set(middle.edges())
    assert any((b, a) in edges for a, b in edges), "no crack"
    regions.append(("rand-015.middle", middle))
    return regions


def count_overlays(monkeypatch) -> list[str]:
    """Count exact_intersection calls at every latbool binding: each call
    appends the name of the module whose binding its caller looked up
    ("latbool.arrangement" for the operand-side overlay)."""
    real = arrangement.exact_intersection
    calls: list[str] = []
    for name, module in list(sys.modules.items()):
        if name.startswith("latbool") and (
                vars(module).get("exact_intersection") is real):
            def counted(*args, _name=name, **kwargs):
                calls.append(_name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, "exact_intersection", counted)
    return calls


@pytest.fixture(scope="session")
def hand_pairs():
    return hand_fixture_pairs()


@pytest.fixture()
def unit_square() -> Region:
    return Region((square(0, 0, 1, 1),))


@pytest.fixture()
def e2_pair() -> tuple[Region, Region]:
    a = Region((Ring((Pt(0, 0), Pt(5, 0), Pt(0, 5))),)).canonical()
    b = Region((Ring((Pt(0, 0), Pt(5, 0), Pt(5, 5))),)).canonical()
    return a, b
