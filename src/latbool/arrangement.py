"""Exact overlay of two lattice regions.

The implementation splits every input edge at every intersection and
classifies each atomic piece from its own edges (Martinez-Rueda-Feito
2009): one x-sweep over the pieces, which never cross, hands each piece
its operands' parities on one side from its predecessor on the sweep line,
and the parity of each operand's edges lying along the piece gives the
other side.  No point is queried against an operand.  The pieces where
the result flips are traced into rings.  A plain pair overlay with
interval pruning stands in for a full event-queue intersection sweep;
complexity is a soft goal only.

Zero-area (degenerate) rings of an operand act as slits: where both sides
of a slit piece land inside the result, the piece is kept as a doubled
"crack" edge.  Cracks cut reflex corners at non-representable vertices,
which is exactly what the outer rounding pipeline needs them for.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .exact_core import (
    LEFT,
    RIGHT,
    InternalInvariantError,
    MarginError,
    hit_points,
    trace_cycles,
    PreconditionError,
    Pt,
    Region,
    Ring,
    Scalar,
    UniverseBox,
    complement_in_universe,
    dot,
    orientation,
    region_ok,
    segment_at,
    segment_intersection,
    segments_cross_properly,
    validate_region,
)

CONVEX = "convex"
REFLEX = "reflex"
FLAT = "flat"

OPS = ("intersection", "union", "difference")


class OverlayStats(NamedTuple):
    n: int  # total input edges
    k: int  # distinct non-lattice result vertices
    h: int  # properly intersecting input edge pairs (A x B)


class ExactVertex(NamedTuple):
    pos: Pt
    convexity: str


@dataclass(frozen=True)
class ExactRegion:
    """Boolean-op result with convexity-tagged rational vertices."""

    rings: tuple[tuple[ExactVertex, ...], ...]
    stats: OverlayStats

    @cached_property
    def region(self) -> Region:
        return Region(tuple(Ring(tuple(v.pos for v in ring))
                            for ring in self.rings))

    @property
    def is_empty(self) -> bool:
        return not self.rings

    def vertex_count(self) -> int:
        return len({v.pos for ring in self.rings for v in ring})

    def non_lattice_positions(self) -> set[Pt]:
        return {v.pos for ring in self.rings for v in ring
                if not v.pos.is_lattice}

    def reflex_positions(self) -> set[Pt]:
        return {v.pos for ring in self.rings for v in ring
                if v.convexity == REFLEX}


def vertex_convexity(prev: Pt, v: Pt, nxt: Pt) -> str:
    """Turn class at a ring occurrence, interior-on-the-left convention.

    An exact reversal (out-and-back crack tip) counts as reflex: the
    interior wraps the full angle around it.
    """
    turn = orientation(prev, v, nxt)
    if turn == LEFT:
        return CONVEX
    if turn == RIGHT or dot(v, prev, nxt) > 0:
        return REFLEX
    return FLAT


# ---------------------------------------------------------------------------
# segment intersection enumeration (pair overlay with interval pruning)


def find_segment_intersections(
    segments: Sequence[tuple[Pt, Pt]]
) -> list[tuple[int, int, object]]:
    """All pairwise intersections among segments.

    Sorted by x-interval with an active list so disjoint spans are never
    compared; worst case stays quadratic, which is acceptable here.
    """
    n = len(segments)
    idx = sorted(range(n), key=lambda i: min(segments[i][0].x,
                                             segments[i][1].x))
    out: list[tuple[int, int, object]] = []
    active: list[int] = []
    for i in idx:
        a, b = segments[i]
        xlo = min(a.x, b.x)
        xhi = max(a.x, b.x)
        ylo = min(a.y, b.y)
        yhi = max(a.y, b.y)
        still: list[int] = []
        for j in active:
            c, d = segments[j]
            if max(c.x, d.x) < xlo:
                continue
            still.append(j)
            if min(c.y, d.y) > yhi or max(c.y, d.y) < ylo:
                continue
            hit = segment_intersection((a, b), (c, d))
            if hit is not None:
                out.append((min(i, j), max(i, j), hit))
        still.append(i)
        active = still
    return out


class _InputEdge(NamedTuple):
    a: Pt
    b: Pt
    operand: int  # 0 = A, 1 = B
    slit: bool


def _gather_edges(region: Region, operand: int) -> list[_InputEdge]:
    out = []
    for ring in region.rings:
        slit = ring.is_degenerate
        for a, b in ring.edges():
            if a != b:
                out.append(_InputEdge(a, b, operand, slit))
    return out


class _Atomic(NamedTuple):
    a: Pt
    b: Pt
    slit_only: bool
    odd: tuple[bool, bool]  # per operand: an odd number of its edges lie along


def _atomize(edges: Sequence[_InputEdge],
             hits: Iterable[tuple[int, int, object]]) -> list[_Atomic]:
    cuts: list[set[Pt]] = [set((e.a, e.b)) for e in edges]
    for i, j, hit in hits:
        for h in hit_points(hit):
            cuts[i].add(h)
            cuts[j].add(h)
    buckets: dict[tuple[Pt, Pt], tuple[bool, list[bool]]] = {}
    for e, cut in zip(edges, cuts):
        # lexicographic order is the order along the edge or its reverse,
        # either of which gives the same undirected pieces
        pts_sorted = sorted(cut)
        for p, q in zip(pts_sorted, pts_sorted[1:]):
            key = (p, q) if p < q else (q, p)
            slit, odd = buckets.get(key, (True, [False, False]))
            odd[e.operand] = not odd[e.operand]
            buckets[key] = (slit and e.slit, odd)
    return [_Atomic(k[0], k[1], slit, tuple(odd))
            for k, (slit, odd) in sorted(buckets.items())]


def _right_parities(atoms: Sequence[_Atomic]) -> list[tuple[bool, bool]]:
    """Per atom, each operand's parity just right of it (a to b).

    One sweep in x.  Atoms never cross, so the bottom-to-top order of the
    atoms spanning the sweep line changes only where one starts or ends.
    A non-vertical atom's right side is below it, where the parity is the
    one above its predecessor on the line.  A vertical atom's right side is
    east of it, where the parity is the one above the predecessor of its
    midpoint once the atoms starting at its x are in.  Below every atom
    both operands are out, and an operand's parity flips across an atom
    where an odd number of its edges lie along it.  The atoms starting at
    one x go in bottom to top, by y and then by slope, so that each finds
    its final predecessor, also within a fan sharing its left endpoint.
    """
    right: list[tuple[bool, bool]] = [(False, False)] * len(atoms)
    slope: dict[int, Fraction] = {}
    status: list[int] = []  # non-vertical atoms spanning x, bottom to top
    x: Scalar = 0

    def level(j: int) -> tuple[Scalar, Fraction]:
        e = atoms[j]
        y = e.a.y if e.a.x == x else segment_at(e.a, e.b, x)[0]
        return y, slope[j]

    def above(pos: int) -> tuple[bool, bool]:
        """The parity just above status[pos - 1], or out below everything."""
        if pos == 0:
            return False, False
        j = status[pos - 1]
        return tuple(p != odd for p, odd in zip(right[j], atoms[j].odd))

    i = 0
    while i < len(atoms):
        x = atoms[i].a.x
        start = i
        while i < len(atoms) and atoms[i].a.x == x:
            i += 1
        status = [j for j in status if atoms[j].b.x > x]
        vertical = [j for j in range(start, i) if atoms[j].b.x == x]
        rising = [j for j in range(start, i) if atoms[j].b.x != x]
        for j in rising:
            e = atoms[j]
            slope[j] = Fraction(e.b.y - e.a.y, e.b.x - e.a.x)
        for key, j in sorted((level(j), j) for j in rising):
            pos = bisect_left(status, key, key=level)
            right[j] = above(pos)
            status.insert(pos, j)
        for j in vertical:
            mid = Fraction(atoms[j].a.y + atoms[j].b.y, 2)
            right[j] = above(bisect_left(status, (mid,), key=level))
    return right


# ---------------------------------------------------------------------------
# the overlay itself


def overlay_intersection(a: Region, b: Region) -> ExactRegion:
    """closure(A interior intersect B interior) with its stats."""
    edges = _gather_edges(a, 0) + _gather_edges(b, 1)
    hits = find_segment_intersections([(e.a, e.b) for e in edges])
    h = 0
    for i, j, hit in hits:
        if edges[i].operand != edges[j].operand and isinstance(hit, Pt):
            if segments_cross_properly((edges[i].a, edges[i].b),
                                       (edges[j].a, edges[j].b)):
                h += 1
    directed: list[tuple[Pt, Pt]] = []
    atoms = _atomize(edges, hits)
    for e, right in zip(atoms, _right_parities(atoms)):
        in_r = all(right)
        in_l = all(p != odd for p, odd in zip(right, e.odd))
        if in_l != in_r:
            directed.append((e.a, e.b) if in_l else (e.b, e.a))
        elif in_l and e.slit_only:
            directed.append((e.a, e.b))
            directed.append((e.b, e.a))

    cycles = trace_cycles(directed)
    rings = _cycles_to_rings(cycles)
    k = len({v for ring in rings for v in ring.pts if not v.is_lattice})
    return ExactRegion(_tag_rings(rings), OverlayStats(n=len(edges), k=k, h=h))


def _cycles_to_rings(cycles: list[list[Pt]]) -> list[Ring]:
    rings = []
    for cyc in cycles:
        ring = Ring(tuple(cyc)).canonical()
        if len(ring.pts) >= 2:
            rings.append(ring)
    rings.sort(key=lambda r: tuple(r.pts))
    return rings


def _tag_rings(rings: Iterable[Ring]) -> tuple[tuple[ExactVertex, ...], ...]:
    out = []
    for ring in rings:
        m = len(ring.pts)
        out.append(tuple(
            ExactVertex(v, vertex_convexity(ring.pts[i - 1], v,
                                            ring.pts[(i + 1) % m]))
            for i, v in enumerate(ring.pts)))
    return tuple(out)


def _require_valid(**operands: Region) -> None:
    for name, r in operands.items():
        if not region_ok(r):
            raise PreconditionError(
                f"operand {name} is not a valid region: {validate_region(r)}")


def exact_intersection(a: Region, b: Region, check: bool = True) -> ExactRegion:
    if check:
        _require_valid(A=a, B=b)
    return overlay_intersection(a, b)


def complement_exact(x: ExactRegion, box: UniverseBox) -> ExactRegion:
    """Complement of an exact result inside the box, stats preserved.

    The intermediate may legitimately fill the box up to its boundary, so
    no margin is required here (unlike operand complements).
    """
    comp = complement_in_universe(x.region, box, margin=0)
    return ExactRegion(_tag_rings(comp.rings), x.stats)


def exact_overlay(a: Region, b: Region, op: str,
                  box: UniverseBox) -> ExactRegion:
    """The one exact intersection every result of `op` is derived from.

    De Morgan reductions inside the box: intersection overlays A * B,
    difference A * Bc, and union Ac * Bc, whose complement is A + B.
    Each operand and each complement taken is validated once.
    """
    if op not in OPS:
        raise ValueError(f"op must be one of {OPS}")
    _require_valid(A=a, B=b)
    for name, r in (("A", a), ("B", b)):
        if not box.contains_with_margin(r):
            raise MarginError(f"operand {name} violates the universe margin")
    if op == "intersection":
        return exact_intersection(a, b, check=False)
    if op == "difference":
        bc = complement_in_universe(b, box)
        _require_valid(Bc=bc)
        return exact_intersection(a, bc, check=False)
    ac = complement_in_universe(a, box)
    bc = complement_in_universe(b, box)
    _require_valid(Ac=ac, Bc=bc)
    return exact_intersection(ac, bc, check=False)


def exact_from_overlay(overlay: ExactRegion, op: str,
                       box: UniverseBox) -> ExactRegion:
    """The exact result of `op` from its `exact_overlay`."""
    if op != "union":
        return overlay
    result = complement_exact(overlay, box)
    bx0, by0 = box.min
    bx1, by1 = box.max
    for ring in result.region.rings:
        for p in ring.pts:
            if not (bx0 < p.x < bx1 and by0 < p.y < by1):
                raise InternalInvariantError(
                    "union result touches the universe box")
    return result


def exact_boolean(a: Region, b: Region, op: str,
                  box: UniverseBox) -> ExactRegion:
    """Any of the three set operations via De Morgan reductions."""
    return exact_from_overlay(exact_overlay(a, b, op, box), op, box)
