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

All of it runs on int points (`exact_core._to_frame`): the operands are
scaled by the lcm d0 of their denominators (1 for lattice operands), and
once the hits are known by the lcm d1 of theirs.  The tagged rings are
mapped back once at the end.

Zero-area (degenerate) rings of an operand act as slits: where both sides
of a slit piece land inside the result, the piece is kept as a doubled
"crack" edge.  Cracks cut reflex corners at non-representable vertices,
which is exactly what the outer rounding pipeline needs them for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, cmp_to_key
from typing import Iterable, NamedTuple, Sequence

from .exact_core import (
    COLLINEAR,
    LEFT,
    RIGHT,
    InternalInvariantError,
    MarginError,
    trace_cycles,
    PreconditionError,
    Pt,
    Region,
    Ring,
    UniverseBox,
    _from_frame,
    _marked,
    _to_frame,
    complement_in_universe,
    dot,
    find_segment_intersections,
    orientation,
    region_ok,
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
             hits: Iterable[tuple[int, int, tuple[Pt, ...]]]) -> list[_Atomic]:
    cuts: list[set[Pt]] = [set((e.a, e.b)) for e in edges]
    for i, j, pts in hits:
        cuts[i].update(pts)
        cuts[j].update(pts)
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
    east of it, where the parity is the one above its predecessor once the
    atoms starting at its x are in.  Below every atom both operands are
    out, and an operand's parity flips across an atom where an odd number
    of its edges lie along it.  The atoms starting at one x go in bottom to
    top, by y and then by slope, so that each finds its final predecessor,
    also within a fan sharing its left endpoint.

    An atom s on the line is below the atom p->q starting there when p is
    above s, or when s passes through p and q is above s's direction: two
    `orientation` tests.  A vertical atom is steeper than every atom
    through its lower end, and no atom passes through its interior.
    """
    right: list[tuple[bool, bool]] = [(False, False)] * len(atoms)
    status: list[int] = []  # non-vertical atoms spanning x, bottom to top

    def above(pos: int) -> tuple[bool, bool]:
        """The parity just above status[pos - 1], or out below everything."""
        if pos == 0:
            return False, False
        j = status[pos - 1]
        return tuple(p != odd for p, odd in zip(right[j], atoms[j].odd))

    def position(e: _Atomic) -> int:
        """The number of atoms in `status` below the atom e."""
        lo, hi = 0, len(status)
        while lo < hi:
            mid = (lo + hi) // 2
            s = atoms[status[mid]]
            turn = orientation(s.a, s.b, e.a)
            if turn == COLLINEAR:
                turn = orientation(e.a, s.b, e.b)
            if turn == LEFT:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def bottom_to_top(i: int, j: int) -> int:
        """Order two atoms starting on the line by y, then by slope."""
        p, q = atoms[i].a, atoms[j].a
        if p != q:
            return -1 if p.y < q.y else 1
        return -orientation(p, atoms[i].b, atoms[j].b)

    i = 0
    while i < len(atoms):
        x = atoms[i].a.x
        start = i
        while i < len(atoms) and atoms[i].a.x == x:
            i += 1
        status = [j for j in status if atoms[j].b.x > x]
        vertical = [j for j in range(start, i) if atoms[j].b.x == x]
        rising = [j for j in range(start, i) if atoms[j].b.x != x]
        for j in sorted(rising, key=cmp_to_key(bottom_to_top)):
            pos = position(atoms[j])
            right[j] = above(pos)
            status.insert(pos, j)
        for j in vertical:
            right[j] = above(position(atoms[j]))
    return right


# ---------------------------------------------------------------------------
# the overlay itself


def overlay_intersection(a: Region, b: Region) -> ExactRegion:
    """closure(A interior intersect B interior) with its stats."""
    edges = _gather_edges(a, 0) + _gather_edges(b, 1)
    d0, frame0 = _to_frame(p for e in edges for p in (e.a, e.b))
    segments = [(frame0[e.a], frame0[e.b]) for e in edges]
    hits = find_segment_intersections(segments)
    h = 0
    for i, j, hit in hits:
        if edges[i].operand != edges[j].operand and isinstance(hit, Pt):
            if segments_cross_properly(segments[i], segments[j]):
                h += 1
    hit_pts = [(i, j, (hit,) if isinstance(hit, Pt) else hit)
               for i, j, hit in hits]
    d1, frame1 = _to_frame([*frame0.values(),
                            *(p for _, _, pts in hit_pts for p in pts)])
    atoms = _atomize(
        [e._replace(a=frame1[s], b=frame1[t])
         for e, (s, t) in zip(edges, segments)],
        [(i, j, tuple(frame1[p] for p in pts)) for i, j, pts in hit_pts])
    directed: list[tuple[Pt, Pt]] = []
    for e, right in zip(atoms, _right_parities(atoms)):
        in_r = all(right)
        in_l = all(p != odd for p, odd in zip(right, e.odd))
        if in_l != in_r:
            directed.append((e.a, e.b) if in_l else (e.b, e.a))
        elif in_l and e.slit_only:
            directed.append((e.a, e.b))
            directed.append((e.b, e.a))

    tagged = _tag_rings(_cycles_to_rings(trace_cycles(directed)))
    back = _from_frame({v.pos for ring in tagged for v in ring}, d0 * d1)
    rings = tuple(tuple(ExactVertex(back[v.pos], v.convexity) for v in ring)
                  for ring in tagged)
    k = sum(1 for p in back.values() if not p.is_lattice)
    # the traced rings were canonical in the frame, and mapping them back
    # by a positive scale keeps equality, order and every turn: they still are
    region = Region(tuple(_marked(Ring(tuple(v.pos for v in ring)))
                          for ring in rings))
    return _exact_region(rings, OverlayStats(n=len(edges), k=k, h=h), region)


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
    return _exact_region(_tag_rings(comp.rings), x.stats, comp)


def _exact_region(rings: tuple[tuple[ExactVertex, ...], ...],
                  stats: OverlayStats, region: Region) -> ExactRegion:
    """An `ExactRegion` whose `region` is `region`, which lists the same
    rings: it keeps what is known of them, such as their canonical form."""
    out = ExactRegion(rings, stats)
    out.__dict__["region"] = region
    return out


def exact_overlay(a: Region, b: Region, op: str,
                  box: UniverseBox) -> ExactRegion:
    """The one exact intersection every result of `op` is derived from.

    De Morgan reductions inside the box: intersection overlays A * B,
    difference A * Bc, and union Ac * Bc, whose complement is A + B.
    Each operand and each complement taken is validated once.
    """
    if op not in OPS:
        raise PreconditionError(f"op must be one of {OPS}")
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
