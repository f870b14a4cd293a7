"""Reflex vertical decomposition.

Vertical walls are shot up and down from every reflex vertex (all lattice
points by the intersection structure); the induced subdivision is a
partition of the region into convex cells.  The decomposition also records,
for every boundary edge, the reflex vertices vertically visible from it in
projection order: exactly the vertices a rounded chain may visit.

Both the walls and the visibility lists come from one sweep over the
distinct reflex x-coordinates, as in the trapezoidal decomposition (de Berg
et al., *Computational Geometry*, ch. 6).  For each such vertical line the
boundary is profiled once: the sorted levels where edges meet the line,
which of them are transversal crossings, and which gaps between levels lie
outside the region.  A wall is then the neighbouring level, and a visibility
test between a reflex vertex and an edge is two prefix-sum range queries.
With E edges, R reflex vertices and L <= R distinct reflex x-coordinates,
the profiles cost O(L E log E), the walls O(R), and the lists O(L E) plus
O(1) per tested (edge, vertex) pair and a sort.  Cutting the edges at wall
endpoints searches only the endpoints inside each edge's x-range.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .arrangement import REFLEX, ExactRegion
from .exact_core import (
    COLLINEAR,
    LEFT,
    RIGHT,
    InternalInvariantError,
    trace_cycles,
    PreconditionError,
    Pt,
    Ring,
    Scalar,
    dot,
    orientation,
    point_on_segment,
    pt,
    segment_at,
)

UP = "up"
DOWN = "down"


class Wall(NamedTuple):
    source: Pt
    direction: str
    hit: Pt


@dataclass(frozen=True)
class ConvexCell:
    """One convex face of the decomposition (CCW boundary)."""

    ring: Ring
    incident_vertices: tuple[Pt, ...]

    def contains(self, q: Pt) -> bool:
        for a, b in self.ring.edges():
            if a != b and orientation(a, b, q) == RIGHT:
                return False
        return True


@dataclass(frozen=True)
class Decomposition:
    cells: tuple[ConvexCell, ...]
    walls: tuple[Wall, ...]
    cell_index_of_vertex: dict
    visible_reflex: dict
    cell_of_edge_start: dict

    def cell_of_vertex(self, v: Pt) -> ConvexCell:
        idx = self.cell_index_of_vertex.get(v)
        if idx is None:
            raise PreconditionError(f"{v} is not a vertex of the decomposition")
        return self.cells[idx]

    def cell_at_edge_start(self, u: Pt, v: Pt) -> ConvexCell:
        """The cell adjacent to the corner at u along the directed edge u->v.

        This is the occurrence-accurate cell: on cracked regions different
        occurrences of one position can see different cells, and snapping
        must stay inside the occurrence's own side.
        """
        idx = self.cell_of_edge_start.get((u, v))
        if idx is None:
            return self.cell_of_vertex(u)
        return self.cells[idx]


# ---------------------------------------------------------------------------


def _dir_in_sector(d: Pt, prev: Pt, v: Pt, nxt: Pt) -> bool:
    """Is the direction from v to d strictly inside the interior sector at
    the vertex v of the boundary path prev->v->nxt (interior on the left)?

    The sector spans counterclockwise from the direction to nxt to the
    direction to prev.
    """
    span = orientation(v, nxt, prev)
    ahead = orientation(v, nxt, d)
    if span == COLLINEAR and dot(v, nxt, prev) > 0:
        # reversal vertex: everything except the spur direction is interior
        return not (ahead == COLLINEAR and dot(v, nxt, d) > 0)
    # at a straight vertex both tests below reduce to ahead == LEFT
    if span == LEFT:
        return ahead == LEFT and orientation(v, d, prev) == LEFT
    return ahead == LEFT or orientation(v, d, prev) == LEFT


class _LineProfile:
    """The region boundary along the vertical line x = X.

    `levels` are the sorted distinct y-values where edges meet the line.
    Prefix sums over the levels count transversal crossings
    (lo.x < X < hi.x); prefix sums over the gaps between consecutive levels
    count the gaps outside the region.  A gap covered by a vertical edge on
    the line is boundary.  Any other gap is classified by the parity of the
    edges below it under the half-open rule lo.x <= X < hi.x (a downward
    ray shifted right by an infinitesimal); rings are closed cycles, so
    this parity agrees with the rightward ray of `point_in_region`.
    """

    def __init__(self, x: int, edges: list[tuple[Pt, Pt]]):
        self.x = x
        ys: list[Optional[Scalar]] = []
        crossing: list[Scalar] = []
        half_open: list[Scalar] = []
        verticals: list[tuple[Scalar, Scalar]] = []
        for a, b in edges:
            lo, hi = (a, b) if a.x <= b.x else (b, a)
            if not (lo.x <= x <= hi.x):
                ys.append(None)
                continue
            if lo.x == hi.x:
                ys.append(None)
                verticals.append((lo.y, hi.y) if lo.y <= hi.y
                                 else (hi.y, lo.y))
                continue
            if x == lo.x:
                y = lo.y
            elif x == hi.x:
                y = hi.y
            else:
                y = segment_at(lo, hi, x)[0]
                crossing.append(y)
            ys.append(y)
            if x < hi.x:
                half_open.append(y)
        self.ys = ys
        levels = sorted({y for y in ys if y is not None}
                        | {y for v in verticals for y in v})
        self.levels = levels
        index = {y: i for i, y in enumerate(levels)}
        self.index = index
        n = len(levels)

        crossings_at = [0] * n
        for y in crossing:
            crossings_at[index[y]] = 1
        below_at = [0] * n
        for y in half_open:
            below_at[index[y]] += 1
        covered = [0] * (n + 1)     # per gap: vertical edges covering it
        inside = [0] * (n + 1)      # per level: vertical edges strictly around
        for ylo, yhi in verticals:
            i0, i1 = index[ylo], index[yhi]
            covered[i0] += 1
            covered[i1] -= 1
            inside[i0 + 1] += 1
            inside[i1] -= 1

        self.cross_prefix = [0] * (n + 1)
        self.exterior_prefix = [0] * (n + 1)
        self.blocked = [False] * n
        below = cover = around = 0
        for i in range(n):
            cover += covered[i]
            around += inside[i]
            below += below_at[i]
            self.blocked[i] = around > 0
            exterior = cover == 0 and below % 2 == 0
            self.cross_prefix[i + 1] = self.cross_prefix[i] + crossings_at[i]
            self.exterior_prefix[i + 1] = self.exterior_prefix[i] + exterior

    def wall_hit(self, y: int, sign: int) -> Optional[Pt]:
        """First boundary contact of the vertical ray from (X, y), sign=+1 up.

        Contacts at edge endpoints count (walls stop at reflex vertices
        above them).  None when the ray is blocked immediately: (X, y) lies
        strictly inside a vertical edge, or no level lies beyond it.
        """
        i = self.index[y]
        j = i + sign
        if self.blocked[i] or not 0 <= j < len(self.levels):
            return None
        return pt(self.x, self.levels[j])

    def clear(self, i: int, j: int) -> bool:
        """Is the open vertical segment between levels i and j in the
        closed region, crossed transversally by no edge?"""
        if i > j:
            i, j = j, i
        if i == j:
            return True
        return (self.cross_prefix[j] == self.cross_prefix[i + 1]
                and self.exterior_prefix[j] == self.exterior_prefix[i])


def reflex_vertical_decomposition(region: ExactRegion) -> Decomposition:
    """Build walls, cells, the vertex->cell map and per-edge visibility lists."""
    if region.is_empty:
        return Decomposition((), (), {}, {}, {})
    for ring in region.rings:
        for v in ring:
            if v.convexity == REFLEX and not v.pos.is_lattice:
                raise PreconditionError(
                    f"reflex vertex {v.pos} is not a lattice point")

    edges = [(a, b) for ring in region.region.rings for a, b in ring.edges()
             if a != b]
    reflex_pos = sorted(region.reflex_positions())
    lines: dict[int, _LineProfile] = {}
    for r in reflex_pos:
        if r.x not in lines:
            lines[r.x] = _LineProfile(r.x, edges)

    walls: list[Wall] = []
    seen_walls: set[tuple[Pt, Pt]] = set()
    for ring in region.rings:
        m = len(ring)
        for i, v in enumerate(ring):
            if v.convexity != REFLEX:
                continue
            prev = ring[i - 1].pos
            nxt = ring[(i + 1) % m].pos
            for sign, name in ((1, UP), (-1, DOWN)):
                if not _dir_in_sector(Pt(v.pos.x, v.pos.y + sign), prev,
                                      v.pos, nxt):
                    continue
                hit = lines[v.pos.x].wall_hit(v.pos.y, sign)
                if hit is None:
                    continue
                key = (v.pos, hit) if v.pos < hit else (hit, v.pos)
                if key in seen_walls:
                    continue
                seen_walls.add(key)
                walls.append(Wall(v.pos, name, hit))

    cells, edge_cell = _build_cells(region, walls)
    # each vertex maps to the first cell in `order` whose traced cycle
    # visits it
    cell_index: dict[Pt, int] = {}
    positions = {v.pos for ring in region.rings for v in ring}
    order = sorted(
        range(len(cells)),
        key=lambda ci: (min(cells[ci].ring.pts), cells[ci].ring.pts))
    for ci in order:
        for p in cells[ci].incident_vertices:
            cell_index.setdefault(p, ci)
    for p in positions - cell_index.keys():
        # vertex swallowed by collinear collapse: locate geometrically
        for ci in order:
            if cells[ci].contains(p):
                cell_index[p] = ci
                break

    visible = _visible_reflex_lists(edges, reflex_pos, lines)
    return Decomposition(tuple(cells), tuple(walls), cell_index, visible,
                         edge_cell)


def _build_cells(region: ExactRegion, walls: list[Wall]
                 ) -> tuple[list[ConvexCell], dict]:
    wall_pts = sorted({w.hit for w in walls} | {w.source for w in walls})
    wall_xs = [p.x for p in wall_pts]
    directed: list[tuple[Pt, Pt]] = []
    first_piece: dict[tuple[Pt, Pt], tuple[Pt, Pt]] = {}
    for ring in region.region.rings:
        for a, b in ring.edges():
            if a == b:
                continue
            lo_x, hi_x = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
            near = wall_pts[bisect_left(wall_xs, lo_x):
                            bisect_right(wall_xs, hi_x)]
            cuts = [p for p in near
                    if p != a and p != b and point_on_segment(p, a, b)]
            # lexicographic order, reversed when b < a, is the order along a-b
            cuts.sort(reverse=b < a)
            chain = [a] + cuts + [b]
            first_piece[(a, b)] = (chain[0], chain[1])
            for u, v in zip(chain, chain[1:]):
                directed.append((u, v))
    for w in walls:
        directed.append((w.source, w.hit))
        directed.append((w.hit, w.source))

    cycles = trace_cycles(directed)
    cells: list[ConvexCell] = []
    piece_cell: dict[tuple[Pt, Pt], int] = {}
    positions = {v.pos for ring in region.rings for v in ring}
    for cyc in cycles:
        ring = Ring(tuple(cyc)).canonical()
        if len(ring.pts) < 3 or ring.is_degenerate:
            continue
        if not ring.is_ccw:
            raise InternalInvariantError("decomposition cell traced clockwise")
        idx = len(cells)
        cells.append(ConvexCell(ring, tuple(sorted(set(cyc) & positions))))
        n = len(cyc)
        for i in range(n):
            piece_cell[(cyc[i], cyc[(i + 1) % n])] = idx
    edge_cell = {edge: piece_cell[piece]
                 for edge, piece in first_piece.items() if piece in piece_cell}
    return cells, edge_cell


def _visible_reflex_lists(edges: list[tuple[Pt, Pt]], reflex_pos: list[Pt],
                          lines: dict[int, _LineProfile]) -> dict:
    """Per DIRECTED edge: vertically visible reflex vertices, interior side.

    Each list is in projection order: by the foot's parameter along the
    edge, then by the distance to the foot.  The side filter (strictly left
    of the directed edge, or on it) matters where a crack edge carries faces
    on both sides: each direction owns the obstacles of its own face only.
    In crack-free regions every visible reflex vertex is on the interior
    side anyway.  Vertical edges see nothing.
    """
    found: dict[tuple[Pt, Pt], list] = {}
    first: list[int] = []
    for k, e in enumerate(edges):
        if e not in found:
            found[e] = []
            first.append(k)
    columns: dict[int, list[Pt]] = {}
    for r in reflex_pos:
        columns.setdefault(r.x, []).append(r)
    for x, column in columns.items():
        line = lines[x]
        for k in first:
            a, b = edges[k]
            fy = line.ys[k]
            # feet at the edge endpoints belong to the neighbor edges
            if fy is None or a.x == x or b.x == x:
                continue
            foot_level = line.index[fy]
            t = x if a.x < b.x else -x  # the foot's order along a-b
            entries = found[(a, b)]
            for r in column:
                # side = (b.x - a.x) * (r.y - fy): r left of a->b, or on it
                if (r.y - fy) * (b.x - a.x) < 0:
                    continue
                if line.clear(line.index[r.y], foot_level):
                    entries.append((t, abs(r.y - fy), r))
    out: dict = {}
    for e, entries in found.items():
        entries.sort()
        out[e] = tuple(r for _, _, r in entries)
    return out
