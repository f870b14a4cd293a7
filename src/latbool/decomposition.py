"""Reflex vertical decomposition.

Vertical walls are shot up and down from every reflex vertex (all lattice
points by the intersection structure); the induced subdivision is a
partition of the region into convex cells.  Cells are found by one lookup
per vertex occurrence, keyed by the directed edge leaving it; there is no
vertex->cell map.  The decomposition also records, for every boundary edge,
the reflex vertices vertically visible from it in projection order: exactly
the vertices a rounded chain may visit.

Both the walls and the visibility lists come from one sweep over the
distinct reflex x-coordinates, as in the trapezoidal decomposition (de Berg
et al., *Computational Geometry*, ch. 6).  For each such vertical line the
boundary is profiled once: the sorted levels where edges meet the line,
the feet (the transversal crossings, each with its edge), and which gaps
between levels lie outside the region.  A wall is then the neighbouring
level, and a visibility test between a reflex vertex and an edge is two
prefix-sum range queries.  Only an edge with a foot on the line can see a
vertex of it, so the lists visit the feet and no other edge.  With E edges,
R reflex vertices and L <= R distinct reflex x-coordinates, the profiles
cost O(L E log E), the walls O(R), and the lists O(1) per foot and per
tested (edge, vertex) pair, plus a sort.  Cutting the edges at wall
endpoints searches only the endpoints inside each edge's x-range.

The profiles, walls and lists are computed in the integer frame of the
region's vertices (`exact_core._to_frame`).  The edges are then cut at the
wall ends into the pieces of the cell graph, in that frame scaled again by
the wall ends' denominators.  Cells are walked on demand by
`exact_core.Faces`, the walker that also traces the overlay's rings: inner
rounding reads only the cell at the corner of each non-representable
vertex, so `cell_at_edge_start` walks, checks and maps back the one face it
is asked for, and the walker keeps that walk for every piece of the face.
The cost of the cells is thus per snapped corner, not per cell.  Reading
`cells` walks every face not walked yet, in the walker's order (by least
piece), and checks each.  A cell is a canonical counterclockwise `Ring`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from typing import NamedTuple, Optional

from .arrangement import REFLEX, ExactRegion
from .exact_core import (
    COLLINEAR,
    LEFT,
    Faces,
    InternalInvariantError,
    PreconditionError,
    Pt,
    Ring,
    Scalar,
    _from_frame,
    _marked,
    _to_frame,
    dot,
    orientation,
    point_on_segment,
    pt,
    segment_at,
)


class Wall(NamedTuple):
    source: Pt
    hit: Pt


class Decomposition:
    """The walls, the convex cells and the per-edge visibility lists.

    The cells are the faces of the piece graph of `_build_pieces`, walked
    by one `exact_core.Faces` when first asked for.  Each cell is a
    canonical counterclockwise `Ring`.
    """

    def __init__(self, visible_reflex: dict, walls: list[tuple[Pt, Pt]],
                 pieces: list[tuple[Pt, Pt]],
                 first_piece: dict[tuple[Pt, Pt], int], scale: int):
        self.visible_reflex = visible_reflex
        self._walls = walls
        self._faces = Faces(pieces)
        self._first_piece = first_piece
        self._scale = scale
        # per face, by its first piece: its cell, or None when degenerate
        self._cells: dict[int, Optional[Ring]] = {}

    def cell_at_edge_start(self, u: Pt, v: Pt) -> Ring:
        """The cell adjacent to the corner at u along the directed edge u->v.

        This is the one cell lookup, made once per vertex occurrence: on
        cracked regions different occurrences of one position can see
        different cells, and snapping must stay inside the occurrence's own
        side.  Every directed boundary edge has its cell, unless its first
        piece bounds a degenerate face.
        """
        eid = self._first_piece.get((u, v))
        cell = None if eid is None else self._cell(self._faces.through(eid))
        if cell is None:
            raise PreconditionError(
                f"{u}->{v} is not an edge of the decomposition")
        return cell

    def _cell(self, face: list[int]) -> Optional[Ring]:
        """The cell the face bounds, or None when it is degenerate; checked
        and mapped out of the frame once."""
        if face[0] in self._cells:
            return self._cells[face[0]]
        pieces = self._faces.pieces
        ring = Ring(tuple(pieces[eid][0] for eid in face)).canonical()
        cell = None
        if len(ring.pts) >= 3 and not ring.is_degenerate:
            if not ring.is_ccw:
                raise InternalInvariantError(
                    "decomposition cell traced clockwise")
            back = _from_frame(ring.pts, self._scale)
            # scaling back by a positive d keeps the ring canonical
            cell = _marked(Ring(tuple(back[p] for p in ring.pts)))
        self._cells[face[0]] = cell
        return cell

    @cached_property
    def cells(self) -> tuple[Ring, ...]:
        """Every cell, in the order in which a full trace meets them: by
        the least piece of each face."""
        cells = (self._cell(face) for face in self._faces.all())
        return tuple(cell for cell in cells if cell is not None)

    @cached_property
    def walls(self) -> tuple[Wall, ...]:
        back = _from_frame({p for w in self._walls for p in w}, self._scale)
        return tuple(Wall(back[u], back[v]) for u, v in self._walls)


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
    `feet` lists each transversal crossing (lo.x < X < hi.x) as the edge's
    index and its y, in edge order.  Prefix sums over the levels count the
    crossings; prefix sums over the gaps between consecutive levels count
    the gaps outside the region.  A gap covered by a vertical edge on
    the line is boundary.  Any other gap is classified by the parity of the
    edges below it under the half-open rule lo.x <= X < hi.x (a downward
    ray shifted right by an infinitesimal); rings are closed cycles, so
    this parity agrees with the rightward ray of `point_in_region`.
    """

    def __init__(self, x: int, edges: list[tuple[Pt, Pt]]):
        self.x = x
        ys: list[Scalar] = []
        feet: list[tuple[int, Scalar]] = []
        half_open: list[Scalar] = []
        verticals: list[tuple[Scalar, Scalar]] = []
        for k, (a, b) in enumerate(edges):
            lo, hi = (a, b) if a.x <= b.x else (b, a)
            if not (lo.x <= x <= hi.x):
                continue
            if lo.x == hi.x:
                verticals.append((lo.y, hi.y) if lo.y <= hi.y
                                 else (hi.y, lo.y))
                continue
            if x == lo.x:
                y = lo.y
            elif x == hi.x:
                y = hi.y
            else:
                y = segment_at(lo, hi, x)[0]
                feet.append((k, y))
            ys.append(y)
            if x < hi.x:
                half_open.append(y)
        self.feet = feet
        levels = sorted({*ys, *(y for v in verticals for y in v)})
        self.levels = levels
        index = {y: i for i, y in enumerate(levels)}
        self.index = index
        n = len(levels)

        crossings_at = [0] * n
        for _, y in feet:
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
    """Build the walls, the piece graph of the cells and the per-edge
    visibility lists; the cells are walked when read."""
    if region.is_empty:
        return Decomposition({}, [], [], {}, 1)
    for ring in region.rings:
        for v in ring:
            if v.convexity == REFLEX and not v.pos.is_lattice:
                raise PreconditionError(
                    f"reflex vertex {v.pos} is not a lattice point")

    edges = [(a, b) for ring in region.region.rings for a, b in ring.edges()
             if a != b]
    d, frame = _to_frame(p for e in edges for p in e)
    fedges = [(frame[a], frame[b]) for a, b in edges]
    reflex_pos = sorted(frame[p] for p in region.reflex_positions())
    lines: dict[int, _LineProfile] = {}
    for r in reflex_pos:
        if r.x not in lines:
            lines[r.x] = _LineProfile(r.x, fedges)

    walls: list[Wall] = []
    seen_walls: set[tuple[Pt, Pt]] = set()
    for ring in region.rings:
        m = len(ring)
        for i, v in enumerate(ring):
            if v.convexity != REFLEX:
                continue
            prev = frame[ring[i - 1].pos]
            nxt = frame[ring[(i + 1) % m].pos]
            pos = frame[v.pos]
            for sign in (1, -1):
                if not _dir_in_sector(Pt(pos.x, pos.y + sign), prev, pos,
                                      nxt):
                    continue
                hit = lines[pos.x].wall_hit(pos.y, sign)
                if hit is None:
                    continue
                key = (pos, hit) if pos < hit else (hit, pos)
                if key in seen_walls:
                    continue
                seen_walls.add(key)
                walls.append(Wall(pos, hit))

    visible = _visible_reflex_lists(edges, fedges, reflex_pos, lines,
                                    _from_frame(reflex_pos, d))
    return Decomposition(visible, *_build_pieces(edges, fedges, walls, d))


def _build_pieces(edges: list[tuple[Pt, Pt]], fedges: list[tuple[Pt, Pt]],
                  walls: list[Wall], d: int):
    """The walls, the directed pieces (the edges cut at the wall ends, and
    each wall both ways), the first piece of each edge and the frame scale,
    as `Decomposition` takes them.  `fedges` and `walls` are in the vertex
    frame of lcm d; the results are in that frame scaled again by the wall
    ends' denominators, except that each edge is keyed as in `edges`.
    """
    d2, frame = _to_frame([*(p for e in fedges for p in e),
                           *(w.hit for w in walls)])
    wall_pts = sorted({frame[w.hit] for w in walls}
                      | {frame[w.source] for w in walls})
    wall_xs = [p.x for p in wall_pts]
    pieces: list[tuple[Pt, Pt]] = []
    first_piece: dict[tuple[Pt, Pt], int] = {}
    for edge, (a, b) in zip(edges, fedges):
        a, b = frame[a], frame[b]
        lo_x, hi_x = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
        near = wall_pts[bisect_left(wall_xs, lo_x):
                        bisect_right(wall_xs, hi_x)]
        cuts = [p for p in near
                if p != a and p != b and point_on_segment(p, a, b)]
        # lexicographic order, reversed when b < a, is the order along a-b
        cuts.sort(reverse=b < a)
        chain = [a] + cuts + [b]
        first_piece[edge] = len(pieces)
        pieces.extend(zip(chain, chain[1:]))
    fwalls = [(frame[w.source], frame[w.hit]) for w in walls]
    for u, v in fwalls:
        pieces.append((u, v))
        pieces.append((v, u))
    return fwalls, pieces, first_piece, d * d2


def _visible_reflex_lists(edges: list[tuple[Pt, Pt]],
                          fedges: list[tuple[Pt, Pt]], reflex_pos: list[Pt],
                          lines: dict[int, _LineProfile],
                          back: dict[Pt, Pt]) -> dict:
    """Per DIRECTED edge: vertically visible reflex vertices, interior side.

    Each list is in projection order: by the foot's parameter along the
    edge, then by the distance to the foot.  The side filter (strictly left
    of the directed edge, or on it) matters where a crack edge carries faces
    on both sides: each direction owns the obstacles of its own face only.
    In crack-free regions every visible reflex vertex is on the interior
    side anyway.  Vertical edges see nothing.  All but `edges` are in the
    vertex frame; `back` maps the reflex vertices out of it.
    """
    found: list[list] = [[] for _ in fedges]
    columns: dict[int, list[Pt]] = {}
    for r in reflex_pos:
        columns.setdefault(r.x, []).append(r)
    for x, column in columns.items():
        line = lines[x]
        # feet at edge endpoints belong to the neighbor edges, and vertical
        # edges have none: only the transversal crossings are listed
        for k, fy in line.feet:
            a, b = fedges[k]
            foot_level = line.index[fy]
            t = x if a.x < b.x else -x  # the foot's order along a-b
            for r in column:
                # side = (b.x - a.x) * (r.y - fy): r left of a->b, or on it
                if (r.y - fy) * (b.x - a.x) < 0:
                    continue
                if line.clear(line.index[r.y], foot_level):
                    found[k].append((t, abs(r.y - fy), r))
    out: dict = {}
    for edge, entries in zip(edges, found):
        entries.sort()
        out[edge] = tuple(back[r] for _, _, r in entries)
    return out
