"""Inner and outer rounding pipelines.

Inner: snap every non-representable vertex to its nearest visible lattice
point inside its convex cell, replace each edge by a chain through the
vertically visible reflex vertices, then run a convex-hull style cleanup
that removes every reflex turn not inherited from the exact region.

Outer: enclose every non-representable vertex in its grid pixel, round the
complement against the pixel set with the inner mode, complement back,
then drop extraneous reflex vertices and zero-area debris.

Each search looks only where its answer can be: the snap scans columns
outward from the vertex and stops once no farther column can be nearer,
the cleanup re-tests only the two neighbours of each removal, and the
reflex simplification measures distances and topology only against edges
and vertices whose bounding boxes can matter.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .arrangement import (
    REFLEX,
    ExactRegion,
    exact_intersection,
    vertex_convexity,
)
from .decomposition import (
    ConvexCell,
    Decomposition,
    reflex_vertical_decomposition,
)
from .exact_core import (
    COLLINEAR,
    MARGIN,
    InternalInvariantError,
    MarginError,
    PreconditionError,
    Pt,
    Region,
    Ring,
    UniverseBox,
    _scaled,
    cancel_reversed_pairs,
    complement_in_universe,
    orientation,
    segments_cross_properly,
    squared_distance,
    trace_cycles,
)


# ---------------------------------------------------------------------------
# NVLP by exact column scan


def nvlp(p: Pt, cell: ConvexCell) -> Optional[Pt]:
    """Nearest lattice point of the closed convex cell, exact.

    Runs on ints: p and the cell ring are scaled by one common denominator
    s of their own coordinates (`exact_core._scaled`; a cell's vertices
    need not share the decomposition's frame).  Scans the integer columns
    of the cell outward from p.x, nearest first (the right one of two
    equally near columns first); per column the admissible rows form a
    closed interval, whose ends are integer ceil and floor divisions
    (`_column_rows`), so the nearest candidates are the clamped neighbors of
    p.y.  Every candidate of column gx is at least (gx - p.x)^2 from p, so
    the scan stops at the first column farther than that from the best
    squared distance found.  A column exactly that far is still scanned, so
    ties break lexicographically (x, then y) as over all columns.  Squared
    distances are compared times s^2, which keeps their order.  Returns None
    iff the scan proves the cell lattice-point-free.
    """
    s, (px, py, *c) = _scaled(*p, *(v for q in cell.ring.pts for v in q))
    ring = list(zip(c[0::2], c[1::2]))
    edges = list(zip(ring, ring[1:] + ring[:1]))
    if (px, py) not in ring and any(
            (bx - ax) * (py - ay) < (by - ay) * (px - ax)
            for (ax, ay), (bx, by) in edges if (ax, ay) != (bx, by)):
        # closed membership: it also accepts a vertex that the canonical
        # form dropped from the cell ring as straight
        raise PreconditionError(f"{p} is not on the cell")
    xs = [x for x, _ in ring]
    first, last = -(-min(xs) // s), max(xs) // s
    right = -(-px // s)
    left = right - 1
    base = py // s
    best: Optional[tuple[int, int, int]] = None
    while left >= first or right <= last:
        if right <= last and (left < first or right * s - px <= px - left * s):
            gx, right = right, right + 1
        else:
            gx, left = left, left - 1
        dx2 = (gx * s - px) ** 2
        if best is not None and dx2 > best[0]:
            break
        rows = _column_rows(edges, gx * s, s)
        if rows is None:
            continue
        lo, hi = rows
        for gy in (min(max(base, lo), hi), min(max(base + 1, lo), hi)):
            key = (dx2 + (gy * s - py) ** 2, gx, gy)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return Pt(best[1], best[2])


def _column_rows(edges: list[tuple[tuple[int, int], tuple[int, int]]],
                 x: int, s: int) -> Optional[tuple[int, int]]:
    """The least and the greatest integer row of the column x / s in the
    convex polygon of the scaled `edges`, or None if it has none.

    Each edge meeting the line x contributes y = num / (den * s) (both ends
    when it lies on the line); the ceil of the least y is the least of the
    ceils, and the floor of the greatest the greatest of the floors.
    """
    lo = hi = None
    for (ax, ay), (bx, by) in edges:
        if ax == bx:
            if ax != x:
                continue
            ends = ((ay, s), (by, s))
        else:
            if ax > bx:
                ax, ay, bx, by = bx, by, ax, ay
            if not ax <= x <= bx:
                continue
            ends = ((ay * (bx - ax) + (x - ax) * (by - ay), (bx - ax) * s),)
        for num, den in ends:
            c, f = -(-num // den), num // den
            if lo is None or c < lo:
                lo = c
            if hi is None or f > hi:
                hi = f
    if lo is None or lo > hi:
        return None
    return lo, hi


# ---------------------------------------------------------------------------
# chains


def build_chain(p: Pt, q: Pt, decomposition: Decomposition,
                vp: Pt, vq: Pt) -> list[Pt]:
    """Rounded counterpart of the edge pq: vp -> visible reflex -> vq, where
    vp and vq are the lattice points that p and q snap to."""
    mids = decomposition.visible_reflex.get((p, q), ())
    chain = [vp]
    for r in mids:
        if chain[-1] != r:
            chain.append(r)
    if chain[-1] != vq:
        chain.append(vq)
    return chain


# ---------------------------------------------------------------------------
# convexity cleanup (the Graham-scan variant)


RANK_ORIGINAL = 0
RANK_SNAPPED = 1
RANK_INSERTED = 2


def convexify_cleanup(points: Sequence[Pt], protected: Sequence[bool],
                      rank: Sequence[int]) -> tuple[list[Pt], list[bool]]:
    """Remove every unprotected reflex occurrence, cascading until stable.

    Protected occurrences are the ring positions where the exact region
    itself had a reflex vertex; everything else that turns reflex is
    scanned away, most-artificial first: chain insertions before snapped
    crossings before original vertices.  Insertions are redundant copies
    of vertices protected elsewhere, while an insertion spike can disguise
    a needed snap target as a removable reversal tip; taking insertions
    out first lets the real geometry settle.

    `rank` gives each occurrence's `RANK_*` class.  Each round removes the
    removable occurrence of highest rank, the first in list order among
    equals.  A removal changes only the turns at its two neighbours, and
    only their new adjacency can repeat a point, so the removable flags are
    kept per occurrence and re-tested there alone.
    """
    pts = list(points)
    prot = list(protected)
    rk = list(rank)
    _dedupe(pts, prot, rk)
    flag = ([_removable(pts, prot, i) for i in range(len(pts))]
            if len(pts) >= 3 else [])
    while len(pts) >= 3:
        pick = -1
        for i, f in enumerate(flag):
            if f and (pick < 0 or rk[i] > rk[pick]):
                pick = i
        if pick < 0:
            break
        del pts[pick], prot[pick], rk[pick], flag[pick]
        n = len(pts)
        i, j = (pick - 1) % n, pick % n
        if pts[i] == pts[j]:
            # merged as _dedupe merges: into the earlier occurrence, which
            # is the last one when the repeat wraps around
            _merge_into(pts, prot, rk, i, j)
            del flag[j]
            touched: tuple[int, ...] = (i - (j < i),)
        else:
            touched = (i, j)
        if len(pts) >= 3:
            for k in touched:
                flag[k] = _removable(pts, prot, k)
    return pts, prot


def _removable(pts: list[Pt], prot: list[bool], i: int) -> bool:
    return not prot[i] and vertex_convexity(
        pts[i - 1], pts[i], pts[(i + 1) % len(pts)]) == REFLEX


def _merge_into(pts: list[Pt], prot: list[bool], rk: list[int],
                i: int, j: int) -> None:
    """Fold occurrence j into the equal occurrence i."""
    prot[i] = prot[i] or prot[j]
    rk[i] = min(rk[i], rk[j])
    del pts[j], prot[j], rk[j]


def _dedupe(pts: list[Pt], prot: list[bool], rk: list[int]) -> None:
    """Merge each run of equal consecutive points into its first
    occurrence; a repeat across the wrap merges into the last one."""
    k = 1
    while k < len(pts):
        if pts[k - 1] == pts[k]:
            _merge_into(pts, prot, rk, k - 1, k)
        else:
            k += 1
    if len(pts) >= 2 and pts[-1] == pts[0]:
        _merge_into(pts, prot, rk, len(pts) - 1, 0)


# ---------------------------------------------------------------------------
# inner rounding


def inner_round(region: ExactRegion) -> Region:
    """The inner lattice approximation: contained, lattice, within sqrt(2)."""
    if region.is_empty:
        return Region(())
    decomposition = reflex_vertical_decomposition(region)

    out_rings: list[Ring] = []
    for ring in region.rings:
        m = len(ring)
        # occurrence-accurate snap: the cell at the corner along the
        # outgoing edge (matters only across cracks; elsewhere every
        # incident cell gives the same answer by the locality property)
        snap: list[Optional[Pt]] = []
        for i, v in enumerate(ring):
            if v.pos.is_lattice:
                snap.append(v.pos)
            else:
                nxt = ring[(i + 1) % m]
                cell = decomposition.cell_at_edge_start(v.pos, nxt.pos)
                snap.append(nvlp(v.pos, cell))
        if any(s is None for s in snap):
            # lattice-point-free convex component: no rounded counterpart
            if not all(s is None for s in snap):
                raise InternalInvariantError(
                    "mixed NVLP failures within one component")
            continue
        pts: list[Pt] = []
        prot: list[bool] = []
        rk: list[int] = []
        for i, v in enumerate(ring):
            nxt = ring[(i + 1) % m]
            chain = build_chain(v.pos, nxt.pos, decomposition,
                                snap[i], snap[(i + 1) % m])
            pts.append(chain[0])
            prot.append(v.convexity == REFLEX)
            rk.append(RANK_ORIGINAL if v.pos.is_lattice else RANK_SNAPPED)
            for r in chain[1:-1]:
                pts.append(r)
                prot.append(False)
                rk.append(RANK_INSERTED)
        cleaned, _ = convexify_cleanup(pts, prot, rk)
        result = Ring(tuple(cleaned)).canonical()
        if len(set(result.pts)) < 3:
            continue
        out_rings.append(result)
    return Region(tuple(out_rings)).canonical()


# ---------------------------------------------------------------------------
# pixels


def pixel_set(region: ExactRegion) -> Region:
    """The set I: one grid pixel per non-representable vertex, merged.

    A vertex with exactly one integer coordinate contributes a degenerate
    pixel: the unit lattice segment through it, kept as a zero-area ring
    unless a full pixel already covers it.
    """
    cells: set[tuple[int, int]] = set()
    slits: set[tuple[Pt, Pt]] = set()
    for v in sorted(region.non_lattice_positions()):
        xi = isinstance(v.x, int)
        yi = isinstance(v.y, int)
        if not xi and not yi:
            cells.add((math.floor(v.x), math.floor(v.y)))
        elif xi:
            y0 = math.floor(v.y)
            slits.add((Pt(v.x, y0), Pt(v.x, y0 + 1)))
        else:
            x0 = math.floor(v.x)
            slits.add((Pt(x0, v.y), Pt(x0 + 1, v.y)))
    rings = _unit_cell_union_rings(cells)
    for a, b in sorted(slits):
        if _slit_covered(a, b, cells):
            continue
        rings.append(Ring((a, b)))
    return Region(tuple(rings)).canonical()


def _slit_covered(a: Pt, b: Pt, cells: set[tuple[int, int]]) -> bool:
    if a.x == b.x:  # vertical slit
        y = min(a.y, b.y)
        return (a.x - 1, y) in cells or (a.x, y) in cells
    x = min(a.x, b.x)
    return (x, a.y - 1) in cells or (x, a.y) in cells


def _unit_cell_union_rings(cells: set[tuple[int, int]]) -> list[Ring]:
    if not cells:
        return []
    directed: list[tuple[Pt, Pt]] = []
    for (cx, cy) in cells:
        if (cx, cy - 1) not in cells:
            directed.append((Pt(cx, cy), Pt(cx + 1, cy)))
        if (cx, cy + 1) not in cells:
            directed.append((Pt(cx + 1, cy + 1), Pt(cx, cy + 1)))
        if (cx - 1, cy) not in cells:
            directed.append((Pt(cx, cy + 1), Pt(cx, cy)))
        if (cx + 1, cy) not in cells:
            directed.append((Pt(cx + 1, cy), Pt(cx + 1, cy + 1)))
    return [Ring(tuple(c)) for c in trace_cycles(directed)]


# ---------------------------------------------------------------------------
# outer rounding


def outer_round(region: ExactRegion, box: UniverseBox) -> Region:
    """The outer lattice approximation: covering, lattice, within sqrt(2).

    Pipeline: complement against the pixel set, inner-round, complement
    back, strip zero-width debris, drop removable extraneous reflex
    vertices, remove zero-area components.
    """
    if region.is_empty:
        return Region(())
    _check_outer_margin(region, box)
    pixels = pixel_set(region)
    comp = complement_in_universe(region.region, box, margin=0)
    pixels_comp = complement_in_universe(pixels, box, margin=0)
    middle = exact_intersection(comp, pixels_comp, check=False)
    middle_inner = inner_round(middle)
    raw = complement_in_universe(middle_inner, box, margin=0)
    despurred = Region(tuple(r.collapse_spurs() for r in raw.rings)).canonical()
    despurred = Region(tuple(r for r in despurred.rings if len(r.pts) >= 3))
    simplified = simplify_reflex(despurred, region)
    out = remove_zero_area(simplified)
    for ring in out.rings:
        for p in ring.pts:
            if not p.is_lattice:
                raise InternalInvariantError(
                    "outer rounding produced a non-lattice vertex")
    return out


def _check_outer_margin(region: ExactRegion, box: UniverseBox) -> None:
    """Complement-side inputs may legally fill the box; everything that the
    pixel construction can touch must keep the margin."""
    bbox = region.region.bbox
    if bbox is None:
        return
    x0, y0, x1, y1 = bbox
    if not (box.min.x <= x0 and box.min.y <= y0
            and x1 <= box.max.x and y1 <= box.max.y):
        raise MarginError("region exceeds the universe box")
    for v in region.non_lattice_positions():
        if not (box.min.x + MARGIN <= v.x <= box.max.x - MARGIN
                and box.min.y + MARGIN <= v.y <= box.max.y - MARGIN):
            raise MarginError(
                f"non-representable vertex {v} too close to the universe box")


# ---------------------------------------------------------------------------
# reflex simplification


def simplify_reflex(pbar: Region, exact: ExactRegion) -> Region:
    """Remove extraneous reflex vertices of the outer rounding.

    A reflex occurrence with no counterpart vertex of the exact region is
    removed when it and both neighbors lie within sqrt(2) of one common
    exact edge (so the filled triangle keeps the Hausdorff bound) and the
    removal causes no topological change.  Greedy in boundary order,
    re-testing after each removal.

    A vertex whose position the rings visit more than once (a pinch) is
    kept.  The tests skip an exact edge unless its `_near_box` holds all
    three points, a ring edge whose bounding box misses the new edge, and a
    vertex outside the removed triangle's bounding box: none of them can
    change the answer.
    """
    counterparts = {v.pos for ring in exact.rings for v in ring}
    exact_edges = [(a, b, _near_box(a, b))
                   for a, b in exact.region.edges() if a != b]
    rings = [list(r.pts) for r in pbar.rings]
    changed = True
    while changed:
        changed = False
        for ri, pts in enumerate(rings):
            n = len(pts)
            if n < 4:
                continue
            for i in range(n):
                r = pts[i]
                if r in counterparts:
                    continue
                prev = pts[i - 1]
                nxt = pts[(i + 1) % n]
                if vertex_convexity(prev, r, nxt) != REFLEX:
                    continue
                if prev == nxt:
                    continue
                if not _near_common_edge((prev, r, nxt), exact_edges):
                    continue
                if not _removal_topology_ok(rings, ri, i):
                    continue
                del pts[i]
                changed = True
                break
            if changed:
                break
    # a ring that lost no vertex goes on as it is, with what is known of it
    return Region(tuple(r if len(p) == len(r.pts) else Ring(tuple(p))
                        for r, p in zip(pbar.rings, rings))).canonical()


def _near_box(a: Pt, b: Pt) -> tuple[int, int, int, int]:
    """(x0, y0, x1, y1): every point within sqrt(2) of the segment a-b lies
    strictly inside this integer box, being less than 2 away from the
    segment's bounding box along each axis."""
    return (math.floor(min(a.x, b.x)) - 2, math.floor(min(a.y, b.y)) - 2,
            math.ceil(max(a.x, b.x)) + 2, math.ceil(max(a.y, b.y)) + 2)


def _near_common_edge(
        triple: tuple[Pt, Pt, Pt],
        exact_edges: list[tuple[Pt, Pt, tuple[int, int, int, int]]]) -> bool:
    xs = [v.x for v in triple]
    ys = [v.y for v in triple]
    x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)
    for a, b, (bx0, by0, bx1, by1) in exact_edges:
        if (bx0 < x0 and x1 < bx1 and by0 < y0 and y1 < by1
                and all(squared_distance(v, (a, b)) < 2 for v in triple)):
            return True
    return False


def _removal_topology_ok(rings: list[list[Pt]], ri: int, i: int) -> bool:
    pts = rings[ri]
    n = len(pts)
    prev = pts[i - 1]
    r = pts[i]
    nxt = pts[(i + 1) % n]
    # a pinch: the vertex test below skips every point at r, so another
    # visit of r, whose edges may leave into the swept triangle, goes
    # untested
    if sum(other.count(r) for other in rings) > 1:
        return False
    new_seg = (prev, nxt)
    sx0, sx1 = min(prev.x, nxt.x), max(prev.x, nxt.x)
    sy0, sy1 = min(prev.y, nxt.y), max(prev.y, nxt.y)
    skip = {((i - 1) % n, i), (i, (i + 1) % n)}
    for rj, other in enumerate(rings):
        m = len(other)
        for j, (a, b) in enumerate(zip(other, other[1:] + other[:1])):
            # a proper crossing point lies in both bounding boxes
            if (a.x < sx0 and b.x < sx0 or a.x > sx1 and b.x > sx1
                    or a.y < sy0 and b.y < sy0 or a.y > sy1 and b.y > sy1):
                continue
            if a == b:
                continue
            if rj == ri and (j, (j + 1) % m) in skip:
                continue
            if segments_cross_properly(new_seg, (a, b)):
                return False
    if orientation(prev, r, nxt) == COLLINEAR:
        return True
    tx0, tx1 = min(sx0, r.x), max(sx1, r.x)
    ty0, ty1 = min(sy0, r.y), max(sy1, r.y)
    for rj, other in enumerate(rings):
        for j, w in enumerate(other):
            # a point strictly inside the triangle is strictly inside its box
            if not (tx0 < w.x < tx1 and ty0 < w.y < ty1):
                continue
            if rj == ri and j in {(i - 1) % n, i, (i + 1) % n}:
                continue
            if w in (prev, r, nxt):
                continue
            if _strictly_in_triangle(w, prev, r, nxt):
                return False
    return True


def _strictly_in_triangle(w: Pt, a: Pt, b: Pt, c: Pt) -> bool:
    turn = orientation(a, b, w)
    return (turn != COLLINEAR and orientation(b, c, w) == turn
            and orientation(c, a, w) == turn)


# ---------------------------------------------------------------------------
# zero-area removal


def remove_zero_area(region: Region) -> Region:
    """Drop rings and ring pairs that enclose no interior."""
    return cancel_reversed_pairs(r for r in region.rings
                                 if not r.is_degenerate)
