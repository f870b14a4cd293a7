"""Hand fixtures and the seeded random lattice-region generator.

The random generator is deterministic per seed; the LATBOOL_SEED
environment variable overrides the default seed everywhere the corpus is
built (tests, acceptance, batch verification).
"""

from __future__ import annotations

import os
import random
from math import gcd
from typing import Optional

from .exact_core import (INTERIOR, Pt, Region, Ring, orientation,
                         point_in_region, region_ok)

DEFAULT_SEED = 20050317
SPAN_LIMIT = 64  # random_pairs keeps every coordinate in [0, SPAN_LIMIT]


def default_seed() -> int:
    env = os.environ.get("LATBOOL_SEED")
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def rect(x0: int, y0: int, x1: int, y1: int) -> Ring:
    return Ring((Pt(x0, y0), Pt(x1, y0), Pt(x1, y1), Pt(x0, y1)))


def region(*rings: Ring) -> Region:
    return Region(tuple(rings)).canonical()


# ---------------------------------------------------------------------------
# hand fixtures: (name, A, B) pairs


def hand_fixture_pairs() -> list[tuple[str, Region, Region]]:
    e2_a = region(Ring((Pt(0, 0), Pt(5, 0), Pt(0, 5))))
    e2_b = region(Ring((Pt(0, 0), Pt(5, 0), Pt(5, 5))))
    lshape = region(Ring((Pt(0, 0), Pt(8, 0), Pt(8, 4), Pt(4, 4),
                          Pt(4, 8), Pt(0, 8))))
    holed = region(rect(0, 0, 10, 10), rect(3, 3, 7, 7).reversed_())
    ushape = region(Ring((Pt(0, 0), Pt(9, 0), Pt(9, 7), Pt(6, 7), Pt(6, 3),
                          Pt(3, 3), Pt(3, 7), Pt(0, 7))))
    island = region(rect(0, 0, 12, 12), rect(2, 2, 10, 10).reversed_(),
                    rect(4, 4, 8, 8))
    # thin slabs crossing in a lattice-point-free parallelogram
    sliver_a = region(Ring((Pt(0, 0), Pt(1, 0), Pt(8, 3), Pt(7, 3))))
    sliver_b = region(Ring((Pt(7, 0), Pt(8, 0), Pt(1, 3), Pt(0, 3))))
    # one-integer-coordinate crossing: degenerate pixel (vertical slit)
    slit_a = region(Ring((Pt(0, 0), Pt(2, 3), Pt(0, 3))))
    slit_b = region(rect(1, 0, 3, 3))
    return [
        ("e2-triangles", e2_a, e2_b),
        ("axis-squares", region(rect(0, 0, 4, 4)), region(rect(2, 2, 6, 6))),
        ("disjoint-units", region(rect(0, 0, 1, 1)), region(rect(3, 3, 4, 4))),
        ("identical", region(rect(1, 1, 6, 6)), region(rect(1, 1, 6, 6))),
        ("hole-nesting", holed, region(rect(2, 2, 8, 8))),
        ("collinear-overlap", region(rect(0, 0, 4, 4)), region(rect(4, 1, 8, 3))),
        ("shared-edge-portion", region(rect(0, 0, 4, 4)), region(rect(2, 0, 6, 4))),
        ("lattice-free-sliver", sliver_a, sliver_b),
        ("l-shape-square", lshape, region(rect(2, 2, 6, 6))),
        ("u-shape-bar", ushape, region(rect(0, 4, 9, 6))),
        ("degenerate-pixel", slit_a, slit_b),
        ("vertex-on-edge", region(rect(0, 0, 6, 6)),
         region(Ring((Pt(6, 3), Pt(9, 1), Pt(9, 5))))),
        ("island-in-hole", island, region(rect(3, 3, 9, 9))),
        ("touching-corners", region(rect(0, 0, 3, 3)), region(rect(3, 3, 6, 6))),
    ]


# ---------------------------------------------------------------------------
# random generator


def random_region(rng: random.Random, span: int = 32,
                  offset: tuple[int, int] = (0, 0)) -> Region:
    """A valid random lattice region inside [offset, offset+span]^2."""
    for _ in range(200):
        kind = rng.choice(("star", "star", "rect", "hull", "staircase"))
        ring = _random_ring(rng, span, kind)
        if ring is None:
            continue
        ox, oy = offset
        ring = Ring(tuple(Pt(p.x + ox, p.y + oy) for p in ring.pts))
        rings = [ring]
        if rng.random() < 0.3:
            hole = _hole_inside(rng, ring)
            if hole is not None:
                rings.append(hole)
        candidate = Region(tuple(rings)).canonical()
        if not candidate.is_empty and region_ok(candidate):
            return candidate
    raise RuntimeError("random region generation failed to converge")


def _random_ring(rng: random.Random, span: int, kind: str) -> Optional[Ring]:
    if kind == "rect":
        x0, x1 = sorted(rng.sample(range(span + 1), 2))
        y0, y1 = sorted(rng.sample(range(span + 1), 2))
        return rect(x0, y0, x1, y1)
    if kind == "staircase":
        w = rng.randint(4, max(5, span))
        h = rng.randint(4, max(5, span))
        mx = rng.randint(1, w - 1)
        my = rng.randint(1, h - 1)
        return Ring((Pt(0, 0), Pt(w, 0), Pt(w, my), Pt(mx, my),
                     Pt(mx, h), Pt(0, h)))
    npts = rng.randint(5, 10)
    pts = {Pt(rng.randint(0, span), rng.randint(0, span)) for _ in range(npts)}
    if len(pts) < 3:
        return None
    if kind == "hull":
        ring = _hull_ring(sorted(pts))
    else:
        ring = _star_ring(sorted(pts))
    if ring is None:
        return None
    ring = ring.canonical()
    if len(ring.pts) < 3 or ring.is_degenerate:
        return None
    return ring if ring.is_ccw else ring.reversed_().canonical()


def _hull_ring(pts: list[Pt]) -> Optional[Ring]:
    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orientation(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    if len(pts) < 3:
        return None
    lower = half(pts)
    upper = half(list(reversed(pts)))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return None
    return Ring(tuple(hull))


def _star_ring(pts: list[Pt]) -> Optional[Ring]:
    cx = sum(p.x for p in pts)
    cy = sum(p.y for p in pts)
    n = len(pts)
    # sort by exact angle around the centroid, one point per direction
    by_dir: dict[tuple[int, int], Pt] = {}
    for p in pts:
        dx = p.x * n - cx
        dy = p.y * n - cy
        if dx == 0 and dy == 0:
            continue
        g = gcd(abs(dx), abs(dy))
        key = (dx // g, dy // g)
        cur = by_dir.get(key)
        if cur is None or (dx * dx + dy * dy >
                           (cur.x * n - cx) ** 2 + (cur.y * n - cy) ** 2):
            by_dir[key] = p
    if len(by_dir) < 3:
        return None
    dirs = list(by_dir.items())

    def cmp_dir(u, v):
        (ux, uy), _ = u
        (vx, vy), _ = v
        hu = 0 if (uy > 0 or (uy == 0 and ux > 0)) else 1
        hv = 0 if (vy > 0 or (vy == 0 and vx > 0)) else 1
        if hu != hv:
            return -1 if hu < hv else 1
        c = ux * vy - uy * vx
        return -1 if c > 0 else (1 if c < 0 else 0)

    import functools
    dirs.sort(key=functools.cmp_to_key(cmp_dir))
    return Ring(tuple(p for _, p in dirs))


def _hole_inside(rng: random.Random, outer: Ring) -> Optional[Ring]:
    x0, y0, x1, y1 = outer.bbox
    for _ in range(40):
        hx0 = rng.randint(int(x0) + 1, max(int(x0) + 1, int(x1) - 2))
        hy0 = rng.randint(int(y0) + 1, max(int(y0) + 1, int(y1) - 2))
        hx1 = hx0 + rng.randint(1, 3)
        hy1 = hy0 + rng.randint(1, 3)
        if hx1 >= x1 or hy1 >= y1:
            continue
        corners = [Pt(hx0, hy0), Pt(hx1, hy0), Pt(hx1, hy1), Pt(hx0, hy1)]
        if all(point_in_region(c, Region((outer,))) == INTERIOR
               for c in corners):
            hole = rect(hx0, hy0, hx1, hy1).reversed_()
            probe = Region((outer, hole))
            if region_ok(probe):
                return hole
    return None


def random_pairs(count: int, seed: Optional[int] = None
                 ) -> list[tuple[str, Region, Region]]:
    """Seeded corpus of operand pairs with coordinates inside [0, 64]^2.

    Mixed scales: small pairs dominate so exhaustive oracle checks stay
    cheap, with a tail of larger ones up to the full span.
    """
    rng = random.Random(seed if seed is not None else default_seed())
    out = []
    for i in range(count):
        roll = rng.random()
        if roll < 0.6:
            span = rng.randint(6, 14)
        elif roll < 0.9:
            span = rng.randint(15, 30)
        else:
            span = rng.randint(31, SPAN_LIMIT - 6)
        max_off = max(0, SPAN_LIMIT - span - 2)
        off_a = (rng.randint(0, max_off), rng.randint(0, max_off))
        # keep operands overlapping often: offset B near A
        shift = max(1, span // 3)
        off_b = (min(max_off, max(0, off_a[0] + rng.randint(-shift, shift))),
                 min(max_off, max(0, off_a[1] + rng.randint(-shift, shift))))
        a = random_region(rng, span, off_a)
        b = random_region(rng, span, off_b)
        out.append((f"rand-{i:03d}", a, b))
    return out
