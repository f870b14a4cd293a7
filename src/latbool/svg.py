"""Figure export: layered SVG with the lattice grid.

Rendering quantizes exact coordinates to decimals; this is presentation
only, no geometric decision depends on it.
"""

from __future__ import annotations

import math
from typing import Sequence

from .exact_core import Region

SCALE = 24  # pixels per lattice unit of the figure's width and height

LAYER_STYLES = (
    {"fill": "#4477aa", "fill_opacity": "0.25", "stroke": "#4477aa",
     "stroke_width": "0.06", "dash": None},                      # exact
    {"fill": "#228833", "fill_opacity": "0.30", "stroke": "#228833",
     "stroke_width": "0.05", "dash": None},                      # inner
    {"fill": "none", "fill_opacity": "1", "stroke": "#ee6677",
     "stroke_width": "0.05", "dash": "0.15,0.1"},                # outer
    {"fill": "#ccbb44", "fill_opacity": "0.25", "stroke": "#ccbb44",
     "stroke_width": "0.05", "dash": None},
)


def _coord(v) -> str:
    f = float(v)
    return f"{f:.6g}"


def _region_path(region: Region) -> str:
    parts = []
    for ring in region.rings:
        if not ring.pts:
            continue
        first = ring.pts[0]
        parts.append(f"M {_coord(first.x)} {_coord(first.y)}")
        for p in ring.pts[1:]:
            parts.append(f"L {_coord(p.x)} {_coord(p.y)}")
        parts.append("Z")
    return " ".join(parts)


def render_svg(layers: Sequence[tuple[str, Region]]) -> str:
    """One <path> per region, even-odd fill, on top of a unit grid."""
    boxes = [r.bbox for _, r in layers if r.bbox is not None]
    if boxes:
        x0 = math.floor(min(b[0] for b in boxes)) - 1
        y0 = math.floor(min(b[1] for b in boxes)) - 1
        x1 = math.ceil(max(b[2] for b in boxes)) + 1
        y1 = math.ceil(max(b[3] for b in boxes)) + 1
    else:
        x0, y0, x1, y1 = -1, -1, 1, 1
    width = (x1 - x0) * SCALE
    height = (y1 - y0) * SCALE
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="{x0} {y0} {x1 - x0} {y1 - y0}">',
        # flip to y-up for geometric reading
        f'<g transform="translate(0 {y0 + y1}) scale(1 -1)">',
        '<g class="grid" stroke="#cccccc" stroke-width="0.02">',
    ]
    for gx in range(x0, x1 + 1):
        out.append(f'<line x1="{gx}" y1="{y0}" x2="{gx}" y2="{y1}"/>')
    for gy in range(y0, y1 + 1):
        out.append(f'<line x1="{x0}" y1="{gy}" x2="{x1}" y2="{gy}"/>')
    out.append("</g>")
    for i, (name, region) in enumerate(layers):
        style = LAYER_STYLES[i % len(LAYER_STYLES)]
        d = _region_path(region)
        dash = f' stroke-dasharray="{style["dash"]}"' if style["dash"] else ""
        out.append(
            f'<path class="{name}" d="{d}" fill-rule="evenodd" '
            f'fill="{style["fill"]}" fill-opacity="{style["fill_opacity"]}" '
            f'stroke="{style["stroke"]}" stroke-width="{style["stroke_width"]}"'
            f'{dash}/>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
