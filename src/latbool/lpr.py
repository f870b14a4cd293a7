"""The `.lpr` region file format.

Line oriented, whitespace separated, `#` comments::

    region
    poly 4 0 0 4 0 4 4 0 4
    hole 4 1 1 1 3 3 3 3 1
    end

`poly` rings bound filled area (written CCW), `hole` rings holes (written
CW); nesting is computed from geometry, never declared.  Coordinates are
ASCII decimal integers (`[+-]?[0-9]+`); `a/b` rationals of two such
integers are legal only in exact-mode output files.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .exact_core import (
    Region,
    Ring,
    Scalar,
    pt,
    validate_region,
)


class LprError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", field {column}" if column else "") + ")"
        super().__init__(message + loc)


# ASCII digits only: `int` alone also reads `1_0` and non-ASCII digits
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_int(tok: str) -> int:
    if not _INTEGER.fullmatch(tok):
        raise ValueError(tok)
    return int(tok)


def _parse_scalar(tok: str, line: int, col: int,
                  allow_rational: bool) -> Scalar:
    if "/" in tok:
        if not allow_rational:
            raise LprError(f"rational coordinate {tok!r} not allowed here",
                           line, col)
        num, _, den = tok.partition("/")
        try:
            return Fraction(_parse_int(num), _parse_int(den))
        except (ValueError, ZeroDivisionError):
            raise LprError(f"bad rational {tok!r}", line, col) from None
    try:
        return _parse_int(tok)
    except ValueError:
        raise LprError(f"bad integer {tok!r}", line, col) from None


def parse_region(text: str, allow_rational: bool = False) -> Region:
    """Parse and validate one region document.  The canonical region
    returned keeps its validity (`Region.is_valid`), so no operation
    validates it again."""
    rings: list[Ring] = []
    in_region = False
    closed = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        if head == "region":
            if in_region or closed:
                raise LprError("unexpected second 'region'", ln)
            in_region = True
        elif head == "end":
            if not in_region:
                raise LprError("'end' without 'region'", ln)
            in_region = False
            closed = True
        elif head in ("poly", "hole"):
            if not in_region:
                raise LprError(f"{head!r} outside region block", ln)
            if len(toks) < 2:
                raise LprError(f"{head} needs a vertex count", ln)
            try:
                n = _parse_int(toks[1])
            except ValueError:
                raise LprError(f"bad vertex count {toks[1]!r}", ln) from None
            if n < 2:
                raise LprError("a ring needs at least 2 vertices", ln)
            coords = toks[2:]
            if len(coords) != 2 * n:
                raise LprError(
                    f"{head} {n} expects {2 * n} coordinates, got {len(coords)}",
                    ln, len(toks))
            vals = [_parse_scalar(c, ln, i + 3, allow_rational)
                    for i, c in enumerate(coords)]
            pts = tuple(pt(vals[2 * i], vals[2 * i + 1]) for i in range(n))
            ring = Ring(pts).canonical()
            if len(ring.pts) < 2:
                raise LprError("ring collapses to nothing", ln)
            if not ring.is_degenerate:
                want_ccw = head == "poly"
                if ring.is_ccw != want_ccw:
                    ring = ring.reversed_().canonical()
            rings.append(ring)
        else:
            raise LprError(f"unknown directive {head!r}", ln)
    if in_region:
        raise LprError("missing 'end'", None)
    if not closed:
        raise LprError("no 'region' block found", None)
    region = Region(tuple(rings)).canonical()
    if not region.is_valid:
        raise LprError("invalid region: " + "; ".join(
            f"{v.kind}: {v.detail}" for v in validate_region(region)
            if v.severity == "error"))
    return region


def _fmt(v: Scalar) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def write_region(region: Region) -> str:
    """Serialize canonically: rings sorted by their smallest vertex."""
    region = region.canonical()
    lines = ["region"]
    for ring in region.rings:
        if ring.is_degenerate:
            head = "poly"
        else:
            head = "poly" if ring.is_ccw else "hole"
        coords = " ".join(f"{_fmt(p.x)} {_fmt(p.y)}" for p in ring.pts)
        lines.append(f"{head} {len(ring.pts)} {coords}")
    lines.append("end")
    return "\n".join(lines) + "\n"
