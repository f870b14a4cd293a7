"""Public surface: the six rounded operations and their exact counterparts.

Every operation builds one exact overlay, `arrangement.exact_overlay`, which
holds the De Morgan reduction inside an automatically derived universe box:

    intersection: A * B      difference: A * Bc      union: Ac * Bc

where `*` is exact intersection and `c` complement in the universe.  All
three modes are derived from that one overlay:

    exact: the overlay itself; for union its complement
    inner / outer intersection and difference: inner-/outer-round it
    outer union: (inner-round(Ac * Bc))^c
    inner union: (outer-round(Ac * Bc))^c

The rounded-union reductions cannot be replaced by rounding the union itself:
a union's non-representable vertices are reflex, and only the complement
side presents them as convex crossings to the rounding pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .arrangement import (
    OPS,
    ExactRegion,
    exact_from_overlay,
    exact_intersection,  # noqa: F401  perfbench's tracer test reads it here
    exact_overlay,
)
from .exact_core import (
    InternalInvariantError,
    PreconditionError,
    Region,
    UniverseBox,
    complement_in_universe,
    universe_for,
)
from .oracle import check_inclusion
from .rounding import inner_round, outer_round

MODES = ("exact", "inner", "outer")


@dataclass(frozen=True)
class OpRequest:
    op: str
    mode: str
    a: Region
    b: Region

    def __post_init__(self):
        if self.op not in OPS:
            raise PreconditionError(f"op must be one of {OPS}")
        if self.mode not in MODES:
            raise PreconditionError(f"mode must be one of {MODES}")


def apply(req: OpRequest) -> Union[Region, ExactRegion]:
    """Run one operation in one mode; rounded modes return lattice regions."""
    overlay, box = _operand_overlay(req.a, req.b, req.op)
    if req.mode == "exact":
        return exact_from_overlay(overlay, req.op, box)
    return _round_in_box(req.op, req.mode, overlay, box)


def _operand_overlay(a: Region, b: Region, op: str
                     ) -> tuple[ExactRegion, UniverseBox]:
    """Operands -> (the exact overlay of `op`, its universe)."""
    box = universe_for([a, b])
    return exact_overlay(a, b, op, box), box


def _round_in_box(op: str, mode: str, overlay: ExactRegion,
                  box: UniverseBox) -> Region:
    """The "inner" or "outer" rounding of `op`, derived from its overlay."""
    if op == "union":
        # the overlay is the complement side: its rounding modes swap
        if mode == "outer":
            rounded = inner_round(overlay)
        else:
            rounded = outer_round(overlay, box)
        return complement_in_universe(rounded, box, margin=0)
    if mode == "inner":
        return inner_round(overlay)
    return outer_round(overlay, box)


def sandwich(a: Region, b: Region, op: str
             ) -> tuple[Region, ExactRegion, Region]:
    """(inner, exact, outer) with the inclusion chain verified before return."""
    return _sandwich(a, b, op)[:3]


def _sandwich(a: Region, b: Region, op: str
              ) -> tuple[Region, ExactRegion, Region, ExactRegion]:
    """`sandwich` plus the overlay all three results were derived from."""
    overlay, box = _operand_overlay(a, b, op)
    exact = exact_from_overlay(overlay, op, box)
    inner = _round_in_box(op, "inner", overlay, box)
    outer = _round_in_box(op, "outer", overlay, box)
    w = check_inclusion(inner, exact.region)
    if w is not None:
        raise InternalInvariantError(f"inner not included in exact: {w}")
    w = check_inclusion(exact.region, outer)
    if w is not None:
        raise InternalInvariantError(f"exact not included in outer: {w}")
    return inner, exact, outer, overlay
