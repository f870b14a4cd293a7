"""Public surface: the six rounded operations and their exact counterparts.

De Morgan reductions (all inside an automatically derived universe box):

    exact:  A*B direct, A+B = (Ac * Bc)^c, A-B = A * Bc
    inner intersection / difference: inner-round the exact result
    outer intersection / difference: outer-round the exact result
    outer union: (inner-round(Ac * Bc))^c
    inner union: (outer-round(Ac * Bc))^c

where `*` is exact intersection and `c` complement in the universe.  The
rounded-union reductions cannot be replaced by rounding the union itself:
a union's non-representable vertices are reflex, and only the complement
side presents them as convex crossings to the rounding pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .arrangement import (
    ExactRegion,
    exact_boolean,
    exact_intersection,
)
from .exact_core import (
    InternalInvariantError,
    PreconditionError,
    Region,
    UniverseBox,
    complement_in_universe,
    region_ok,
    universe_for,
    validate_region,
)
from .oracle import check_inclusion
from .rounding import RoundingReport, inner_round, outer_round

MODES = ("exact", "inner", "outer")
OPS = ("intersection", "union", "difference")


@dataclass(frozen=True)
class OpRequest:
    op: str
    mode: str
    a: Region
    b: Region

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError(f"op must be one of {OPS}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


def apply(req: OpRequest,
          report: Optional[RoundingReport] = None
          ) -> Union[Region, ExactRegion]:
    """Run one operation in one mode; rounded modes return lattice regions."""
    for name, r in (("A", req.a), ("B", req.b)):
        if not region_ok(r):
            raise PreconditionError(
                f"operand {name} invalid: {validate_region(r)}")
    box = universe_for([req.a, req.b])
    return _apply_in_box(req.op, req.mode, req.a, req.b, box, report)


def _apply_in_box(op: str, mode: str, a: Region, b: Region,
                  box: UniverseBox,
                  report: Optional[RoundingReport] = None
                  ) -> Union[Region, ExactRegion]:
    if mode == "exact":
        return exact_boolean(a, b, op, box)
    if op == "union":
        ac = complement_in_universe(a, box)
        bc = complement_in_universe(b, box)
        inter = exact_intersection(ac, bc)
        if mode == "outer":
            rounded = inner_round(inter, report)
        else:
            rounded = outer_round(inter, box, report)
        return complement_in_universe(rounded, box, margin=0)
    if op == "difference":
        exact = exact_intersection(a, complement_in_universe(b, box))
    else:
        exact = exact_intersection(a, b)
    if mode == "inner":
        return inner_round(exact, report)
    return outer_round(exact, box, report)


def sandwich(a: Region, b: Region, op: str
             ) -> tuple[Region, ExactRegion, Region]:
    """(inner, exact, outer) with the inclusion chain verified before return."""
    for name, r in (("A", a), ("B", b)):
        if not region_ok(r):
            raise PreconditionError(
                f"operand {name} invalid: {validate_region(r)}")
    box = universe_for([a, b])
    exact = _apply_in_box(op, "exact", a, b, box)
    inner = _apply_in_box(op, "inner", a, b, box)
    outer = _apply_in_box(op, "outer", a, b, box)
    if not (isinstance(exact, ExactRegion) and isinstance(inner, Region)
            and isinstance(outer, Region)):
        raise InternalInvariantError("sandwich modes returned wrong types")
    w = check_inclusion(inner, exact.region)
    if w is not None:
        raise InternalInvariantError(f"inner not included in exact: {w}")
    w = check_inclusion(exact.region, outer)
    if w is not None:
        raise InternalInvariantError(f"exact not included in outer: {w}")
    return inner, exact, outer
