"""Batch front-end: run operations, verify guarantees, export figures.

Exit codes: 0 success, 1 parse/validation problem, 2 internal invariant
failure (a bug, never a data condition).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

import click

from .arrangement import (
    CONVEX,
    REFLEX,
    ExactRegion,
    exact_from_overlay,
    _tag_rings,
    exact_intersection,  # noqa: F401  perfbench's tracer test reads it here
)
from .exact_core import (
    INTERIOR,
    PreconditionError,
    Region,
    region_ok,
)
from .lpr import LprError, parse_region, write_region
from .oracle import (
    IntMembership,
    Witness,
    check_hausdorff,
    check_inclusion,
    intersecting_pairs,
    region_interior_sample,
)
from .rounding import pixel_set
from .setops import (
    InternalInvariantError,
    _operand_overlay,
    _round_in_box,
    _sandwich,
)
from .svg import render_svg

OP_ALIASES = {"intersect": "intersection", "union": "union",
              "diff": "difference"}


class PropertyResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def run_property_checklist(a: Region, b: Region, op: str,
                           against: Optional[Region] = None,
                           against_mode: str = "inner"
                           ) -> list[PropertyResult]:
    """Every published guarantee for one operand pair and operation.

    With `against`, the provided region replaces the pipeline's rounded
    result for the given mode before checking (negative testing support).
    """
    if against_mode not in ("inner", "outer"):
        raise PreconditionError(f"against_mode must be 'inner' or 'outer', "
                                f"not {against_mode!r}")
    results: list[PropertyResult] = []
    # _sandwich raises unless inner <= exact <= outer, so only a side that
    # `against` replaces needs its inclusion checked again
    inner, exact, outer, overlay = _sandwich(a, b, op)
    exact_r = exact.region
    w_inner = w_outer = None
    if against is not None:
        if against_mode == "inner":
            inner = against
            w_inner = check_inclusion(inner, exact_r)
        else:
            outer = against
            w_outer = check_inclusion(exact_r, outer)

    def add(name: str, passed: bool, detail: str = "") -> None:
        results.append(PropertyResult(name, passed, detail))

    add("inclusion inner<=exact", w_inner is None, _wtxt(w_inner))
    add("inclusion exact<=outer", w_outer is None, _wtxt(w_outer))

    # the spacing and the modes are valid, so neither call raises
    w = check_hausdorff(inner, exact_r, Fraction(1, 8), mode="inner")
    add("hausdorff inner sqrt2", w is None, _wtxt(w))
    w = check_hausdorff(exact_r, outer, Fraction(1, 8), mode="outer")
    add("hausdorff outer sqrt2", w is None, _wtxt(w))

    for name, rounded in (("inner", inner), ("outer", outer)):
        lattice = all(p.is_lattice for ring in rounded.rings
                      for p in ring.pts)
        add(f"lattice vertices {name}", lattice)
        add(f"validate_region {name}", region_ok(rounded))

    _vertex_bound_checks(add, op, overlay, exact, inner, outer)
    _convexity_checks(add, op, exact, inner, outer)
    return results


def _wtxt(w: Optional[Witness]) -> str:
    return "" if w is None else f"{w.kind} at {w.point}: {w.context}"


def _vertex_bound_checks(add, op: str, overlay: ExactRegion,
                         exact: ExactRegion, inner: Region,
                         outer: Region) -> None:
    # k and h are counted on the rounded overlay: the exact result itself,
    # or for union the complement-side intersection the bounds transfer
    # through
    n_exact = exact.region.vertex_count()
    k = len(overlay.non_lattice_positions())
    pix = pixel_set(overlay)
    h = intersecting_pairs(overlay.region.edge_list(), pix.edge_list())
    if op == "union":
        add("union outer size |U~| <= |U|",
            outer.vertex_count() <= n_exact,
            f"{outer.vertex_count()} vs {n_exact}")
        add("union inner size |U_| <= |U|+k+h",
            inner.vertex_count() <= n_exact + k + h,
            f"{inner.vertex_count()} vs {n_exact}+{k}+{h}")
        return
    add("inner size |P_| <= |P|", inner.vertex_count() <= n_exact,
        f"{inner.vertex_count()} vs {n_exact}")
    if k == 0:
        # identity pipeline: the strict paper bound degenerates
        ok = outer.vertex_count() <= n_exact
        add("outer size |P~| <= |P| (k=0)", ok,
            f"{outer.vertex_count()} vs {n_exact}")
    else:
        ok = outer.vertex_count() < n_exact + 3 * k + h
        add("outer size |P~| < |P|+3k+h", ok,
            f"{outer.vertex_count()} vs {n_exact}+3*{k}+{h}")
    add("outer size |P~| <= 2n+3k", outer.vertex_count() <= 2 * n_exact + 3 * k,
        f"{outer.vertex_count()} vs 2*{n_exact}+3*{k}")


def _convexity_checks(add, op: str, exact: ExactRegion, inner: Region,
                      outer: Region) -> None:
    if op == "union":
        # a convex vertex of the outer union corresponds to one of the union
        exact_convex = {v.pos for ring in exact.rings for v in ring
                        if v.convexity == CONVEX}
        bad = [v.pos for ring in _tag_rings(outer.rings) for v in ring
               if v.convexity == CONVEX and v.pos not in exact_convex]
        add("union convex-vertex correspondence", not bad,
            f"extraneous convex vertex {bad[-1]}" if bad else "")
        return
    reflex_lattice = {v.pos for ring in exact.rings for v in ring
                      if v.convexity == REFLEX and v.pos.is_lattice}
    tagged = _tag_rings(inner.rings)
    bad = [v.pos for ring in tagged for v in ring
           if v.convexity == REFLEX and v.pos not in reflex_lattice]
    add("inner concavity preservation", not bad,
        f"extraneous reflex vertex {bad[-1]}" if bad else "")
    _convex_component_check(add, exact, inner, tagged)


def _convex_component_check(add, exact: ExactRegion, inner: Region,
                            tagged) -> None:
    """A convex component with a nonempty inner image stays convex.

    `tagged` holds the turn classes of `inner`'s rings (`_tag_rings`)."""
    convex_components = []
    for ri, ring in enumerate(exact.rings):
        if any(v.convexity == REFLEX for v in ring):
            continue
        if not exact.region.rings[ri].is_ccw:
            continue
        if any(exact.region.parents[rj] == ri
               for rj in range(len(exact.rings)) if rj != ri):
            continue
        convex_components.append(
            IntMembership(Region((exact.region.rings[ri],))))
    bad = []
    scan = IntMembership(inner)
    for ii, iring in enumerate(inner.rings):
        if not iring.is_ccw or iring.is_degenerate:
            continue
        probe = region_interior_sample(iring, scan)
        if probe is None:
            continue
        for host in convex_components:
            if host.classify(probe) == INTERIOR:
                bad += [v.pos for v in tagged[ii] if v.convexity == REFLEX]
    add("convex component preservation", not bad,
        f"image of convex component has reflex {bad[-1]}" if bad else "")


# ---------------------------------------------------------------------------
# commands


@click.group()
def main() -> None:
    """Exact Boolean operations on lattice regions with certified rounding."""


def _load(path: str, allow_rational: bool = False) -> Region:
    try:
        return parse_region(Path(path).read_text(encoding="utf-8"),
                            allow_rational=allow_rational)
    except (LprError, UnicodeDecodeError) as e:
        click.echo(f"error: {path}: {e}", err=True)
        sys.exit(1)
    except OSError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)


def _run_op(op: str, mode: str, file_a: str, file_b: str, out: str) -> None:
    a = _load(file_a)
    b = _load(file_b)
    try:
        overlay, box = _operand_overlay(a, b, op)
        exact = exact_from_overlay(overlay, op, box)
        result_region = (exact.region if mode == "exact"
                         else _round_in_box(op, mode, overlay, box))
    except (PreconditionError, LprError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    except (InternalInvariantError, AssertionError) as e:
        click.echo(f"internal invariant failure: {e}", err=True)
        sys.exit(2)
    Path(out).write_text(write_region(result_region), encoding="utf-8")
    s = exact.stats
    click.echo(f"n={s.n} k={s.k} h={s.h} "
               f"|P|={exact.region.vertex_count()} "
               f"|out|={result_region.vertex_count()}")


def _op_command(name: str):
    @main.command(name=name, help=f"{OP_ALIASES[name].capitalize()} of two "
                  "regions in the chosen rounding mode.")
    @click.option("--mode", type=click.Choice(["exact", "inner", "outer"]),
                  default="exact", show_default=True)
    @click.argument("file_a", type=click.Path(exists=True, dir_okay=False))
    @click.argument("file_b", type=click.Path(exists=True, dir_okay=False))
    @click.option("-o", "--output", "out", required=True,
                  type=click.Path(dir_okay=False))
    def cmd(mode: str, file_a: str, file_b: str, out: str) -> None:
        _run_op(OP_ALIASES[name], mode, file_a, file_b, out)

    return cmd


intersect = _op_command("intersect")
union = _op_command("union")
diff = _op_command("diff")


@main.command()
@click.argument("files", nargs=-1, type=click.Path(exists=True, dir_okay=False))
@click.option("--op", "op_name",
              type=click.Choice(sorted(OP_ALIASES)), default=None,
              help="Check a single operation (default: all three).")
@click.option("--against", "against_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Check this result file instead of the computed rounding.")
@click.option("--mode", "against_mode",
              type=click.Choice(["inner", "outer"]), default="inner",
              show_default=True, help="Which mode --against replaces.")
@click.option("--batch", "batch_dir", default=None,
              type=click.Path(exists=True, file_okay=False),
              help="Verify every <case>.A.lpr / <case>.B.lpr pair in DIR.")
def verify(files: tuple[str, ...], op_name: Optional[str],
           against_path: Optional[str], against_mode: str,
           batch_dir: Optional[str]) -> None:
    """Run the full guarantee checklist and print one line per property.

    A case whose operation fails (a precondition or an internal invariant)
    prints one FAIL line, and the remaining cases still run."""
    cases: list[tuple[str, Region, Region]] = []
    if batch_dir is not None:
        root = Path(batch_dir)
        for a_path in sorted(root.glob("*.A.lpr")):
            b_path = a_path.with_name(a_path.name[:-6] + ".B.lpr")
            if b_path.exists():
                cases.append((a_path.name[:-6], _load(str(a_path)),
                              _load(str(b_path))))
        if not cases:
            click.echo("error: no <case>.A.lpr/<case>.B.lpr pairs found",
                       err=True)
            sys.exit(1)
    else:
        if len(files) != 2:
            click.echo("error: verify needs FILE_A FILE_B (or --batch DIR)",
                       err=True)
            sys.exit(1)
        cases.append(("pair", _load(files[0]), _load(files[1])))
    against = _load(against_path) if against_path else None
    ops = [OP_ALIASES[op_name]] if op_name else list(OP_ALIASES.values())
    failures = 0
    internal = 0
    for case_name, a, b in cases:
        for op in ops:
            try:
                results = run_property_checklist(
                    a, b, op, against=against, against_mode=against_mode)
            except (InternalInvariantError, AssertionError) as e:
                click.echo(f"[{case_name}/{op}] FAIL internal: {e}")
                internal += 1
                continue
            except PreconditionError as e:
                click.echo(f"[{case_name}/{op}] FAIL precondition: {e}")
                failures += 1
                continue
            for r in results:
                mark = "PASS" if r.passed else "FAIL"
                suffix = f"  [{r.detail}]" if (r.detail and not r.passed) else ""
                click.echo(f"[{case_name}/{op}] {mark} {r.name}{suffix}")
                if not r.passed:
                    failures += 1
    if internal:
        sys.exit(2)
    sys.exit(0 if failures == 0 else 1)


@main.command()
@click.argument("files", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", "out", required=True,
              type=click.Path(dir_okay=False))
def svg(files: tuple[str, ...], out: str) -> None:
    """Render region files as one layered SVG figure with a lattice grid."""
    layers = []
    names = ("exact", "inner", "outer")
    for i, f in enumerate(files):
        name = names[i] if i < len(names) else f"layer{i}"
        layers.append((name, _load(f, allow_rational=True)))
    Path(out).write_text(render_svg(layers), encoding="utf-8")
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
