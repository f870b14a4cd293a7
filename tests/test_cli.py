import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from latbool import cli, oracle, setops
from latbool.cli import main, run_property_checklist
from latbool.exact_core import (
    InternalInvariantError,
    PreconditionError,
    Pt,
    Region,
    Ring,
)
from latbool.lpr import LprError, parse_region, write_region

from conftest import count_overlays, square

E2_A = "region\npoly 3 0 0 5 0 0 5\nend\n"
E2_B = "region\npoly 3 0 0 5 0 5 5\nend\n"


def _write(tmp_path: Path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_parse_square():
    r = parse_region("region\npoly 4 0 0 4 0 4 4 0 4\nend\n")
    assert r.canonical() == Region((square(0, 0, 4, 4),)).canonical()


def test_parse_square_with_hole():
    r = parse_region(
        "region\npoly 4 0 0 4 0 4 4 0 4\nhole 4 1 1 1 3 3 3 3 1\nend\n")
    assert len(r.rings) == 2
    assert r.parents[1] == 0 or r.parents[0] == 1


def test_parse_missing_vertex_is_error():
    with pytest.raises(LprError) as err:
        parse_region("region\npoly 3 0 0 1 1\nend\n")
    assert "line 2" in str(err.value)


def test_parse_rejects_rational_input():
    with pytest.raises(LprError):
        parse_region("region\npoly 3 0 0 5 0 5/2 5/2\nend\n")


def test_roundtrip_fixtures(hand_pairs):
    for name, a, b in hand_pairs:
        for r in (a, b):
            assert parse_region(write_region(r)) == r.canonical(), name


def test_roundtrip_rational():
    from fractions import Fraction

    from latbool.exact_core import pt

    tri = Region((Ring((Pt(0, 0), Pt(5, 0),
                        pt(Fraction(5, 2), Fraction(5, 2)))),)).canonical()
    text = write_region(tri)
    assert "5/2 5/2" in text
    assert parse_region(text, allow_rational=True) == tri


def test_run_inner_e2(tmp_path):
    a = _write(tmp_path, "A.lpr", E2_A)
    b = _write(tmp_path, "B.lpr", E2_B)
    out = str(tmp_path / "out.lpr")
    result = CliRunner().invoke(main, ["intersect", "--mode", "inner",
                                       a, b, "-o", out])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("n=6 k=1 h=1 ")
    got = parse_region(Path(out).read_text())
    assert got.canonical() == Region(
        (Ring((Pt(0, 0), Pt(5, 0), Pt(2, 2))),)).canonical()


def test_run_exact_writes_rationals(tmp_path):
    a = _write(tmp_path, "A.lpr", E2_A)
    b = _write(tmp_path, "B.lpr", E2_B)
    out = str(tmp_path / "out.lpr")
    result = CliRunner().invoke(main, ["intersect", "--mode", "exact",
                                       a, b, "-o", out])
    assert result.exit_code == 0, result.output
    assert "5/2 5/2" in Path(out).read_text()


def test_run_disjoint_writes_empty(tmp_path):
    a = _write(tmp_path, "A.lpr", "region\npoly 4 0 0 1 0 1 1 0 1\nend\n")
    b = _write(tmp_path, "B.lpr", "region\npoly 4 3 3 4 3 4 4 3 4\nend\n")
    out = str(tmp_path / "out.lpr")
    result = CliRunner().invoke(main, ["intersect", a, b, "-o", out])
    assert result.exit_code == 0
    assert Path(out).read_text() == "region\nend\n"


def test_run_parse_error_exit_1(tmp_path):
    a = _write(tmp_path, "A.lpr", "region\npoly 3 0 0 1 1\nend\n")
    b = _write(tmp_path, "B.lpr", E2_B)
    result = CliRunner().invoke(main, ["intersect", a, b, "-o",
                                       str(tmp_path / "o.lpr")])
    assert result.exit_code == 1


def test_verify_e2_passes(tmp_path):
    a = _write(tmp_path, "A.lpr", E2_A)
    b = _write(tmp_path, "B.lpr", E2_B)
    result = CliRunner().invoke(main, ["verify", a, b, "--op", "intersect"])
    assert result.exit_code == 0, result.output
    assert "FAIL" not in result.output
    assert "PASS inclusion inner<=exact" in result.output


def test_verify_against_corrupted_fails(tmp_path):
    a = _write(tmp_path, "A.lpr", E2_A)
    b = _write(tmp_path, "B.lpr", E2_B)
    # a deliberately wrong "inner" result: sticks out of the exact region
    bad = _write(tmp_path, "bad.lpr", "region\npoly 3 0 0 6 0 0 6\nend\n")
    result = CliRunner().invoke(main, ["verify", a, b, "--op", "intersect",
                                       "--against", bad, "--mode", "inner"])
    assert result.exit_code == 1
    assert "FAIL inclusion inner<=exact" in result.output


def test_verify_against_outer_not_covering_fails(tmp_path):
    a = _write(tmp_path, "A.lpr", E2_A)
    b = _write(tmp_path, "B.lpr", E2_B)
    # a deliberately wrong "outer" result: misses the apex (5/2, 5/2)
    bad = _write(tmp_path, "bad.lpr", "region\npoly 4 0 0 5 0 5 1 0 1\nend\n")
    result = CliRunner().invoke(main, ["verify", a, b, "--op", "intersect",
                                       "--against", bad, "--mode", "outer"])
    assert result.exit_code == 1
    assert "FAIL inclusion exact<=outer" in result.output
    assert "PASS inclusion inner<=exact" in result.output


def test_verify_internal_failure_exit_2(tmp_path, monkeypatch):
    _write(tmp_path, "case1.A.lpr", E2_A)
    _write(tmp_path, "case1.B.lpr", E2_B)
    _write(tmp_path, "case2.A.lpr", E2_A)
    _write(tmp_path, "case2.B.lpr", E2_B)
    calls = []

    def broken(a, b, op, **kwargs):
        calls.append(op)
        if len(calls) == 1:
            raise InternalInvariantError("planted bug")
        return run_property_checklist(a, b, op, **kwargs)

    monkeypatch.setattr(cli, "run_property_checklist", broken)
    result = CliRunner().invoke(main, ["verify", "--batch", str(tmp_path),
                                       "--op", "intersect"])
    assert result.exit_code == 2, result.output
    assert "[case1/intersection] FAIL internal: planted bug" in result.output
    # the other cases still run and report
    assert "[case2/intersection] PASS" in result.output
    assert len(calls) == 2


def test_verify_precondition_failure_continues_exit_1(tmp_path, monkeypatch):
    _write(tmp_path, "case1.A.lpr", E2_A)
    _write(tmp_path, "case1.B.lpr", E2_B)
    _write(tmp_path, "case2.A.lpr", E2_A)
    _write(tmp_path, "case2.B.lpr", E2_B)
    calls = []

    def refused(a, b, op, **kwargs):
        calls.append(op)
        if len(calls) == 1:
            raise PreconditionError("planted refusal")
        return run_property_checklist(a, b, op, **kwargs)

    monkeypatch.setattr(cli, "run_property_checklist", refused)
    result = CliRunner().invoke(main, ["verify", "--batch", str(tmp_path),
                                       "--op", "intersect"])
    assert result.exit_code == 1, result.output
    assert ("[case1/intersection] FAIL precondition: planted refusal"
            in result.output)
    # the other cases still run and report
    assert "[case2/intersection] PASS" in result.output
    assert "[case2/intersection] FAIL" not in result.output
    assert len(calls) == 2


def test_verify_internal_failure_wins_over_precondition_exit_2(
        tmp_path, monkeypatch):
    for case in ("case1", "case2"):
        _write(tmp_path, f"{case}.A.lpr", E2_A)
        _write(tmp_path, f"{case}.B.lpr", E2_B)
    errors = [PreconditionError("planted refusal"),
              InternalInvariantError("planted bug")]

    def failing(a, b, op, **kwargs):
        raise errors.pop(0)

    monkeypatch.setattr(cli, "run_property_checklist", failing)
    result = CliRunner().invoke(main, ["verify", "--batch", str(tmp_path),
                                       "--op", "intersect"])
    assert result.exit_code == 2, result.output
    assert "[case1/intersection] FAIL precondition" in result.output
    assert "[case2/intersection] FAIL internal: planted bug" in result.output


def test_verify_batch(tmp_path):
    _write(tmp_path, "case1.A.lpr", E2_A)
    _write(tmp_path, "case1.B.lpr", E2_B)
    result = CliRunner().invoke(main, ["verify", "--batch", str(tmp_path),
                                       "--op", "intersect"])
    assert result.exit_code == 0, result.output
    assert "[case1/intersection] PASS" in result.output


def test_verify_identical_operands_all_pass(tmp_path):
    a = _write(tmp_path, "A.lpr", "region\npoly 4 1 1 6 1 6 6 1 6\nend\n")
    result = CliRunner().invoke(main, ["verify", a, a, "--op", "intersect"])
    assert result.exit_code == 0, result.output
    assert "FAIL" not in result.output


def test_svg_exact_inner_outer_triple(tmp_path):
    a = _write(tmp_path, "A.lpr", E2_A)
    b = _write(tmp_path, "B.lpr", E2_B)
    runner = CliRunner()
    exact = str(tmp_path / "x.lpr")
    inner = str(tmp_path / "i.lpr")
    outer = str(tmp_path / "o.lpr")
    for mode, out in (("exact", exact), ("inner", inner), ("outer", outer)):
        assert runner.invoke(main, ["intersect", "--mode", mode, a, b,
                                    "-o", out]).exit_code == 0
    fig = str(tmp_path / "fig.svg")
    result = runner.invoke(main, ["svg", exact, inner, outer, "-o", fig])
    assert result.exit_code == 0
    text = Path(fig).read_text()
    assert text.count("<path") == 3
    assert 'class="grid"' in text
    for layer in ("exact", "inner", "outer"):
        assert f'class="{layer}"' in text


def test_svg_single_layer(tmp_path):
    a = _write(tmp_path, "A.lpr", E2_A)
    out = str(tmp_path / "fig.svg")
    result = CliRunner().invoke(main, ["svg", a, "-o", out])
    assert result.exit_code == 0
    assert Path(out).read_text().count("<path") == 1


def test_svg_empty_region(tmp_path):
    e = _write(tmp_path, "E.lpr", "region\nend\n")
    out = str(tmp_path / "fig.svg")
    result = CliRunner().invoke(main, ["svg", e, "-o", out])
    assert result.exit_code == 0
    text = Path(out).read_text()
    assert 'class="grid"' in text


def test_checklist_all_pass_on_e2(e2_pair):
    a, b = e2_pair
    for op in ("intersection", "union", "difference"):
        results = run_property_checklist(a, b, op)
        assert all(r.passed for r in results), [r for r in results
                                                if not r.passed]


def test_checklist_rejects_unknown_against_mode(e2_pair, monkeypatch):
    a, b = e2_pair
    calls = []
    monkeypatch.setattr(cli, "_sandwich",
                        lambda *args: calls.append(args))
    with pytest.raises(PreconditionError, match="inenr"):
        run_property_checklist(a, b, "intersection", against=Region(()),
                               against_mode="inenr")
    assert calls == []


def test_checklist_builds_one_operand_overlay(hand_pairs, monkeypatch):
    overlays = count_overlays(monkeypatch)
    inclusions = []
    real = cli.check_inclusion

    def counted(*args, **kwargs):
        inclusions.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "check_inclusion", counted)
    monkeypatch.setattr(setops, "check_inclusion", counted)
    for name, a, b in hand_pairs[:6]:
        for op in ("intersection", "union", "difference"):
            overlays.clear()
            inclusions.clear()
            run_property_checklist(a, b, op)
            assert overlays.count("latbool.arrangement") == 1, (name, op)
            assert len(overlays) <= 2, (name, op, overlays)
            assert len(inclusions) == 2, (name, op)


def test_checklist_independent_of_point_in_region(hand_pairs, monkeypatch):
    """The checklist classifies its convex-component probes with the
    oracle's IntMembership: with point_in_region raising at the checker's
    bindings, every op gives the same checklist results as before."""
    def render(results) -> list[tuple]:
        return [(r.name, r.passed, r.detail) for r in results]

    ops = ("intersection", "union", "difference")
    expected = {(name, op): render(run_property_checklist(a, b, op))
                for name, a, b in hand_pairs for op in ops}

    def boom(*args, **kwargs):
        raise AssertionError("the checklist called point_in_region")

    probes = []

    class CountedMembership(oracle.IntMembership):
        def classify(self, p):
            probes.append(p)
            return super().classify(p)

    for module in (cli, oracle):
        monkeypatch.setattr(module, "point_in_region", boom, raising=False)
    monkeypatch.setattr(cli, "IntMembership", CountedMembership,
                        raising=False)
    for name, a, b in hand_pairs:
        for op in ops:
            got = render(run_property_checklist(a, b, op))
            assert got == expected[(name, op)], (name, op)
            assert all(passed for _, passed, _ in got), (name, op)
    assert probes


def test_seed_env_var(monkeypatch):
    from latbool.fixtures import default_seed, random_pairs

    monkeypatch.setenv("LATBOOL_SEED", "12345")
    assert default_seed() == 12345
    first = random_pairs(3)
    second = random_pairs(3)
    assert [(a, b) for _, a, b in first] == [(a, b) for _, a, b in second]
    monkeypatch.setenv("LATBOOL_SEED", "54321")
    third = random_pairs(3)
    assert [(a, b) for _, a, b in third] != [(a, b) for _, a, b in first]


def test_runs_without_numpy():
    """numpy is a test and benchmark dependency only: the pipeline and the
    whole checklist run with its import blocked."""
    code = "\n".join((
        "import sys",
        "sys.modules['numpy'] = None",
        "from latbool.cli import run_property_checklist",
        "from latbool.fixtures import hand_fixture_pairs",
        "from latbool.setops import sandwich",
        "pairs = {n: (a, b) for n, a, b in hand_fixture_pairs()}",
        "a, b = pairs['e2-triangles']",
        "inner, exact, outer = sandwich(a, b, 'intersection')",
        "assert not inner.is_empty",
        "results = run_property_checklist(a, b, 'intersection')",
        "assert results and all(r.passed for r in results), results",
        "assert not [m for m, v in sys.modules.items()",
        "            if v is not None and m.split('.')[0] == 'numpy']",
    ))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   timeout=120)
