"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))
PRINTS = json.loads(run.FINGERPRINTS.read_text())


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def _ops(program, workload, seed, limit):
    lb, _, fixtures = program
    return workloads.build(workload, seed, lb, fixtures, PRINTS)[:limit]


def _traced_pass(program, runner, ops):
    lb, cli, _ = program
    tracer = tracing.Tracer()
    digests = {}
    with tracer:
        for op in ops:
            tracer.op_id = op.op_id
            out, passed = runner(lb, cli, op)
            assert passed
            digests[op.op_id] = workloads.digest(out)
    return tracer, digests


@pytest.mark.parametrize("workload, limit", [("corpus", 12), ("verify", 3),
                                             ("stars", 3)])
def test_counts_repeat_exactly(program, workload, limit):
    ops = _ops(program, workload, 7, limit)
    runner = workloads.RUNNERS[workload]
    first, _ = _traced_pass(program, runner, ops)
    second, _ = _traced_pass(program, runner, ops)
    assert dict(first.counts) == dict(second.counts)
    calls = {k: v[1] for k, v in first.layer_totals().items()}
    assert calls == {k: v[1] for k, v in second.layer_totals().items()}
    assert set(first.counts) <= set(tracing.COUNT_NAMES)
    assert first.counts["arrangement.exact_vertices"] > 0


def test_fingerprints_unchanged_under_trace(program):
    lb, cli, _ = program
    ops = _ops(program, "corpus", 3, 15)
    committed = PRINTS["corpus"]["digests"]
    plain = {op.op_id: workloads.digest(workloads.sandwich_op(lb, cli, op)[0])
             for op in ops}
    _, traced = _traced_pass(program, workloads.sandwich_op, ops)
    assert plain == traced == {op.op_id: committed[op.op_id] for op in ops}


def test_every_binding_is_wrapped_and_restored(program):
    lb, cli, _ = program
    setops, rounding = lb.setops, lb.rounding
    original = lb.arrangement.exact_intersection
    holders = (lb, lb.arrangement, setops, rounding, cli)
    assert all(m.exact_intersection is original for m in holders)
    with tracing.Tracer():
        wrapped = {id(m.exact_intersection) for m in holders}
        assert len(wrapped) == 1 and original not in (
            m.exact_intersection for m in holders)
    assert all(m.exact_intersection is original for m in holders)


def test_self_time_subtracts_child_coverage():
    tracer = tracing.Tracer()
    tracer.spans[:] = [
        ["setops.sandwich", 0.0, 10.0, -1, "x"],
        ["arrangement.exact_intersection", 1.0, 4.0, 0, "x"],
        ["rounding.outer_round", 5.0, 9.0, 0, "x"],
        ["rounding.inner_round", 6.0, 8.0, 2, "x"],
    ]
    assert tracer.self_times() == [3.0, 3.0, 2.0, 2.0]
    totals = tracer.layer_totals()
    assert totals["rounding.outer_round"] == (2.0, 1)
    assert totals["oracle.check_hausdorff"] == (0.0, 0)


def test_growth_exponent_of_a_power_law():
    sizes = {str(n): n for n in (10, 20, 40, 80)}
    times = {str(n): 3e-6 * n ** 2.5 for n in (10, 20, 40, 80)}
    assert tracing.growth_exponent(sizes, times) == pytest.approx(2.5)


def test_inputs_follow_the_seed(program):
    a = [op.op_id for op in _ops(program, "corpus", 5, None)]
    assert a == [op.op_id for op in _ops(program, "corpus", 5, None)]
    assert a != [op.op_id for op in _ops(program, "corpus", 6, None)]
    assert len(set(a)) == 3 * workloads.SAMPLE["corpus"]
    peaks = PRINTS["verify"]["peak_kb"]
    heavy = sorted(peaks, key=lambda n: (-peaks[n], n))[:workloads.HEAVY]
    for seed in (5, 6):
        names = {op.op_id.split("/")[0]
                 for op in _ops(program, "verify", seed, None)}
        assert set(heavy) <= names
    stars = [op.text_a for op in _ops(program, "stars", 5, None)]
    assert stars == [op.text_a for op in _ops(program, "stars", 5, None)]
    assert stars != [op.text_a for op in _ops(program, "stars", 6, None)]


def test_shift_lpr_equals_writing_the_translated_region(program):
    lb, _, fixtures = program
    _, a, b = fixtures.hand_fixture_pairs()[0]
    exact = lb.sandwich(a, b, "intersection")[1].region
    core = lb.exact_core
    moved = core.Region(tuple(
        core.Ring(tuple(core.pt(p.x + 7, p.y - 300) for p in r.pts))
        for r in exact.rings))
    text = lb.write_region(exact)
    assert "/" in text
    assert workloads.shift_lpr(text, 7, -300) == lb.write_region(moved)
    assert workloads.shift_lpr(workloads.shift_lpr(text, 7, -300),
                               -7, 300) == text


def test_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in run.HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (bench / "fingerprints.json").write_text(run.FINGERPRINTS.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
