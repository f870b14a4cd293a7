"""latbool benchmark: end-to-end metrics, or a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

It imports latbool from ./src, builds the workload's inputs from --seed,
times ops for --seconds, checks every op's output against the committed
fingerprints (perfbench/fingerprints.json), prints diagnostics and, as the
last line, one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones of a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
FINGERPRINTS = HERE / "fingerprints.json"
PACKAGE = tracing.PACKAGE

# set-ups per run; setup_s is their median.  The first comes before timing,
# the others are spread over the timed window: a set-up takes a fraction of a
# second, and the machine's speed drifts in phases of seconds to minutes, so
# set-ups made back to back all land in one phase.
SETUPS = 9


def load_program():
    """Import latbool afresh from ./src, dropping any earlier import."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lb = importlib.import_module(PACKAGE)
    if SRC.resolve() not in Path(lb.__file__).resolve().parents:
        raise SystemExit(f"error: {PACKAGE} imported from {lb.__file__}, "
                         f"not from {SRC}")
    cli = importlib.import_module(PACKAGE + ".cli")
    fixtures = importlib.import_module(PACKAGE + ".fixtures")
    return lb, cli, fixtures


def setup(workload: str, seed: int, prints: dict):
    """Import, generate and serialize inputs, warm up: its time and result."""
    runner = workloads.RUNNERS[workload]
    gc.collect()
    t0 = time.perf_counter()
    lb, cli, fixtures = load_program()
    ops = workloads.build(workload, seed, lb, fixtures, prints)
    for op in workloads.warmup_ops(lb, fixtures):
        runner(lb, cli, op)
    return time.perf_counter() - t0, lb, cli, ops


class Setups:
    """The set-ups of one run: the first, then SETUPS - 1 more spread evenly
    over the timed window.  The ops keep using the first set-up's program."""

    def __init__(self, args: tuple, first: float) -> None:
        self.args = args
        self.times = [first]
        self.due: list[float] = []

    def start(self, seconds: float) -> None:
        t0 = time.perf_counter()
        self.due = [t0 + seconds * i / SETUPS for i in range(1, SETUPS)]

    def tick(self, force: bool = False) -> float:
        """Run a set-up if one is due; return the wall time it took."""
        if not self.due or not (force or time.perf_counter() >= self.due[0]):
            return 0.0
        t0 = time.perf_counter()
        del self.due[0]
        self.times.append(setup(*self.args)[0])
        return time.perf_counter() - t0


class Checker:
    """Per-op output check against the committed digests."""

    def __init__(self, expected: dict[str, str]) -> None:
        self.expected = expected
        self.seen: dict[str, str] = {}
        self.errors: list[str] = []

    def check(self, op, out: str, passed: bool) -> bool:
        """Digest of the output moved back by the op's input translation."""
        d = workloads.digest(workloads.shift_lpr(out, -op.shift[0],
                                                 -op.shift[1]))
        self.seen.setdefault(op.op_id, d)
        want = self.expected.get(op.op_id)
        if d != want:
            self.errors.append(f"{op.op_id}: digest {d} != committed {want}")
            return False
        if not passed:
            self.errors.append(f"{op.op_id}: check failed: {out.strip()[:200]}")
            return False
        return True

    def combined(self) -> str:
        text = "".join(f"{k} {v}\n" for k, v in sorted(self.seen.items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class Timer:
    """Runs ops, keeps every successful latency sample per op."""

    def __init__(self, lb, cli, runner, checker: Checker) -> None:
        self.lb, self.cli, self.runner = lb, cli, runner
        self.checker = checker
        self.attempted = 0
        self.failed = 0

    def one(self, op, samples: dict[str, list[float]], tracer=None) -> None:
        """Time one op; keep its latency only if its output checks out."""
        if tracer is not None:
            tracer.op_id = op.op_id
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out, passed = self.runner(self.lb, self.cli, op)
        except Exception as e:  # a raising op is a failed op, not a crash
            self.failed += 1
            self.checker.errors.append(f"{op.op_id}: {type(e).__name__}: {e}")
            return
        dt = time.perf_counter() - t0
        if self.checker.check(op, out, passed):
            samples.setdefault(op.op_id, []).append(dt)
        else:
            self.failed += 1

    def round(self, ops, samples, deadline=None, setups=None) -> float:
        """One pass over ops, with any set-ups that fall due between them;
        stops early at deadline.  Returns its time without the set-ups."""
        t0 = time.perf_counter()
        paused = 0.0
        for op in ops:
            if deadline is not None and time.perf_counter() >= deadline:
                return -1.0
            if setups is not None:
                paused += setups.tick()
            self.one(op, samples)
        return time.perf_counter() - t0 - paused


def per_op_mean(samples: dict[str, list[float]]) -> dict[str, float]:
    return {k: statistics.fmean(v) for k, v in samples.items() if v}


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop: a read-only gauge of how fast
    the machine runs Python right now, printed so a noisy run can be told
    apart from a slow program.  Not a metric."""
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - t0


def read_steal() -> tuple[int, int]:
    """(steal ticks, total ticks) of the whole machine from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return (max(values) - min(values)) / statistics.median(values)


def measure(timer: Timer, ops, seconds: float,
            setups: Setups) -> tuple[dict, list[float]]:
    """Rounds until the deadline; the first round always completes.  Set-ups
    still due at the end, after a long op, run then."""
    samples: dict[str, list[float]] = {}
    deadline = time.perf_counter() + seconds
    setups.start(seconds)
    rounds = [timer.round(ops, samples, setups=setups)]
    while time.perf_counter() < deadline:
        rounds.append(timer.round(ops, samples, deadline, setups))
    while setups.tick(force=True):
        pass
    return samples, [r for r in rounds if r >= 0]


def end_to_end(timer: Timer, ops, seconds: float, setups: Setups):
    samples, rounds = measure(timer, ops, seconds, setups)
    lat = sorted(per_op_mean(samples).values())
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "setup_s": (statistics.median(setups.times), "s"),
    }
    print(f"latency: {len(lat)} ops, {sum(map(len, samples.values()))} "
          f"samples, mean of each op's samples")
    if len(lat) >= 100:
        p90 = statistics.quantiles(lat, n=10)[8]
        beyond = sum(1 for x in lat if x > p90)
        print(f"op_p90_ms={1000 * p90:.4f} ms ({len(lat)} ops, "
              f"{beyond} beyond p90)")
    else:
        print(f"op_p90_ms not reported: {len(lat)} ops, fewer than 10 "
              f"beyond p90")
    return metrics, rounds


def traced(timer: Timer, ops, seconds: float):
    """Passes that time each op untraced and traced, back to back.

    Pairing each op's two runs, in alternating order, keeps machine drift
    out of trace.overhead_frac.
    """
    plain: dict[str, list[float]] = {}
    with_trace: dict[str, list[float]] = {}
    tracers = []
    t_end = time.perf_counter() + seconds
    rounds = []
    while not tracers or time.perf_counter() + rounds[-1] < t_end:
        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            for traced_run in ((False, True) if i % 2 else (True, False)):
                if traced_run:
                    with tracer:
                        timer.one(op, with_trace, tracer)
                else:
                    timer.one(op, plain)
        rounds.append(time.perf_counter() - t0)
        tracers.append(tracer)
    n = len(ops)
    first = tracers[0]
    totals = [t.layer_totals() for t in tracers]
    metrics = {}
    for layer, (_, calls) in totals[0].items():
        self_s = statistics.median(t[layer][0] for t in totals)
        metrics[f"{layer}.self_ms"] = (1000 * self_s / n, "ms/op")
        metrics[f"{layer}.calls_per_op"] = (calls / n, "calls/op")
    for name in tracing.COUNT_NAMES:
        metrics[name] = (first.counts.get(name, 0) / n, "count/op")
    sizes = {op.op_id: op.edges for op in ops}
    for layer in tracing.GROWTH_LAYERS:
        exp = tracing.growth_exponent(sizes, first.self_by_op(layer))
        metrics[f"{layer}.growth_exponent"] = (exp, "1")
    p, t = per_op_mean(plain), per_op_mean(with_trace)
    both = [k for k in p if k in t]
    overhead = (sum(t[k] for k in both) / sum(p[k] for k in both) - 1
                if both else 0.0)
    metrics["trace.overhead_frac"] = (overhead, "1")
    # counts are exact: every traced pass must read the same
    unstable = sorted(k for tr in tracers[1:] for k in tracing.COUNT_NAMES
                      if tr.counts.get(k, 0) != first.counts.get(k, 0))
    unstable += sorted(layer for tot in totals[1:] for layer in tot
                       if tot[layer][1] != totals[0][layer][1])
    print(f"trace: {len(tracers)} traced passes of {n} ops, "
          f"{len(first.spans)} spans in the first")
    return metrics, sorted(set(unstable)), rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from the repository "
              f"root", file=sys.stderr)
        return 2
    if not FINGERPRINTS.is_file():
        print(f"error: {FINGERPRINTS} not found", file=sys.stderr)
        return 2
    prints = json.loads(FINGERPRINTS.read_text())
    sys.path.insert(0, str(SRC))
    # third-party modules once, so that every set-up below is alike
    import click  # noqa: F401
    import numpy  # noqa: F401

    first, lb, cli, ops = setup(args.workload, args.seed, prints)
    setups = Setups((args.workload, args.seed, prints), first)
    checker = Checker(prints[args.workload]["digests"])
    timer = Timer(lb, cli, workloads.RUNNERS[args.workload], checker)

    probe0 = speed_probe()
    steal0, total0 = read_steal()
    unstable: list[str] = []
    if args.trace:
        metrics, unstable, rounds = traced(timer, ops, args.seconds)
    else:
        metrics, rounds = end_to_end(timer, ops, args.seconds, setups)
    steal1, total1 = read_steal()
    probe1 = speed_probe()

    fail_frac = timer.failed / max(1, timer.attempted)
    print(f"workload={args.workload} seed={args.seed} ops={len(ops)} "
          f"attempted={timer.attempted} failed={timer.failed} "
          f"fail_frac={fail_frac:.4f}")
    print(f"fingerprints: every op checked against its committed digest; "
          f"combined digest {checker.combined()}")
    print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setups.times))
    steal = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    print(f"noise: steal={100 * steal:.2f}% "
          f"affinity={sorted(os.sched_getaffinity(0))} "
          f"rounds={len(rounds)} round_spread={100 * spread(rounds):.1f}% "
          f"round_s=[{' '.join(f'{r:.3f}' for r in rounds)}] "
          f"speed_probe_ms={1000 * probe0:.1f}/{1000 * probe1:.1f}")
    for err in checker.errors[:20]:
        print(f"FAILED {err}")
    for name in unstable:
        print(f"UNSTABLE count {name}: differs between traced passes")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": timer.failed == 0 and not unstable,
        "attempted": timer.attempted,
        "failed": timer.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
