"""Regenerate fingerprints.json: per-op output digests, pair costs and peaks.

    python3 perfbench/record.py [workload ...]

Digests are taken at the commit whose outputs define "correct"; rerun only
when a change is meant to alter outputs, and say so in that change.  The
per-pair costs only order the corpus into strata for sampling; each is the
fastest of two passes, since contention on a shared machine only adds time.
The per-pair allocation peaks (tracemalloc, numpy included) pick the pairs
that every sample of corpus and verify holds, so that peak_rss_mb is set by
the same ops for every seed.
"""

from __future__ import annotations

import json
import math
import sys
import time
import tracemalloc

import run
import workloads


def record(lb, cli, runner, pairs, passes: int = 2) -> tuple[dict, dict]:
    """Per-pair cost (fastest of `passes`, ms) and per-op output digests."""
    costs: dict[str, float] = {}
    digests: dict[str, str] = {}
    for _ in range(passes):
        for name, a, b in pairs:
            total = 0.0
            for op in workloads.pair_ops(lb, name, a, b):
                t0 = time.perf_counter()
                out, passed = runner(lb, cli, op)
                total += time.perf_counter() - t0
                if not passed:
                    raise SystemExit(f"{op.op_id}: output check failed")
                d = workloads.digest(out)
                if digests.setdefault(op.op_id, d) != d:
                    raise SystemExit(f"{op.op_id}: output differs between "
                                     f"passes")
            costs[name] = min(costs.get(name, math.inf),
                              round(total * 1000, 1))
    return costs, digests


def peaks(lb, cli, runner, pairs) -> dict[str, int]:
    """Per-pair allocation peak above the live heap (KiB), over its ops."""
    out: dict[str, int] = {}
    tracemalloc.start()
    try:
        for name, a, b in pairs:
            peak = 0
            for op in workloads.pair_ops(lb, name, a, b):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                runner(lb, cli, op)
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            out[name] = peak // 1024
    finally:
        tracemalloc.stop()
    return out


def main(names: list[str]) -> None:
    """Record the named workloads (default: all), keeping the others."""
    sys.path.insert(0, str(run.SRC))
    lb, cli, fixtures = run.load_program()
    out = (json.loads(run.FINGERPRINTS.read_text())
           if run.FINGERPRINTS.is_file() else {})
    for workload in names or sorted(workloads.RUNNERS):
        runner = workloads.RUNNERS[workload]
        pairs = workloads.pool(workload, lb, fixtures)
        costs, digests = record(lb, cli, runner, pairs)
        out[workload] = {"cost_ms": costs, "digests": digests}
        if workload in workloads.SAMPLE:
            out[workload]["peak_kb"] = peaks(lb, cli, runner, pairs)
        print(f"{workload}: {len(digests)} ops, "
              f"{sum(costs.values()) / 1000:.1f} s", flush=True)
    run.FINGERPRINTS.write_text(json.dumps(out, indent=1, sort_keys=True)
                                + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
