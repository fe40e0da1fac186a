"""CI perf-regression guard over the BENCH_perf.json trajectory.

Compares a freshly generated ``BENCH_perf.json`` against the committed
baseline and fails (exit code 1) when the benchmark session got more
than ``--threshold`` slower — in total, on any of the three slowest
baseline harnesses (the ones a perf regression would hide in), or on
any pipeline *stage* (``compile_s`` / ``trace_synth_s`` /
``trace_record_s`` / ``manual_record_s`` / ``replay_s`` /
``metrics_plan_build_s`` / ``metrics_plan_apply_s``): a stage-level
guard catches e.g. a change that silently knocks every kernel off the
synthesis path onto recording — or every replay off the cached
metrics-plan path onto a full rebuild — even when harness totals still
squeak under the threshold.  Stages below ``_STAGE_FLOOR_S`` in the
baseline are skipped — their ratios are noise (and a near-zero
baseline stage like ``trace_record_s`` or ``metrics_plan_apply_s``
*growing* past the floor is exactly what the floor-crossing check
below exists for).

Both session totals are guarded: ``benchmarks_total_s`` (cold-leaning
full session) and, when the baseline records one, ``warm_total_s`` —
the same session re-run against a hot store (see
``benchmarks/conftest.py``'s ``REPRO_BENCH_RECORD_WARM`` mode) — so a
cold-path win cannot mask a warm-path regression or vice versa.

**The stage-accounting rule.**  ``per_stage_s`` entries are wall-clock
seconds accumulated *in whichever process ran the stage*: every pool
worker (model jobs, tuning sweep points, service requests) snapshots
the cumulative counters when it starts and reports the *delta* since
its previous report with every reply, plus one residue delta when the
pool closes it; the shared pool (``repro.pool.Worker``) is the one
merge site that folds each delta back into the parent.  Deltas are disjoint by construction, so each
stage-second is counted exactly once — never double-counted, never
silently dropped.  Inline fallbacks accumulate directly and report no
delta.  Two consequences for reading the numbers: (1) fanning work
onto N workers does **not** shrink a stage's seconds — the workers'
seconds merge back, and stage totals can exceed session wall-clock;
parallel wins show up in ``benchmarks_total_s`` / ``warm_total_s``
only.  (2) a stage second belongs to the stage that *ran*, wherever it
ran — a plan built in a model-replay worker lands in
``metrics_plan_build_s`` exactly as an inline build would.

Usage (as wired in .github/workflows/ci.yml)::

    python benchmarks/perf_guard.py \
        --baseline BENCH_perf.json --fresh benchmarks/out/BENCH_perf.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Stages quicker than this in the baseline are exempt from the ratio
#: guard, but must stay under it (times the threshold) in the fresh
#: record too — a stage going from ~0 to substantial is a regression
#: no ratio can express.
_STAGE_FLOOR_S = 0.2


def compare(baseline: dict, fresh: dict, threshold: float) -> list:
    failures = []
    base_total = baseline.get("benchmarks_total_s")
    fresh_total = fresh.get("benchmarks_total_s")
    if base_total and fresh_total:
        print(f"benchmarks_total_s: baseline {base_total:.3f}s, "
              f"fresh {fresh_total:.3f}s "
              f"({fresh_total / base_total:.2f}x)")
        if fresh_total > base_total * threshold:
            failures.append(
                f"total {fresh_total:.3f}s exceeds {threshold:.2f}x "
                f"baseline {base_total:.3f}s"
            )
    base_warm = baseline.get("warm_total_s")
    fresh_warm = fresh.get("warm_total_s")
    if base_warm:
        if fresh_warm is None:
            failures.append("warm_total_s missing from the fresh record")
        else:
            print(f"warm_total_s: baseline {base_warm:.3f}s, "
                  f"fresh {fresh_warm:.3f}s "
                  f"({fresh_warm / base_warm:.2f}x)")
            if fresh_warm > base_warm * threshold:
                failures.append(
                    f"warm total {fresh_warm:.3f}s exceeds "
                    f"{threshold:.2f}x baseline {base_warm:.3f}s"
                )
    base_harnesses = baseline.get("per_harness_s", {})
    fresh_harnesses = fresh.get("per_harness_s", {})
    slowest = sorted(base_harnesses, key=base_harnesses.get,
                     reverse=True)[:3]
    for name in slowest:
        base_s = base_harnesses[name]
        fresh_s = fresh_harnesses.get(name)
        if fresh_s is None:
            failures.append(f"{name} missing from the fresh record")
            continue
        ratio = fresh_s / base_s if base_s else float("inf")
        print(f"{name}: baseline {base_s:.3f}s, fresh {fresh_s:.3f}s "
              f"({ratio:.2f}x)")
        if base_s and fresh_s > base_s * threshold:
            failures.append(
                f"{name} {fresh_s:.3f}s exceeds {threshold:.2f}x "
                f"baseline {base_s:.3f}s"
            )
    failures.extend(compare_stages(baseline.get("per_stage_s", {}),
                                   fresh.get("per_stage_s", {}),
                                   threshold))
    return failures


def compare_stages(base_stages: dict, fresh_stages: dict,
                   threshold: float) -> list:
    failures = []
    for name in sorted(base_stages):
        base_s = base_stages[name]
        fresh_s = fresh_stages.get(name)
        if fresh_s is None:
            if base_s >= _STAGE_FLOOR_S:
                failures.append(
                    f"stage {name} missing from the fresh record"
                )
            continue
        print(f"stage {name}: baseline {base_s:.3f}s, "
              f"fresh {fresh_s:.3f}s")
        if base_s >= _STAGE_FLOOR_S:
            if fresh_s > base_s * threshold:
                failures.append(
                    f"stage {name} {fresh_s:.3f}s exceeds "
                    f"{threshold:.2f}x baseline {base_s:.3f}s"
                )
        elif fresh_s > _STAGE_FLOOR_S * threshold:
            failures.append(
                f"stage {name} grew from {base_s:.3f}s to {fresh_s:.3f}s "
                f"(floor {_STAGE_FLOOR_S:.2f}s x {threshold:.2f})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, type=Path)
    parser.add_argument("--fresh", required=True, type=Path)
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="allowed slowdown ratio (default 1.25)")
    args = parser.parse_args(argv)
    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    failures = compare(baseline, fresh, args.threshold)
    if failures:
        print("\nPERF REGRESSION:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf guard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
