"""Benchmark support: result-table writer and perf-trajectory tracking.

Besides the per-figure result tables, a session that collects every
benchmark test writes a fresh perf record,
``benchmarks/out/BENCH_perf.json`` (gitignored): wall-clock seconds per
figure harness, the benchmark total and the per-stage breakdown, all
measured by that session alone.  The committed ``BENCH_perf.json`` at the repo root is
the baseline ``perf_guard.py`` compares a fresh record against; no run
rewrites it.

With ``REPRO_BENCH_RECORD_WARM=1`` the session adds only
``warm_total_s`` to the existing fresh record — run the benchmarks once
normally (cold-leaning; writes the full record), then a second time
with this flag and a hot ``REPRO_KERNEL_CACHE_DIR`` to capture the
warm-path figure.
"""

import json
import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent / "results"
BENCH_PERF_PATH = Path(__file__).resolve().parent / "out" / "BENCH_perf.json"

_BENCH_DIR = Path(__file__).resolve().parent
_durations = {}
_expected = set()
_collected_files = set()
_stage_snapshot = None


@pytest.fixture
def write_table():
    """Persist a rendered result table under ``benchmarks/results/``."""

    def write(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{name}:\n{text}")

    return write


def pytest_collection_modifyitems(session, config, items):
    for item in items:
        # Resolve before comparing: item paths arrive as invoked (which
        # may go through symlinks) while _BENCH_DIR is resolved.
        path = Path(str(item.fspath)).resolve()
        if _BENCH_DIR in path.parents:
            _expected.add(item.nodeid)
            _collected_files.add(path)


def pytest_runtest_logreport(report):
    if report.when == "call" and report.nodeid in _expected:
        name = report.nodeid.rsplit("::", 1)[-1]
        _durations[name] = _durations.get(name, 0.0) + report.duration
        # Per-stage timings are cumulative for the process; snapshot
        # after every benchmark test so the recorded breakdown covers
        # exactly the benchmark portion of the session (the unit tests
        # that run afterwards exercise the recording path on purpose
        # and must not pollute the trajectory).
        global _stage_snapshot
        try:
            from repro.experiments import stage_timings

            _stage_snapshot = stage_timings()
        except Exception:
            pass


def pytest_sessionfinish(session, exitstatus):
    # Only record full benchmark sessions — a partial run (one figure
    # file, a -k filter) must not clobber the fresh record.
    # Completeness is judged against the files on disk, not merely the
    # session's collection (a path-scoped run collects a subset).
    if not _durations:
        return
    if _collected_files < set(_BENCH_DIR.glob("test_*.py")):
        return
    if len(_durations) < len(
        {nodeid.rsplit("::", 1)[-1] for nodeid in _expected}
    ):
        return
    total = round(sum(_durations.values()), 3)
    BENCH_PERF_PATH.parent.mkdir(exist_ok=True)
    if os.environ.get("REPRO_BENCH_RECORD_WARM"):
        # Warm (second-session, hot store) leg: update only the
        # warm-path figure, leaving the cold payload untouched.
        try:
            payload = json.loads(BENCH_PERF_PATH.read_text())
        except (OSError, ValueError):
            payload = {}
        payload["warm_total_s"] = total
        BENCH_PERF_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        return
    payload = {
        "per_harness_s": {
            name: round(seconds, 3)
            for name, seconds in sorted(_durations.items())
        },
        "benchmarks_total_s": total,
        "collected": session.testscollected,
        "exit_status": int(exitstatus),
    }
    if _stage_snapshot is not None:
        # Per-stage breakdown of the speed path (compiled-kernel cache →
        # trace synthesis/recording → batched replay), so future PRs can
        # see where the remaining time goes.
        payload["per_stage_s"] = {
            name: round(seconds, 3)
            for name, seconds in sorted(_stage_snapshot.items())
        }
    BENCH_PERF_PATH.write_text(json.dumps(payload, indent=2) + "\n")
