"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition.  It sets up (imports,
native C build, and for ``service-mix`` the server), prints a ``ready``
record, runs the workload's timed work, checks every output, and prints
a ``result`` record.  Records are single stdout lines prefixed with
``@@perfbench``; everything else on stdout is the program's own output.

Usage (normally only via run.py)::

    python3 perfbench/leg.py --workload paper-nostore --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS_DIR = os.path.join(ROOT, "benchmarks", "results")

#: Figure generators of the paper session, in the paper's order, with
#: the table each renders: (name under benchmarks/results/, columns).
PAPER_TABLES = {
    "table1_rows": ("table1_catalog", (
        "type", "possible_reuse", "opcodes", "size", "ops_per_cycle",
        "flows")),
    "fig10_rows": ("fig10_relevance", (
        "dims", "accel_size", "accel_version", "task_clock_ms")),
    "fig11_rows": ("fig11_flows", (
        "dims", "accel_size", "accel_version", "impl", "flow",
        "task_clock_ms")),
    "fig12_rows": ("fig12_copyopt", (
        "panel", "impl", "flow", "branch-instructions",
        "cache-references", "task-clock")),
    "fig13_rows": ("fig13_headline", (
        "dims", "accel_size", "accel_version", "flow", "cpp_MANUAL_ms",
        "mlir_AXI4MLIR_ms", "speedup", "cache_ref_reduction")),
    "fig14_rows": ("fig14_flexible", (
        "dims", "As-squareTile_ms", "Bs-squareTile_ms",
        "Cs-squareTile_ms", "Best_ms", "Best_config")),
    "fig16_rows": ("fig16_resnet", (
        "layer", "branch_instructions", "cache_references", "task_clock",
        "speedup")),
    "fig17_rows": ("fig17_tinybert", (
        "strategy", "other_layers_s", "matmuls_cpu_s", "matmuls_acc_s",
        "e2e_s", "e2e_speedup", "matmul_speedup")),
}

SWEEP_TABLE = ("tuning_sweep", ("group", "accel_version", "flow", "tiles",
                                "cpu_tiling", "metric_s"))

#: Requests per service-mix repetition: enough that p99 has more than
#: ten samples beyond it in every repetition.
SERVICE_REQUESTS = 1000
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2
ZIPF_S = 1.1


def emit(kind: str, payload: dict) -> None:
    sys.stdout.write("@@perfbench " + json.dumps({kind: payload}) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def digest_of(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Diagnostics snapshots (process totals, worker deltas included)
# ---------------------------------------------------------------------------

def snapshot() -> dict:
    from repro.compiler import default_kernel_cache
    from repro.execution import diagnostics

    diag = diagnostics()
    cache = default_kernel_cache()
    diag["kernel_cache"] = {"hits": cache.hits, "misses": cache.misses,
                            "disk_hits": cache.disk_hits}
    return diag


def delta(after: dict, before: dict) -> dict:
    out = {}
    for section, values in after.items():
        if not isinstance(values, dict):
            continue
        base = before.get(section, {})
        out[section] = {key: value - base.get(key, 0)
                        for key, value in values.items()
                        if isinstance(value, (int, float))
                        and not isinstance(value, bool)}
    return out


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# paper-nostore / paper-warm
# ---------------------------------------------------------------------------

def render(rows, columns, name: str) -> str:
    from repro.experiments import format_table

    text = format_table(rows, columns)
    if name == "fig13_headline":
        speedups = [r["speedup"] for r in rows]
        text += (f"\n\nmean speedup {sum(speedups) / len(speedups):.3f}, "
                 f"max {max(speedups):.3f}, max cache-ref reduction "
                 f"{max(r['cache_ref_reduction'] for r in rows):.3f}")
    elif name == "fig16_resnet":
        wins = sum(r["speedup"] > 1.0 for r in rows)
        text += f"\n\nwins: {wins}/{len(rows)}"
    return text + "\n"


def run_paper() -> dict:
    """The figure session in the paper's order.

    The inputs are fixed by the paper, so the seed does not enter: the
    order is fixed too, because it moves the session time by up to a
    third (generators share memoized measurements and plans).
    """
    from repro.experiments import figures

    order = list(PAPER_TABLES)
    rows = {}
    errors = []
    started = time.perf_counter()
    for name in order:
        try:
            rows[name] = getattr(figures, name)()
        except Exception as exc:  # an operation failure, counted below
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - started

    mismatches = []
    for name, table_rows in rows.items():
        table, columns = PAPER_TABLES[name]
        with open(os.path.join(RESULTS_DIR, table + ".txt")) as handle:
            expected = handle.read()
        if render(table_rows, columns, table) != expected:
            mismatches.append(table)
    sim = {}
    if "fig13_rows" in rows:
        fig13 = rows["fig13_rows"]
        sim = {
            "speedup_geomean": math.exp(
                sum(math.log(r["speedup"]) for r in fig13) / len(fig13)),
            "cache_ref_reduction": sum(
                r["cache_ref_reduction"] for r in fig13) / len(fig13),
        }
    return {
        "wall_s": wall,
        "attempted": len(order),
        "failed": len(errors) + len(mismatches),
        "errors": errors,
        "table_mismatches": mismatches,
        "order": order,
        "sim": sim,
        "sim_digest": digest_of({name: rows[name] for name in sorted(rows)}),
    }


# ---------------------------------------------------------------------------
# sweep-cold
# ---------------------------------------------------------------------------

def run_sweep(journal_dir: str) -> dict:
    from repro.experiments import sweep_rows
    from repro.tuning import tuning_counters

    before = tuning_counters()
    journal = os.path.join(journal_dir, "sweep.jsonl")
    report_path = os.path.join(journal_dir, "sweep_report.json")
    errors = []
    rows = None
    started = time.perf_counter()
    try:
        rows = sweep_rows(journal_path=journal, report_path=report_path)
    except Exception as exc:
        errors.append(f"sweep_rows: {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - started
    after = tuning_counters()
    points = after["tuning_points_total"] - before["tuning_points_total"]
    bad_points = sum(after[key] - before[key] for key in (
        "tuning_points_poisoned", "tuning_points_failed"))
    mismatches = []
    digest = ""
    if rows is not None:
        table, columns = SWEEP_TABLE
        with open(os.path.join(RESULTS_DIR, table + ".txt")) as handle:
            expected = handle.read()
        if render(rows, columns, table) != expected:
            mismatches.append(table)
        with open(report_path) as handle:
            digest = digest_of(json.load(handle))
    return {
        "wall_s": wall,
        "attempted": max(points, 1),
        "failed": bad_points + len(errors) + len(mismatches),
        "errors": errors,
        "table_mismatches": mismatches,
        "sim_digest": digest,
    }


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------

def service_configs() -> list:
    """The 36 request configurations the Zipf draw ranges over."""
    flows = {1: ("Ns",), 2: ("Ns", "As", "Bs"), 3: ("Ns", "As", "Bs", "Cs")}
    configs = []
    for version, version_flows in flows.items():
        for flow in version_flows:
            for size in (4, 8):
                for dims in ((16, 16, 16), (32, 32, 32)):
                    configs.append(("matmul", dims, size, version, flow))
    for conv in ((1, 4, 8, 4, 3, 1), (1, 8, 10, 8, 3, 1),
                 (1, 4, 9, 8, 1, 2), (1, 8, 7, 4, 3, 2)):
        configs.append(("conv",) + conv)
    return configs


def request_stream(seed: int, count: int) -> list:
    """Seeded Zipf draw over the configurations.

    The popularity order is one fixed shuffle, not the seed's: which
    configuration is the most popular changes the work of a stream by
    more than the benchmark's bounds, so only the draw is seeded.
    """
    configs = service_configs()
    random.Random(0).shuffle(configs)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(configs))]
    return random.Random(seed).choices(configs, weights, k=count)


def conv_oracle(image, weights, stride: int):
    """Direct numpy convolution (NCHW input, OIHW filters)."""
    import numpy as np

    f_hw = weights.shape[2]
    windows = np.lib.stride_tricks.sliding_window_view(
        image.astype(np.int64), (f_hw, f_hw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    return np.einsum("bcyxij,ocij->boyx", windows,
                     weights.astype(np.int64))


def issue_request(client, config, rng):
    """Send one request; return (counters, output matches oracle)."""
    import numpy as np

    if config[0] == "matmul":
        _, (m, n, k), size, version, flow = config
        a = rng.integers(-7, 7, (m, k)).astype(np.int32)
        b = rng.integers(-7, 7, (k, n)).astype(np.int32)
        counters, out = client.matmul(a, b, size=size, version=version,
                                      flow=flow)
        expected = a.astype(np.int64) @ b.astype(np.int64)
    else:
        _, batch, in_ch, in_hw, out_ch, f_hw, stride = config
        image = rng.integers(-4, 4, (batch, in_ch, in_hw, in_hw)) \
            .astype(np.int32)
        weights = rng.integers(-4, 4, (out_ch, in_ch, f_hw, f_hw)) \
            .astype(np.int32)
        counters, out = client.conv(image, weights, stride=stride)
        expected = conv_oracle(image, weights, stride)
    ok = out.shape == expected.shape and np.array_equal(out, expected)
    return counters, ok


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def start_server(trace: bool, run_id: str):
    command = [sys.executable, os.path.join(HERE, "service_host.py"),
               "--socket", "svc.sock", "--workers", str(SERVICE_WORKERS),
               "--run-id", run_id]
    if trace:
        command.append("--trace")
    return subprocess.Popen(command, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)


def read_record(process, kind: str) -> dict:
    for line in process.stdout:
        if line.startswith("@@perfbench "):
            record = json.loads(line[len("@@perfbench "):])
            if kind in record:
                return record[kind]
    raise RuntimeError(f"service host exited before its {kind} record")


def run_service(seed: int, server, server_ready: dict) -> dict:
    import numpy as np

    from repro.service import ServiceClient

    stream = request_stream(seed, SERVICE_REQUESTS)
    latencies = [None] * len(stream)
    results = [None] * len(stream)
    lock = threading.Lock()
    cursor = [0]
    thread_walls = {}

    def client_loop():
        begun = time.perf_counter()
        with ServiceClient("svc.sock", seed=seed) as client:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(stream):
                    break
                rng = np.random.default_rng((seed, index))
                sent = time.perf_counter()
                try:
                    counters, ok = issue_request(client, stream[index], rng)
                    results[index] = (ok, counters)
                except Exception as exc:  # a failed request, counted
                    results[index] = (False, repr(exc))
                latencies[index] = time.perf_counter() - sent
        thread_walls[threading.get_ident()] = time.perf_counter() - begun

    started = time.perf_counter()
    threads = [threading.Thread(target=client_loop, name=f"client-{i}")
               for i in range(SERVICE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started

    server.stdin.write("drain\n")
    server.stdin.flush()
    summary = read_record(server, "drained")
    server.stdin.close()
    server.wait(timeout=60)
    outlived = [pid for pid in server_ready["worker_pids"] if alive(pid)]
    for pid in outlived:
        os.kill(pid, 9)

    failed = sum(1 for ok, _ in results if not ok)
    first_seen = {}
    for index, config in enumerate(stream):
        first_seen.setdefault(config, latencies[index])
    ordered = sorted(latencies)
    counters = [asdict(c) if ok else None for ok, c in results]
    return {
        "wall_s": wall,
        "attempted": len(stream),
        "failed": failed,
        "errors": [repr(c) for ok, c in results if not ok][:5],
        "latencies_ms": [x * 1e3 for x in latencies],
        "first_latency_p50_ms": percentile(
            sorted(first_seen.values()), 50) * 1e3,
        "latency_p50_ms": percentile(ordered, 50) * 1e3,
        "latency_p99_ms": percentile(ordered, 99) * 1e3,
        "req_per_s": len(stream) / wall,
        "distinct_configs": len(first_seen),
        "sim_digest": digest_of(counters) if not failed else "",
        "drain_s": summary["drain_s"],
        "leaked_threads": summary["leaked_threads"],
        "leaked_processes": summary["leaked_processes"] + outlived,
        "outlived": outlived,
        "server": summary,
        "thread_walls": thread_walls,
    }


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Per-layer metrics (traced leg)
# ---------------------------------------------------------------------------

def layer_metrics(tracer, diag: dict, result: dict,
                  thread_walls: dict) -> dict:
    from tracing import self_times

    timed = self_times(tracer.spans, thread_walls)
    m = dict(timed["self_s"])
    counts = timed["counts"]
    cache = diag["kernel_cache"]
    trace = diag["trace_sources"]
    plans = diag["metrics_plan"]
    store = diag["store"]
    worker = tracer.worker
    lookups = cache["hits"] + cache["misses"]
    m.update({
        "compiler.kernels": cache["misses"] - cache["disk_hits"],
        "compiler.cache_hit_ratio": ratio(cache["hits"], lookups),
        "synth.traces": trace["synthesized"],
        "synth.fallbacks": trace["synth_fallback"] + trace["recorded"],
        "plan.builds": counts.get("plan.build", 0),
        "plan.hit_ratio": ratio(
            plans["metrics_plan_hits"],
            plans["metrics_plan_hits"] + plans["metrics_plan_misses"]),
        "plan.memo_hit_ratio": ratio(
            plans["component_memo_hits"],
            plans["component_memo_hits"] + plans["component_memo_misses"]),
        "replay.kernels": counts.get("replay", 0),
        "model.step_hits": diag["model_plan"]["model_plan_step_hits"],
        "store.hits": store["store_hits"],
        "store.misses": store["store_misses"],
        "store.writes": store["store_writes"],
        "store.bytes_written": tracer.extra["bytes_written"]
        + worker.get("bytes_written", 0),
        "store.rewrites": tracer.extra["rewrites"]
        + worker.get("rewrites", 0),
        "tuning.points": diag["tuning"]["tuning_points_total"],
        "worker.deltas": worker.get("deltas", 0),
        "worker.store_writes": worker.get("store_writes", 0),
        "worker.bytes_written": worker.get("bytes_written", 0),
        "worker.rewrites": worker.get("rewrites", 0),
        "trace.wall_s": result["wall_s"],
        "trace.untraced_s": timed["untraced_s"],
        "trace.accounted_s": sum(timed["self_s"].values())
        + timed["untraced_s"],
        "trace.thread_wall_s": timed["thread_wall_s"],
    })
    m["store.rewrite_ratio"] = ratio(m["store.rewrites"],
                                     store["store_writes"])
    for stage in ("compile_s", "trace_synth_s", "manual_record_s",
                  "replay_s", "metrics_plan_build_s", "model_plan_build_s",
                  "sweep_compile_s", "sweep_simulate_s"):
        m["worker." + stage] = worker.get(stage, 0.0)
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="JSONL file for the traced leg's spans")
    parser.add_argument("--run-id", default="leg")
    parser.add_argument("--journal-dir", default=None,
                        help="fresh, empty directory for the sweep journal")
    args = parser.parse_args()
    work = os.environ["TMPDIR"]

    server = None
    if args.workload == "service-mix" and not args.setup_only:
        os.chdir(work)
        server = start_server(args.trace, args.run_id)
    import numpy  # noqa: F401  (part of set-up)

    import repro  # noqa: F401
    from repro.experiments import figures  # noqa: F401
    from repro.soc._native import native_lib, native_status

    started = time.perf_counter()
    native_lib()
    native_build_s = time.perf_counter() - started
    server_ready = read_record(server, "ready") if server else {}
    emit("ready", {"native": native_status()})
    if args.setup_only:
        emit("result", {"setup_only": True, "peak_rss_mb": peak_rss_mb()})
        return 0

    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        from tracing import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
    before = snapshot()
    if args.workload in ("paper-nostore", "paper-warm"):
        result = run_paper()
        thread_walls = {threading.main_thread().ident: result["wall_s"]}
    elif args.workload == "sweep-cold":
        result = run_sweep(args.journal_dir)
        thread_walls = {threading.main_thread().ident: result["wall_s"]}
    elif args.workload == "service-mix":
        result = run_service(args.seed, server, server_ready)
        thread_walls = result.pop("thread_walls")
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")
    if tracer is not None:
        tracer.uninstall()
    diag = delta(snapshot(), before)
    result["diagnostics"] = diag
    result["peak_rss_mb"] = peak_rss_mb()
    result["native_build_s"] = server_ready.get("native_build_s",
                                                native_build_s)
    if tracer is not None:
        if server is not None:
            # The service's own layers run in the server process.
            server_summary = result["server"]
            tracer.worker = server_summary["worker"]
            diag = delta(server_summary["diagnostics"],
                         server_summary["diagnostics_base"])
            for key, value in server_summary["extra"].items():
                tracer.extra[key] += value
        result["layers"] = layer_metrics(tracer, diag, result, thread_walls)
        if args.spans:
            tracer.write_jsonl(args.spans)
    emit("result", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
