"""The repository's benchmark: workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper-nostore --seed 1 --seconds 12
    python3 perfbench/run.py --workload service-mix --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --compare perfbench/out/A.json perfbench/out/B.json

Each repetition runs in a fresh interpreter (``leg.py``) with its own
temporary directory under ``perfbench/.work/``; stores, journals,
sockets and the native build all live there and are removed afterwards.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` untraced, the ``per_layer`` metrics with ``--trace 1``.
The lines before it are a readable report, and the full record
(fingerprint, every repetition) is saved under ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(HERE, ".work")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("paper-nostore", "paper-warm", "sweep-cold", "service-mix")
STORE_MODES = {"paper-nostore": "none", "paper-warm": "warm",
               "sweep-cold": "cold", "service-mix": "cold"}
#: Every run makes at least this many measured repetitions, and keeps
#: going until ``--seconds`` of them have elapsed.
MIN_REPS = 3
#: Set-up-only interpreters per untraced run, besides the repetitions.
EXTRA_SETUPS = 2
#: A run must end well inside the 180 s a single run may take.
RUN_BUDGET_S = 165.0
#: The paper's own headline figures, printed beside the simulated ones.
PAPER_SPEEDUP_MEAN = 1.18
PAPER_CACHE_REF_REDUCTION_MAX = 0.56


class LegFailed(RuntimeError):
    """A repetition crashed, timed out or printed no result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def fingerprint(workload: str) -> dict:
    import platform

    import numpy

    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True,
                            text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        cc = "unavailable"
    os.makedirs(WORK_ROOT, exist_ok=True)
    try:
        fstype = subprocess.run(["stat", "-f", "-c", "%T", WORK_ROOT],
                                capture_output=True, text=True,
                                timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        fstype = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": cc,
        "store_fs": fstype,
        "store_mode": STORE_MODES[workload],
    }


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def group_members(pgid: int) -> list:
    """Live (non-zombie) processes of one process group."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 10
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


class Run:
    """One benchmark run: its legs, directories and deadline."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.deadline = time.monotonic() + RUN_BUDGET_S
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-",
                                     dir=WORK_ROOT)
        self.legs = 0
        self.outlived = []

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.root, f"{name}-{self.legs}")
        os.makedirs(path)
        return path

    def leg(self, store=None, trace=False, setup_only=False,
            spans=None, journal_dir=None) -> dict:
        """One fresh-interpreter repetition; returns its result record."""
        self.legs += 1
        tmp = self.fresh_dir("tmp")
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=tmp)
        if store is not None:
            env["REPRO_KERNEL_CACHE_DIR"] = store
        command = [sys.executable, os.path.join(HERE, "leg.py"),
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--run-id", f"{self.workload}-{self.seed}-{self.legs}"]
        if trace:
            command.append("--trace")
        if setup_only:
            command.append("--setup-only")
        if spans:
            command += ["--spans", spans]
        if journal_dir:
            command += ["--journal-dir", journal_dir]
        stderr_path = os.path.join(self.root, f"stderr-{self.legs}.txt")
        records = {}
        spawned = time.perf_counter()
        with open(stderr_path, "w") as stderr:
            process = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=stderr, start_new_session=True)
            try:
                records = self._read(process)
                process.wait(timeout=max(1.0, self.deadline
                                         - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
            finally:
                survivors = group_members(process.pid)
                if process.poll() is None or survivors:
                    self.outlived += [pid for pid in survivors
                                      if pid != process.pid]
                    kill_group(process.pid)
                    process.wait()
                process.stdout.close()
        leftovers = os.listdir(tmp)
        shutil.rmtree(tmp, ignore_errors=True)
        if process.returncode != 0 or "result" not in records:
            with open(stderr_path) as handle:
                tail = handle.read()[-2000:]
            raise LegFailed(f"{self.workload} leg exited with "
                            f"{process.returncode}:\n{tail}")
        result = records["result"]
        result["setup_s"] = records["ready_at"] - spawned
        result["tmp_leftovers"] = leftovers
        return result

    def _read(self, process) -> dict:
        """Collect the leg's records until it closes stdout.

        The ``ready`` record is timestamped on arrival: set-up time is
        measured from outside, spawn to ready.
        """
        import selectors

        records = {}
        selector = selectors.DefaultSelector()
        selector.register(process.stdout, selectors.EVENT_READ)
        buffered = b""
        try:
            while True:
                remaining = self.deadline - time.monotonic()
                if remaining <= 0:
                    raise LegFailed(f"{self.workload} leg overran the "
                                    f"{RUN_BUDGET_S:.0f} s run budget")
                if not selector.select(timeout=remaining):
                    continue
                chunk = os.read(process.stdout.fileno(), 65536)
                if not chunk:
                    return records
                buffered += chunk
                *lines, buffered = buffered.split(b"\n")
                for line in lines:
                    if not line.startswith(b"@@perfbench "):
                        continue
                    record = json.loads(line[len(b"@@perfbench "):])
                    if "ready" in record:
                        records["ready_at"] = time.perf_counter()
                    records.update(record)
        finally:
            selector.close()


# ---------------------------------------------------------------------------
# Workload plans
# ---------------------------------------------------------------------------

def measure(run: Run, seconds: float) -> tuple:
    """Run the workload's repetitions; returns (legs, set-up times, spans)."""
    store = None
    if run.workload == "paper-warm":
        # Precondition, not measured: fill the store with the same code.
        store = os.path.join(run.root, "warm-store")
        run.leg(store=store)
    else:
        run.leg(setup_only=True)  # untimed: first imports, page cache
    setups = []
    if run.workload != "service-mix" and not run.trace:
        # Set-up alone is cheap here, so sample it more often; the
        # service's set-up includes its server, which only a full
        # repetition starts.
        setups = [run.leg(setup_only=True)["setup_s"]
                  for _ in range(EXTRA_SETUPS)]
    legs = []
    spans = None
    started = time.monotonic()
    while len(legs) < MIN_REPS or time.monotonic() - started < seconds:
        journal_dir = None
        if run.workload in ("sweep-cold", "service-mix"):
            store = run.fresh_dir("store")
        if run.workload == "sweep-cold":
            journal_dir = run.fresh_dir("journal")
        traced = run.trace and not legs
        if traced:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(
                OUT_DIR, f"spans-{run.workload}-seed{run.seed}.jsonl")
        legs.append(run.leg(store=store, trace=traced,
                            spans=spans if traced else None,
                            journal_dir=journal_dir))
        if run.deadline - time.monotonic() < 1.5 * max(
                leg["setup_s"] + leg["wall_s"] for leg in legs):
            break
    return legs, setups + [leg["setup_s"] for leg in legs], spans


def median(values):
    return statistics.median(values) if values else 0.0


def summarize(run: Run, legs: list, setups: list, spec: dict,
              spans) -> dict:
    """Aggregate the repetitions into the reported metrics."""
    measured = legs[1:] if run.trace else legs
    attempted = sum(leg["attempted"] for leg in legs)
    failed = sum(leg["failed"] for leg in legs)
    digests = {leg["sim_digest"] for leg in legs}
    checks = {
        "digest_consistent": len(digests) == 1 and "" not in digests,
        "no_table_mismatch": not any(leg.get("table_mismatches")
                                     for leg in legs),
        "no_process_outlived": not run.outlived and not any(
            leg.get("outlived") for leg in legs),
        "tmp_cleaned": not any(leg.get("tmp_leftovers") for leg in legs),
    }
    end_to_end = {
        "setup_s": median(setups),
        "wall_s": median([leg["wall_s"] for leg in measured]),
        "peak_rss_mb": median([leg["peak_rss_mb"] for leg in measured]),
    }
    extra = {
        "error_rate": failed / attempted if attempted else 1.0,
        "sim.digest": sorted(digests)[0],
        "reps": len(measured),
        "setups": len(setups),
    }
    if run.workload.startswith("paper"):
        sim = legs[0]["sim"]
        extra["sim_speedup_geomean"] = sim.get("speedup_geomean", 0.0)
        extra["sim_cache_ref_reduction"] = sim.get("cache_ref_reduction",
                                                   0.0)
    if run.workload == "service-mix":
        latencies = sorted(x for leg in measured
                           for x in leg["latencies_ms"])
        from leg import percentile

        extra.update({
            "req_per_s": sum(leg["attempted"] for leg in measured)
            / sum(leg["wall_s"] for leg in measured),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p99_ms": percentile(latencies, 99),
            "latency_samples": len(latencies),
            "service.drain_s": median([leg["drain_s"] for leg in legs]),
            "service.leaked": median([
                len(leg["leaked_threads"]) + len(leg["leaked_processes"])
                for leg in legs]),
        })
    layers = {}
    if run.trace:
        layers = per_layer(run, legs, spec, extra)
        if spans:
            extra["spans_jsonl"] = os.path.relpath(spans, ROOT)
    return {
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "end_to_end": end_to_end,
        "extra": extra,
        "per_layer": layers,
        "legs": legs,
    }


def per_layer(run: Run, legs: list, spec: dict, extra: dict) -> dict:
    traced = legs[0]
    untraced_walls = [leg["wall_s"] for leg in legs[1:]]
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - median(untraced_walls)
    layers["native.build_s"] = traced["native_build_s"]
    if run.workload.startswith("paper"):
        layers["sim.speedup_geomean"] = extra["sim_speedup_geomean"]
        layers["sim.cache_ref_reduction"] = extra["sim_cache_ref_reduction"]
    if run.workload == "service-mix":
        counters = traced["server"]["diagnostics"]["service"]
        layers.update({
            "service.first_latency_p50_ms": traced["first_latency_p50_ms"],
            "service.latency_p50_ms": traced["latency_p50_ms"],
            "service.latency_p99_ms": traced["latency_p99_ms"],
            "service.req_per_s": traced["req_per_s"],
            "service.shed": counters["service_shed_busy"],
            "service.coalesced": counters["service_coalesced"],
            "service.worker_crashes": counters["service_worker_crashes"],
            "service.drain_s": traced["drain_s"],
            "service.leaked": len(traced["leaked_threads"])
            + len(traced["leaked_processes"]),
        })
    return {metric["name"]: float(layers.get(metric["name"], 0.0))
            for metric in spec["per_layer"]}


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def report(workload: str, summary: dict, spec: dict) -> None:
    units = {m["name"]: (m["unit"], m.get("better"))
             for m in spec["end_to_end"] + spec["per_layer"]}
    extra = summary["extra"]
    print(f"== {workload}: correct={summary['correct']} "
          f"attempted={summary['attempted']} failed={summary['failed']} "
          f"reps={extra['reps']}")
    for name, value in summary["end_to_end"].items():
        unit, better = units[name]
        count = extra["setups"] if name == "setup_s" else extra["reps"]
        print(f"  {name:<26} {value:12.4f} {unit:<6} "
              f"(median of {count}; {better} is better)")
    print(f"  {'error_rate':<26} {extra['error_rate']:12.4f} ratio  "
          "(failed / attempted; lower is better)")
    if "req_per_s" in extra:
        print(f"  {'req_per_s':<26} {extra['req_per_s']:12.2f} 1/s    "
              "(higher is better)")
        for name in ("latency_p50_ms", "latency_p99_ms"):
            print(f"  {name:<26} {extra[name]:12.3f} ms     "
                  f"(of {extra['latency_samples']} requests; "
                  "lower is better)")
        print(f"  {'service.drain_s':<26} "
              f"{extra['service.drain_s']:12.3f} s")
        print(f"  {'service.leaked':<26} "
              f"{extra['service.leaked']:12.0f} count")
    if "sim_speedup_geomean" in extra:
        print(f"  {'sim_speedup_geomean':<26} "
              f"{extra['sim_speedup_geomean']:12.4f} x      "
              f"(simulated; paper: {PAPER_SPEEDUP_MEAN}x mean on "
              "hardware, model not validated against it)")
        print(f"  {'sim_cache_ref_reduction':<26} "
              f"{extra['sim_cache_ref_reduction']:12.4f} ratio  "
              f"(simulated mean; paper: up to "
              f"{PAPER_CACHE_REF_REDUCTION_MAX:.0%})")
    print(f"  {'sim.digest':<26} {extra['sim.digest'][:16]}")
    for name, ok in summary["checks"].items():
        print(f"  check {name:<20} {'ok' if ok else 'FAILED'}")
    for name, value in summary["per_layer"].items():
        print(f"  {name:<32} {value:14.4f} {units[name][0]}")


def contract_line(summary: dict, spec: dict, trace: bool) -> dict:
    names = spec["per_layer"] if trace else spec["end_to_end"]
    values = summary["per_layer"] if trace else summary["end_to_end"]
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in names},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    run = Run(workload, seed, trace)
    try:
        legs, setups, spans = measure(run, seconds)
        summary = summarize(run, legs, setups, spec, spans)
    finally:
        run.close()
    summary["fingerprint"] = fingerprint(workload)
    summary["workload"] = workload
    summary["seed"] = seed
    summary["trace"] = trace
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR,
                        f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=1, default=str)
    return summary


# ---------------------------------------------------------------------------
# Comparison of saved runs
# ---------------------------------------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    differ = {key: (a["fingerprint"].get(key), b["fingerprint"].get(key))
              for key in set(a["fingerprint"]) | set(b["fingerprint"])
              if a["fingerprint"].get(key) != b["fingerprint"].get(key)}
    if differ or a["workload"] != b["workload"]:
        print("refusing to compare: the runs differ in "
              + ", ".join(f"{k} ({v[0]!r} vs {v[1]!r})"
                          for k, v in sorted(differ.items()))
              + ("" if a["workload"] == b["workload"] else
                 f" workload ({a['workload']} vs {b['workload']})"))
        return 3
    print(f"{a['workload']}: {path_a} -> {path_b} "
          f"(fingerprints match: {a['fingerprint']})")
    for section in ("end_to_end", "per_layer"):
        for name, before in a[section].items():
            after = b[section].get(name)
            if after is None:
                continue
            change = (after / before - 1.0) if before else float("nan")
            print(f"  {name:<32} {before:12.4f} -> {after:12.4f} "
                  f"({change:+.1%})")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run the repository benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT_JSON",
                        help="compare two saved results from "
                             "perfbench/out/ instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print("perfbench: no program under src/repro; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    trace = bool(args.trace)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    try:
        for workload in workloads:
            summaries[workload] = run_workload(workload, args.seed, seconds,
                                               trace, spec)
            report(workload, summaries[workload], spec)
    except LegFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(WORK_ROOT)  # each run removed its own directory
        except OSError:
            pass
    if len(workloads) == 1:
        line = contract_line(summaries[workloads[0]], spec, trace)
    else:
        line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        digests = {}
        for workload, summary in summaries.items():
            single = contract_line(summary, spec, trace)
            line["correct"] = line["correct"] and single["correct"]
            line["attempted"] += single["attempted"]
            line["failed"] += single["failed"]
            for name, value in single["metrics"].items():
                line["metrics"][f"{workload}.{name}"] = value
            digests[workload] = summary["extra"]["sim.digest"]
        same = digests["paper-nostore"] == digests["paper-warm"]
        print(f"paper-nostore and paper-warm simulate identically: {same}")
        line["correct"] = line["correct"] and same
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
