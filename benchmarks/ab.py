"""Paired A/B runs of the repository benchmark against a base revision.

A single ``perfbench/run.py`` run on a shared machine moves by more
than most speed-ups, so a claim needs paired runs: this script runs
one workload N times on the base revision and N times on this working
tree, alternating which side goes first in each pair, and reports each
side's median and quartiles and how many pairs the change won::

    python benchmarks/ab.py --base HEAD~1 --workload paper-warm --seed 3
    python benchmarks/ab.py --base main --workload sweep-cold --seed 2 \\
        --pairs 5

A pair is won on a metric when the change's run is better on it than
the base run (lower, for every end-to-end metric).  The base revision
is checked out into a temporary ``git worktree`` that is removed when
the script ends, however it ends.  Finally one record from each side
— the run whose ``wall_s`` is closest to that side's median — goes to
``perfbench/run.py --compare``.  Exit status: 0 when every run
succeeded and reported ``correct``, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


class RunFailed(RuntimeError):
    """A perfbench run exited non-zero or reported a wrong output."""


def run_once(tree: Path, workload: str, seed: int, keep: Path
             ) -> Dict[str, float]:
    """One ``perfbench/run.py`` run in ``tree``; its record is copied
    to ``keep``.  Returns the end-to-end metric values."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(f"{tree}: exit {done.returncode}\n"
                        f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    line = json.loads(lines[-1])
    if not line["correct"] or line["failed"]:
        raise RunFailed(f"{tree}: run reported wrong output: {line}")
    shutil.copyfile(
        tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json",
        keep)
    return {name: entry["value"] for name, entry in line["metrics"].items()}


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def add_worktree(rev: str, where: Path) -> None:
    subprocess.run(["git", "worktree", "add", "--detach", str(where), rev],
                   cwd=ROOT, check=True, capture_output=True, text=True)


def remove_worktree(where: Path) -> None:
    subprocess.run(["git", "worktree", "remove", "--force", str(where)],
                   cwd=ROOT, capture_output=True)
    subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                   capture_output=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/ab.py",
        description="Paired perfbench runs: base revision vs this tree.")
    parser.add_argument("--base", required=True,
                        help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    scratch = Path(tempfile.mkdtemp(prefix="repro-ab-"))
    base_tree = scratch / "base"
    results: Dict[str, List[Dict[str, float]]] = {"base": [], "change": []}
    try:
        add_worktree(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 \
                else ("change", "base")
            for side in order:
                keep = scratch / f"{side}-{pair}.json"
                results[side].append(run_once(
                    trees[side], args.workload, args.seed, keep))
            print(f"pair {pair + 1:2d} ({order[0]} first): wall_s "
                  f"base {results['base'][-1]['wall_s']:.4f}  "
                  f"change {results['change'][-1]['wall_s']:.4f}",
                  flush=True)
        report(args, results, better, scratch)
    except RunFailed as exc:
        print(f"ab: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_worktree(base_tree)
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def report(args, results, better, scratch: Path) -> None:
    print(f"\n{args.workload} seed {args.seed}: {args.pairs} pairs, "
          f"base {args.base} vs this tree")
    for name in results["base"][0]:
        for side in ("base", "change"):
            q1, median, q3 = quartiles([r[name] for r in results[side]])
            print(f"  {name:<12} {side:<6} median {median:10.4f}  "
                  f"q1 {q1:10.4f}  q3 {q3:10.4f}")
        sign = 1 if better[name] == "lower" else -1
        wins = sum(sign * (c[name] - b[name]) < 0
                   for b, c in zip(results["base"], results["change"]))
        print(f"  {name:<12} change wins {wins} of {args.pairs} pairs")
    picks = {}
    for side in ("base", "change"):
        values = [r["wall_s"] for r in results[side]]
        median = statistics.median(values)
        closest = min(range(len(values)),
                      key=lambda i: abs(values[i] - median))
        picks[side] = scratch / f"{side}-{closest}.json"
    print(flush=True)
    subprocess.run([sys.executable, "perfbench/run.py", "--compare",
                    str(picks["base"]), str(picks["change"])], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
