"""Interleaved parent/change benchmark pairs, recorded in BENCH_<workload>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload verify_suite --pairs 10 --first-seed 101

Runs `perfbench/run.py --trace 0` (untraced) for the run_seconds of the
change tree's BENCHMARK.json in each of two source trees, one process at a
time: pair i runs both trees on seed
first_seed + i, the parent first in even pairs and the change first in odd
ones, so a drift in host load falls on both sides alike.  Only the last
line of each run's stdout, its JSON summary, is read.

Per end-to-end metric of the change tree's BENCHMARK.json it prints each
side's quartiles, the number of pairs the change wins (ties count for
neither) and whether the medians differ by more than the parent's
interquartile range.  It then appends one entry per side to
BENCH_<workload>.json at the root of the repository holding this script:
the side's git revision, the date, os.cpu_count(), os.getloadavg() before
and after the pairs, the run length, and each seed's correctness, failed
operations and metric values.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def revision(tree: Path) -> str:
    """HEAD of the tree's git checkout, with "-dirty" when tracked files
    differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    head = git("rev-parse", "HEAD")
    return head + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `tree`: its last-line JSON summary."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} printed nothing "
                           f"(exit {done.returncode}): {done.stderr.strip()[-500:]}")
    summary = json.loads(lines[-1])
    return {"seed": seed, "correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {name: m["value"] for name, m in summary["metrics"].items()}}


def pair_order(pair: int) -> tuple[str, str]:
    """The side that runs first alternates from pair to pair."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Quartiles of each side, the pairs the change wins, and whether the
    gap between the medians exceeds the parent's interquartile range."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    return {"parent": p_q, "change": c_q, "wins": wins, "pairs": len(parent),
            "beyond_iqr": abs(c_q[1] - p_q[1]) > p_q[2] - p_q[0]}


def benchmark(tree: Path) -> tuple[float, dict[str, str]]:
    """The tree's BENCHMARK.json run length and each end-to-end metric's
    name and better direction."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return spec["run_seconds"], {m["name"]: m.get("better", "lower") for m in spec["end_to_end"]}


def record(path: Path, entries: list[dict]) -> None:
    history = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(history + entries, indent=1) + "\n")


def run_pairs(trees: dict[str, Path], revisions: dict[str, str], workload: str,
              pairs: int, first_seed: int, out_dir: Path) -> dict:
    seconds, end_to_end = benchmark(trees["change"])
    runs = {side: [] for side in SIDES}
    load_before = os.getloadavg()
    for pair in range(pairs):
        for side in pair_order(pair):
            runs[side].append(run_once(trees[side], workload, first_seed + pair, seconds))
    load_after = os.getloadavg()
    date = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    record(out_dir / f"BENCH_{workload}.json", [
        {"workload": workload, "side": side, "revision": revisions[side], "date": date,
         "cpu_count": os.cpu_count(), "loadavg_before": list(load_before),
         "loadavg_after": list(load_after), "seconds": seconds, "runs": runs[side]}
        for side in SIDES])
    report = {}
    for name, better in end_to_end.items():
        parent, change = ([run["metrics"][name] for run in runs[side]] for side in SIDES)
        report[name] = compare(parent, change, better)
    return {"runs": runs, "metrics": report}


def print_report(workload: str, result: dict) -> None:
    for side in SIDES:
        bad = [r["seed"] for r in result["runs"][side] if not r["correct"] or r["failed"]]
        print(f"{workload} {side}: {len(result['runs'][side])} runs"
              + (f", incorrect or failed at seeds {bad}" if bad else ", all correct"))
    for name, c in result["metrics"].items():
        parent, change = ("/".join(f"{v:.4g}" for v in c[side]) for side in SIDES)
        print(f"{workload} {name}: parent {parent} -> change {change} (q1/median/q3); "
              f"change better in {c['wins']}/{c['pairs']}; median gap "
              f"{'exceeds' if c['beyond_iqr'] else 'within'} the parent's IQR")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="changed source tree")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json; repeat for more")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--parent-rev", help="revision of --parent when it is no git checkout")
    parser.add_argument("--change-rev", help="revision of --change when it is no git checkout")
    parser.add_argument("--out-dir", type=Path, default=ROOT,
                        help="where BENCH_<workload>.json is appended (default: repository root)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    given = {"parent": args.parent_rev, "change": args.change_rev}
    try:
        revisions = {side: given[side] or revision(trees[side]) for side in SIDES}
    except subprocess.CalledProcessError as exc:
        parser.error(f"no git revision ({exc.stderr.strip()}): pass --parent-rev/--change-rev")
    for workload in args.workload:
        print_report(workload, run_pairs(trees, revisions, workload, args.pairs,
                                         args.first_seed, args.out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
