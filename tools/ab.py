"""A/B-compare the benchmark's end-to-end metrics between two checkouts.

Usage (from anywhere):

    python3 tools/ab.py PARENT_DIR CHANGE_DIR --workload rank-modes --seeds 101-110 \
        [--claim setup_s]

For each seed, the benchmark command named in PARENT_DIR's BENCHMARK.json
(`python3 perfbench/run.py`) runs with --trace 0 for that file's
run_seconds in each checkout, the two runs of a pair back to back; the
side that goes first alternates from pair to pair.  A run that exits
nonzero, reports `correct: false` or prints no JSON result as its last
line stops the tool with exit status 1.  A --workload or --claim that
BENCHMARK.json does not name stops it with exit status 2 before any run.

For each end-to-end metric of BENCHMARK.json it prints, as a Markdown
table row, each side's median [Q1, Q3] (quartiles from
statistics.quantiles(n=4)), the change in the median, how many pairs the
change won and the parent's interquartile range.  A claim is met when at
least 10 pairs ran, the change is better in at least 9 of every 10 (a
tie is a win for neither side) and its median is better than the
parent's by more than the parent's Q3 - Q1.  After the table come each
side's median [Q1, Q3] of `attempted`, the operations a run checked
(it grows with the passes a run completes, and so can peak_rss_mb),
and every metric whose change median is worse than the parent's by more
than its bound.

Standard library only; termdep is never imported, so each checkout runs
its own sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

MIN_CLAIM_PAIRS = 10


@dataclass(frozen=True)
class Comparison:
    """One metric over paired runs: parent[i] and change[i] share a seed."""

    better: str  # "lower" or "higher"
    parent: Sequence[float]
    change: Sequence[float]

    @property
    def parent_iqr(self) -> float:
        q1, _, q3 = statistics.quantiles(self.parent, n=4)
        return q3 - q1

    @property
    def gain(self) -> float:
        """How much better the change's median is than the parent's; negative if worse."""
        delta = statistics.median(self.change) - statistics.median(self.parent)
        return -delta if self.better == "lower" else delta

    @property
    def wins(self) -> int:
        sign = -1 if self.better == "lower" else 1
        return sum(1 for p, c in zip(self.parent, self.change) if sign * (c - p) > 0)

    def claim_met(self) -> bool:
        pairs = len(self.parent)
        return pairs >= MIN_CLAIM_PAIRS and 10 * self.wins >= 9 * pairs and self.gain > self.parent_iqr

    def worse_than_bound(self, bound: float) -> bool:
        return -self.gain > bound * statistics.median(self.parent)


def parse_seeds(text: str) -> List[int]:
    """`A-B` as the seeds A..B inclusive; at least two, so that quartiles exist."""
    try:
        first, last = (int(part) for part in text.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if last <= first:
        raise argparse.ArgumentTypeError(f"need at least two seeds, got {text!r}")
    return list(range(first, last + 1))


@dataclass(frozen=True)
class Run:
    """One benchmark run: its end-to-end metric values and its `attempted` count."""

    metrics: Dict[str, float]
    attempted: int


def run_once(checkout: str, command: List[str], workload: str, seed: int, seconds: float) -> Run:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    where = f"{checkout} seed {seed}"
    if done.returncode != 0:
        raise SystemExit(f"ab: {where} exited {done.returncode}\n{done.stderr[-2000:]}")
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict):
        raise SystemExit(f"ab: {where} printed no result line\n{done.stderr[-2000:]}")
    if result.get("correct") is not True:
        raise SystemExit(f"ab: {where} reported correct: {result.get('correct')}\n{done.stderr[-2000:]}")
    return Run({name: metric["value"] for name, metric in result["metrics"].items()}, result["attempted"])


def _spread(values: Sequence[float], digits: int) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.{digits}f} [{q1:.{digits}f}, {q3:.{digits}f}]"


def report_row(workload: str, name: str, unit: str, c: Comparison) -> str:
    digits = 4 if unit == "s" else 2
    base = statistics.median(c.parent)
    delta = statistics.median(c.change) - base
    return (
        f"| {workload} | `{name}` | {_spread(c.parent, digits)} | {_spread(c.change, digits)} "
        f"| {delta / base:+.1%} | {c.wins}/{len(c.parent)} | {c.parent_iqr / base:.0%} |"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    parser.add_argument("--claim", help="the end-to-end metric the change claims to improve")
    args = parser.parse_args(argv)

    with open(os.path.join(args.parent_dir, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = bench["end_to_end"]
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"--workload {args.workload!r} is not a workload of BENCHMARK.json")
    if args.claim is not None and args.claim not in {m["name"] for m in metrics}:
        parser.error(f"--claim {args.claim!r} is not an end-to-end metric of BENCHMARK.json")

    sides = {"parent": args.parent_dir, "change": args.change_dir}
    runs: Dict[str, List[Run]] = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], bench["command"], args.workload, seed, bench["run_seconds"]))
        print(f"pair {i + 1}/{len(args.seeds)} (seed {seed}, {order[0]} first) done", file=sys.stderr)

    comparisons = {
        m["name"]: Comparison(
            m["better"], [r.metrics[m["name"]] for r in runs["parent"]], [r.metrics[m["name"]] for r in runs["change"]]
        )
        for m in metrics
    }
    print("| Workload | Metric | Parent median [Q1, Q3] | Change median [Q1, Q3] | Δ median | Change won | Parent IQR |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for m in metrics:
        print(report_row(args.workload, m["name"], m["unit"], comparisons[m["name"]]))
    print(
        "attempted: "
        + ", ".join(f"{side} {_spread([r.attempted for r in runs[side]], 1)}" for side in ("parent", "change"))
    )
    worse = [m["name"] for m in metrics if comparisons[m["name"]].worse_than_bound(m["bound"])]
    print(f"worse than bound: {', '.join(worse) if worse else 'none'}")
    if args.claim is not None:
        c = comparisons[args.claim]
        verdict = "met" if c.claim_met() else "not met"
        print(
            f"claim {args.claim}: {verdict} (change won {c.wins}/{len(c.parent)} pairs, needs 9/10 "
            f"of at least {MIN_CLAIM_PAIRS}; "
            f"median gain {c.gain:.6g} against parent IQR {c.parent_iqr:.6g})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
