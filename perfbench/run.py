"""termdep benchmark: seeded workloads driven through the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload ncd-score --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with a single client: it
generates the seeded inputs, then makes passes over the workload's CLI
calls, in process through termdep.cli.main, until --seconds have passed.
Every call that takes --threads passes 2.  Outputs are checked after the
timed loop and feed the attempted/failed counts.  The last line of
standard output is one JSON object: the end-to-end metrics with --trace 0,
the per-layer metrics of the traced passes with --trace 1.

termdep is imported from src/ beside this directory; without it the
benchmark exits nonzero before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
from inputs import make_inputs  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    MODES,
    WORKLOADS,
    Pass,
    Plan,
    another_fits,
    digest_tree,
    make_plan,
    per_call_medians,
    run_pass,
)

DEFAULT_SEED = 1  # record.json holds the output digests for this seed
REPEAT_TARGET = 0.2
MAX_REPEATS = 10


def import_termdep():
    """Import termdep from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "termdep", "cli.py")):
        raise SystemExit(f"perfbench: no termdep sources under {src}")
    sys.path.insert(0, src)
    import termdep
    import termdep.cli

    if not os.path.abspath(termdep.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported termdep from {termdep.__file__}, not {src}")
    return termdep


def measure(main, plan: Plan, seconds: float, seed: int) -> Tuple[Dict[str, float], List[Pass], List[Dict[str, str]]]:
    """Time the plan for `seconds`; every metric sums per-call medians.

    A warm-up pass, checked but not timed, fixes how often each call runs
    per pass: calls shorter than REPEAT_TARGET run up to MAX_REPEATS times,
    so that short stages get as many samples as long ones.
    """
    warm = run_pass(main, plan, [1] * len(plan.calls))
    repeats = [max(1, min(MAX_REPEATS, int(REPEAT_TARGET / s[0]))) for s in warm.samples]
    passes: List[Pass] = []
    digests: List[Dict[str, str]] = [digest_tree(plan.out)]
    rng = random.Random(seed)
    start = time.perf_counter()
    while True:
        passes.append(run_pass(main, plan, repeats, rng=rng))
        digests.append(digest_tree(plan.out))
        if not another_fits(start, len(passes), seconds):
            break
    medians = per_call_medians(passes)
    m = {}
    for name in ("setup", "score", *(f"rank_{mode}" for mode in MODES), "eval", "tune"):
        m[f"{name}_s"] = sum(t for call, t in zip(plan.calls, medians) if call.stage == name)
    m["total_s"] = sum(medians)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m, [warm] + passes, digests


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    termdep = import_termdep()
    w = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench_work", f"{w.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        inp = make_inputs(os.path.join(work, "inputs"), args.seed, w.corpus, w.sets)
        plan = make_plan(w, inp, os.path.join(work, "out"))
        cli_main = termdep.cli.main
        if args.trace:
            metrics, passes, digests, trace_ops, trace_failed = layers.traced(
                termdep, cli_main, plan, args.seconds
            )
            units = layers.UNITS
        else:
            metrics, passes, digests = measure(cli_main, plan, args.seconds, args.seed)
            units = END_TO_END
            trace_ops = trace_failed = 0
        expected = None
        if args.seed == DEFAULT_SEED:
            with open(os.path.join(HERE, "record.json"), encoding="utf-8") as fh:
                expected = json.load(fh)["digests"].get(w.name)
        result = checks.check_all(
            cli_main, w, inp, plan, passes, digests, expected,
            os.path.join(work, "check"), args.seed,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
        except OSError:
            pass
    attempted = result.attempted + trace_ops
    failed = result.failed + trace_failed
    for note in result.notes[:20]:
        print(f"check failed: {note}", file=sys.stderr)
    print(f"workload {w.name} seed {args.seed}: {len(passes)} passes checked")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:14.6f} {unit}")
    print(f"  {'failed_ratio':34s} {failed / attempted:14.6f} ratio ({failed}/{attempted})")
    payload = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
