"""The benchmark workloads and the CLI calls one iteration makes.

Each workload is the whole pipeline (index, score, run in four modes,
eval, tune) on its own seeded inputs; the inputs decide which layer
dominates.  Every call goes through termdep.cli.main in this process.
"""

from __future__ import annotations

import gc
import hashlib
import io
import os
import random
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from inputs import (
    ABSENT_TERM,
    NO_COVERAGE,
    NO_USABLE,
    SINGLE,
    CorpusSpec,
    Inputs,
    QuerySpec,
)

THREADS = "2"
MODES = ("bow", "sd", "fd", "selective")
ALL_VARIANTS = tuple(
    [f"vector:{s}" for s in ("atc", "ltu", "mi", "okapi", "tfidf")]
    + [f"lm:{sm}:{cm}" for sm in ("laplace", "sgt") for cm in ("qsum", "qavg", "mult", "median")]
)
# One variant per family: enough to run every scoring layer on workloads
# where scoring is not the stage under test.
FAMILY_VARIANTS = ("vector:tfidf", "lm:sgt:qsum")

# Stages outside a workload's focus run on this small query set, so that
# every end-to-end metric is measured (and nonzero) on every workload.
PROBE = QuerySpec(
    prefix="kp", queries=3, pool=6, term_cf=6, syn_cf=6, lengths=(2, 3), phrase_docs=3, judged=15
)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusSpec
    main: QuerySpec
    score_set: str
    variants: Tuple[str, ...]
    rank_set: str
    tune_set: str
    theta: int

    @property
    def sets(self) -> Dict[str, QuerySpec]:
        used = {self.score_set, self.rank_set, self.tune_set}
        return {name: spec for name, spec in (("main", self.main), ("probe", PROBE)) if name in used}


WORKLOADS = {
    w.name: w
    for w in (
        # Mid-frequency terms shared across many queries, with planted
        # coverage gaps: all 13 variants re-extract the same windows.
        Workload(
            name="ncd-score",
            corpus=CorpusSpec(docs=300, doc_len=80, bg_vocab=300),
            main=QuerySpec(
                prefix="ka", queries=100, pool=60, term_cf=3, syn_cf=4,
                uncovered=8, absent_syn=6, phrase_docs=1, judged=10,
                gaps={SINGLE: 4, NO_COVERAGE: 4, NO_USABLE: 4, ABSENT_TERM: 4},
            ),
            score_set="main", variants=ALL_VARIANTS, rank_set="probe", tune_set="probe", theta=20,
        ),
        # Few queries of head-frequency terms: long candidate lists and
        # postings, so ranking dominates and scoring is small.
        Workload(
            name="rank-modes",
            corpus=CorpusSpec(docs=500, doc_len=100),
            main=QuerySpec(
                prefix="kh", queries=3, pool=6, term_cf=570, syn_cf=70,
                lengths=(2, 3), phrase_docs=30, judged=100,
            ),
            score_set="probe", variants=FAMILY_VARIANTS, rank_set="main", tune_set="probe", theta=3,
        ),
        # Small corpus, many queries, dense graded judgments: tune repeats
        # ranking and evaluation 450 times, each pass cheap.
        Workload(
            name="cv-tune",
            corpus=CorpusSpec(docs=120, doc_len=60),
            main=QuerySpec(
                prefix="kc", queries=45, pool=40, term_cf=2, syn_cf=4, lengths=(2, 3),
                uncovered=3, absent_syn=2, phrase_docs=1, judged=12,
                gaps={SINGLE: 2, NO_COVERAGE: 2},
            ),
            score_set="main", variants=FAMILY_VARIANTS, rank_set="main", tune_set="main", theta=10,
        ),
    )
}

END_TO_END = {
    "setup_s": "s",
    "score_s": "s",
    "rank_bow_s": "s",
    "rank_sd_s": "s",
    "rank_fd_s": "s",
    "rank_selective_s": "s",
    "eval_s": "s",
    "tune_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Call:
    stage: str
    argv: List[str]


@dataclass
class Plan:
    """The CLI calls of one pass over a workload and where they write."""

    out: str
    calls: List[Call] = field(default_factory=list)
    score_outs: Dict[str, str] = field(default_factory=dict)
    run_outs: Dict[str, str] = field(default_factory=dict)
    eval_outs: Dict[str, str] = field(default_factory=dict)
    index_out: str = ""
    tune_out: str = ""


def variant_dir(variant: str) -> str:
    return variant.replace(":", "_")


def make_plan(w: Workload, inp: Inputs, out: str) -> Plan:
    plan = Plan(out=out)
    corpus = ["--corpus", inp.corpus]
    plan.index_out = os.path.join(out, "index.json")
    plan.calls.append(Call("setup", ["index", *corpus, "--out", plan.index_out]))
    qs = inp.sets[w.score_set]
    for v in w.variants:
        path = os.path.join(out, "score", variant_dir(v), "scores.csv")
        plan.score_outs[v] = path
        plan.calls.append(Call("score", score_argv(inp, qs.queries, v, w.theta, path, THREADS)))
    qr = inp.sets[w.rank_set]
    for mode in MODES:
        path = os.path.join(out, "runs", f"{mode}.run")
        plan.run_outs[mode] = path
        plan.calls.append(Call(f"rank_{mode}", run_argv(inp, qr.queries, mode, w.theta, path, THREADS)))
    for mode in MODES:
        path = os.path.join(out, "eval", f"{mode}.csv")
        plan.eval_outs[mode] = path
        plan.calls.append(
            Call("eval", ["eval", "--run", plan.run_outs[mode], "--qrels", qr.qrels, "--out", path])
        )
    qt = inp.sets[w.tune_set]
    plan.tune_out = os.path.join(out, "tune.json")
    plan.calls.append(
        Call(
            "tune",
            [
                "tune", *corpus, "--queries", qt.queries, "--lexicon", inp.lexicon,
                "--qrels", qt.qrels, "--threads", THREADS, "--out", plan.tune_out,
            ],
        )
    )
    for path in (*plan.score_outs.values(), *plan.run_outs.values(), *plan.eval_outs.values()):
        os.makedirs(os.path.dirname(path), exist_ok=True)
    return plan


def score_argv(inp: Inputs, queries: str, variant: str, theta: int, out: str, threads: str) -> List[str]:
    return [
        "score", "--corpus", inp.corpus, "--queries", queries, "--lexicon", inp.lexicon,
        "--variant", variant, "--theta", str(theta), "--threads", threads, "--out", out,
    ]


def run_argv(inp: Inputs, queries: str, mode: str, theta: int, out: str, threads: str) -> List[str]:
    argv = [
        "run", "--corpus", inp.corpus, "--queries", queries, "--mode", mode,
        "--threads", threads, "--out", out,
    ]
    if mode == "selective":
        argv += ["--lexicon", inp.lexicon, "--variant", "vector:tfidf", "--theta", str(theta)]
    return argv


def cli_call(main: Callable, argv: List[str]) -> int:
    """termdep.cli.main with its console output swallowed; returns the exit code."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


@dataclass
class Pass:
    """One pass over a plan's calls: wall-time samples and exit codes per call."""

    samples: List[List[float]]
    codes: List[int]


def run_pass(
    main: Callable, plan: Plan, repeats: Sequence[int], tracer=None, rng: Optional[random.Random] = None
) -> Pass:
    """Run call i of the plan repeats[i] times, spread evenly over the pass.

    The pass is max(repeats) rounds; a call repeated r times runs in r of
    them, so samples of short calls interleave with the long ones instead
    of bunching up in one stretch of a noisy machine's time.  With `rng`,
    each round runs its calls in shuffled order, so no call keeps the same
    offset into a pass (and into any periodic interference).  Without it
    calls run in plan order, which the first pass needs: later calls read
    what earlier ones wrote.
    """
    rounds = max(repeats)
    samples: List[List[float]] = [[] for _ in plan.calls]
    codes: List[int] = []
    for j in range(rounds):
        order = [i for i, r in enumerate(repeats) if (j + 1) * r // rounds != j * r // rounds]
        if rng is not None:
            rng.shuffle(order)
        for i in order:
            call = plan.calls[i]
            # Each call starts from a collected heap, as a fresh CLI process
            # would, so garbage left by earlier calls is not collected (and
            # timed) inside this one.
            gc.collect()
            t0 = time.perf_counter()
            if tracer is None:
                rc = cli_call(main, call.argv)
            else:
                with tracer.root(call.stage):
                    rc = cli_call(main, call.argv)
            samples[i].append(time.perf_counter() - t0)
            codes.append(rc)
    return Pass(samples, codes)


def per_call_medians(passes: Sequence[Pass]) -> List[float]:
    return [statistics.median(s for p in passes for s in p.samples[i]) for i in range(len(passes[0].samples))]


def another_fits(start: float, done: int, seconds: float) -> bool:
    """Would one more pass, as long as the mean so far, end within `seconds`?"""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def digest_tree(root: str) -> Dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


