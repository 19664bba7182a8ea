"""The traced run: per-layer metrics and the check that they add up.

Untraced and traced passes alternate until the time is up.  The
per-layer metrics are medians over the traced passes; the tracing
overhead is the traced minus the untraced total_s, each a sum of
per-call medians.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

from tracing import LAYERS, Span, Tracer, blocking_self_times, count_within, inclusive_time
from workloads import Pass, another_fits, digest_tree, per_call_medians, run_pass

UNITS: Dict[str, str] = {
    "corpus.ingest_s": "s",
    "corpus.docs": "count",
    "corpus.tokens": "count",
    "corpus.vocab": "count",
    "corpus.tf_calls": "count",
    "corpus.cf_calls": "count",
    "corpus.postings_walked": "count",
    "corpus.phrase_s": "s",
    "corpus.phrase_calls": "count",
    "corpus.self_s": "s",
    "windows.extract_s": "s",
    "windows.extract_calls": "count",
    "windows.distinct_targets": "count",
    "windows.windows": "count",
    "windows.reextract_ratio": "ratio",
    "windows.self_s": "s",
    "vectors.build_s": "s",
    "vectors.build_calls": "count",
    "vectors.compose_s": "s",
    "vectors.cosine_s": "s",
    "vectors.degenerate": "count",
    "vectors.self_s": "s",
    "langmodel.smooth_s": "s",
    "langmodel.laplace_calls": "count",
    "langmodel.sgt_calls": "count",
    "langmodel.combine_s": "s",
    "langmodel.kld_s": "s",
    "langmodel.union_vocab": "count",
    "langmodel.self_s": "s",
    "perturb.s": "s",
    "perturb.perturbations": "count",
    "perturb.usable_ratio": "ratio",
    "scoring.batch_s": "s",
    "scoring.self_s": "s",
    "scoring.select_s": "s",
    "scoring.unscoreable": "count",
    "retrieval.rank_s": "s",
    "retrieval.self_s": "s",
    "retrieval.candidates": "count",
    "retrieval.unigram_calls": "count",
    "retrieval.phrase_feature_calls": "count",
    "retrieval.write_run_s": "s",
    "retrieval.read_run_s": "s",
    "evaluation.load_qrels_s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.evaluate_calls": "count",
    "evaluation.qrels_walked": "count",
    "evaluation.cv_s": "s",
    "evaluation.rank_passes": "count",
    "evaluation.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}



def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, spans: List[Span], self_s: Dict[str, float]) -> Dict[str, float]:
    c = tracer.counts()
    t = lambda *names: inclusive_time(spans, names)  # noqa: E731
    n = lambda layer, name: c[f"{layer}.{name}.calls"]  # noqa: E731
    distinct = len(tracer.targets())
    m = {
        "corpus.ingest_s": t("ingest_corpus"),
        "corpus.docs": c["corpus.docs"],
        "corpus.tokens": c["corpus.tokens"],
        "corpus.vocab": c["corpus.vocab"],
        "corpus.tf_calls": n("corpus", "term_frequency"),
        "corpus.cf_calls": n("corpus", "collection_frequency"),
        "corpus.postings_walked": c["corpus.postings_walked"],
        "corpus.phrase_s": t("phrase_occurrences"),
        "corpus.phrase_calls": n("corpus", "phrase_occurrences"),
        "windows.extract_s": t("extract_windows"),
        "windows.extract_calls": n("windows", "extract_windows"),
        "windows.distinct_targets": distinct,
        "windows.windows": c["windows.windows"],
        "windows.reextract_ratio": _ratio(n("windows", "extract_windows"), distinct),
        "vectors.build_s": t("build_term_vector"),
        "vectors.build_calls": n("vectors", "build_term_vector"),
        "vectors.compose_s": t("compose_query_vector"),
        "vectors.cosine_s": t("cosine_distance"),
        "vectors.degenerate": c["vectors.degenerate"],
        "langmodel.smooth_s": t("laplace_lm", "sgt_lm"),
        "langmodel.laplace_calls": n("langmodel", "laplace_lm"),
        "langmodel.sgt_calls": n("langmodel", "sgt_lm"),
        "langmodel.combine_s": t("combine_term_lms"),
        "langmodel.kld_s": t("kld"),
        "langmodel.union_vocab": c["langmodel.union_vocab"],
        "perturb.s": t("perturb"),
        "perturb.perturbations": c["perturb.perturbations"],
        "perturb.usable_ratio": _ratio(c["scoring.divergences"], c["perturb.perturbations"]),
        "scoring.batch_s": t("score_batch"),
        "scoring.select_s": t("select_dependent"),
        "scoring.unscoreable": c["scoring.unscoreable"],
        "retrieval.rank_s": t("rank"),
        "retrieval.candidates": c["retrieval.candidates"],
        "retrieval.unigram_calls": n("retrieval", "score_unigram_ql"),
        "retrieval.phrase_feature_calls": n("retrieval", "score_phrase_feature"),
        "retrieval.write_run_s": t("write_run"),
        "retrieval.read_run_s": t("read_run"),
        "evaluation.load_qrels_s": t("load_qrels"),
        "evaluation.evaluate_s": t("evaluate"),
        "evaluation.evaluate_calls": n("evaluation", "evaluate"),
        "evaluation.qrels_walked": c["evaluation.qrels_walked"],
        "evaluation.cv_s": t("cross_validate"),
        "evaluation.rank_passes": count_within(spans, "rank", "cross_validate"),
    }
    for layer in LAYERS + ("cli",):
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return m


def accounting_ok(
    walls: List[float], spans: List[float], selfs_ok: bool, overhead: float
) -> Tuple[bool, str]:
    """Do the traced self times along each stage's blocking path explain the
    stage's untraced wall time, within the measured tracing overhead?

    walls[k] is call k's median untraced wall time and spans[k] its median
    traced wall time, which is the sum of its self times along the blocking
    path (selfs_ok says that sum matched every span).  The calls may differ
    in total by the tracing overhead plus a noise allowance of 25% of the
    untraced time and 50 ms: one call on a shared machine varies by that
    much between passes.
    """
    if not selfs_ok:
        return False, "self times do not sum to their stage's span"
    gap = sum(abs(a - b) for a, b in zip(spans, walls))
    allowed = abs(overhead) + 0.25 * sum(walls) + 0.05
    if gap > allowed:
        return False, f"stages differ from untraced by {gap:.3f} s, allowed {allowed:.3f} s"
    return True, ""


def traced(termdep, cli_main: Callable, plan, seconds: float):
    """Alternate untraced and traced passes; returns the per-layer metrics,
    the untraced passes, their output digests, and the attempted/failed
    counts of the accounting check."""
    once = [1] * len(plan.calls)
    untraced: List[Pass] = []
    traced_calls: List[List[float]] = []
    per_pass: List[Dict[str, float]] = []
    digests = []
    selfs_ok = True
    start = time.perf_counter()
    while not per_pass or another_fits(start, len(per_pass), seconds):
        untraced.append(run_pass(cli_main, plan, once))
        digests.append(digest_tree(plan.out))
        tracer = Tracer()
        tracer.install(termdep)
        try:
            run_pass(cli_main, plan, once, tracer)
        finally:
            tracer.uninstall()
        spans = tracer.spans()
        roots = [s for s in spans if s[2] == "cli"]
        selfs = [blocking_self_times(spans, r) for r in roots]
        for root, parts in zip(roots, selfs):
            selfs_ok &= abs(sum(parts.values()) - (root[4] - root[3])) <= 1e-9 * len(spans)
        traced_calls.append([sum(parts.values()) for parts in selfs])
        self_s: Counter = Counter()
        for parts in selfs:
            self_s.update(parts)
        per_pass.append(layer_metrics(tracer, spans, self_s))
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    walls = per_call_medians(untraced)
    spans_med = [statistics.median(col) for col in zip(*traced_calls)]
    overhead = sum(spans_med) - sum(walls)
    metrics["trace.overhead_s"] = overhead
    ok, why = accounting_ok(walls, spans_med, selfs_ok, overhead)
    if not ok:
        print(f"check failed: trace accounting: {why}", file=sys.stderr)
    return metrics, untraced, digests, 1, int(not ok)
