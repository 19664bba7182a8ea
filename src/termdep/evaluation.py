"""Relevance evaluation (MAP, NDCG@10, P@10) and 3-fold parameter tuning.

Graded judgments come from TREC-format qrels; binary relevance for MAP
and P@10 is grade > 0.  Cross-validation deterministically splits the
qid-sorted query set round-robin into three folds, tunes (mu, theta) on
two folds, and reports the mean score of the held-out thirds.  One fold
walk does it for both callers.  At each grid point it reads, per fold, the
tuned measure's values of the fold's evaluated queries.  cross_validate
gets them by evaluating one run per grid point.  cross_validate_selective,
which `termdep tune` hands its bow and fd runs of each mu, scores each of
those runs once: a selective run takes fd's value for a selected query
and bow's for the rest.  Every mean is a math.fsum, which is exactly
rounded, so the order of a fold's values never changes a result.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .corpus import _check_qid, read_lines, write_lines
from .retrieval import RankedRun

MEASURES = ("map", "ndcg10", "p10")
FOLDS = 3
_GRADE = re.compile(r"[+-]?[0-9]+")
Ranked = Sequence[Tuple[str, float]]


@dataclass
class Qrels:
    """(qid, doc_id) -> relevance grade; negative input grades clamp to 0.

    The per-qid map of relevant documents and each qid's ideal DCG@10 are
    built from judgments at construction, so judgments must be complete
    before Qrels is made.
    """

    judgments: Dict[Tuple[str, str], int] = field(default_factory=dict)
    _relevant: Dict[str, Dict[str, int]] = field(init=False, repr=False, compare=False)
    _ideal_dcg: Dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._relevant = {}
        for (qid, doc_id), grade in self.judgments.items():
            by_doc = self._relevant.setdefault(qid, {})
            if grade > 0:
                by_doc[doc_id] = grade
        self._ideal_dcg = {qid: _ideal_dcg(rel) for qid, rel in self._relevant.items()}

    def relevant_docs(self, qid: str) -> Dict[str, int]:
        return dict(self._relevant.get(qid, {}))

    def ideal_dcg(self, qid: str) -> float:
        """DCG@10 of the best ranking of qid's relevant documents; 0.0 if it has none."""
        return self._ideal_dcg.get(qid, 0.0)


def load_qrels(path: str) -> Qrels:
    """Read `qid 0 doc_id grade` rows; later duplicates overwrite earlier.

    A qid _check_qid rejects is rejected with its path:line.
    """
    judgments: Dict[Tuple[str, str], int] = {}
    grades: Dict[str, int] = {}  # each distinct grade string is checked once
    qids: Set[str] = set()  # and each distinct qid, at its first row
    for lineno, line in read_lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected `qid 0 doc_id grade`")
        qid, _, doc_id, grade_s = parts
        if qid not in qids:
            _check_qid(qid, f"{path}:{lineno}")
            qids.add(qid)
        grade = grades.get(grade_s)
        if grade is None:
            grade = grades[grade_s] = _grade(grade_s, f"{path}:{lineno}")
        judgments[(qid, doc_id)] = grade
    return Qrels(judgments)


def _grade(grade_s: str, where: str) -> int:
    """grade_s as an ASCII integer at most 1000, a negative one clamped to 0."""
    try:
        # int() alone would also take `1_0` and non-ASCII digits.
        if not _GRADE.fullmatch(grade_s):
            raise ValueError(grade_s)
        grade = int(grade_s)  # fails on more digits than it converts
    except ValueError:
        raise ValueError(f"{where}: grade {grade_s!r} must be an ASCII integer") from None
    if grade > 1000:  # ten NDCG gains 2**g - 1 must sum to a finite float
        raise ValueError(f"{where}: grade {grade} exceeds 1000")
    return max(0, grade)


@dataclass
class MetricReport:
    """Per-query metric rows plus their means and evaluation diagnostics."""

    per_query: Dict[str, Dict[str, float]] = field(default_factory=dict)
    means: Dict[str, float] = field(default_factory=dict)
    diagnostics: List[str] = field(default_factory=list)


def _average_precision(ranked: Ranked, relevant: Dict[str, int], idcg: float) -> float:
    hits = 0
    precision_sum = 0.0
    for i, (doc_id, _) in enumerate(ranked, start=1):
        if doc_id in relevant:
            hits += 1
            precision_sum += hits / i
    # Unretrieved relevant documents count against recall via this divisor.
    return precision_sum / len(relevant)


def _precision_at_10(ranked: Ranked, relevant: Dict[str, int], idcg: float) -> float:
    return sum(1 for doc_id, _ in ranked[:10] if doc_id in relevant) / 10.0


def _ideal_dcg(relevant: Dict[str, int]) -> float:
    ideal = sorted(relevant.values(), reverse=True)[:10]
    return math.fsum((2**grade - 1) / math.log2(i + 1) for i, grade in enumerate(ideal, start=1))


def _ndcg_at_10(ranked: Ranked, relevant: Dict[str, int], idcg: float) -> float:
    dcg = 0.0
    for i, (doc_id, _) in enumerate(ranked[:10], start=1):
        grade = relevant.get(doc_id, 0)
        if grade > 0:
            dcg += (2**grade - 1) / math.log2(i + 1)
    return dcg / idcg


# Each measure of one query's (doc_id, score) list, given its relevant
# documents and its ideal DCG@10.
_MEASURE_FNS: Dict[str, Callable[[Ranked, Dict[str, int], float], float]] = {
    "map": _average_precision,
    "ndcg10": _ndcg_at_10,
    "p10": _precision_at_10,
}


def _mean(values: Sequence[float]) -> float:
    """The exactly rounded mean of values; 0.0 for none."""
    return math.fsum(values) / len(values) if values else 0.0


def _per_query(
    run: RankedRun, qrels: Qrels, measures: Sequence[str], diagnostics: List[str]
) -> Dict[str, Dict[str, float]]:
    """Each judged run query's values of measures, in run order.

    A query present in the run with no qrels rows at all is dropped, and
    one that is judged but has no relevant documents is excluded; each
    appends a line to diagnostics.
    """
    fns = [(measure, _MEASURE_FNS[measure]) for measure in measures]
    rows: Dict[str, Dict[str, float]] = {}
    for qid, entries in run.results.items():
        if qid not in qrels._relevant:
            diagnostics.append(f"qid {qid} has no judgments; dropped")
            continue
        relevant = qrels.relevant_docs(qid)
        if not relevant:
            diagnostics.append(f"qid {qid} has no relevant documents; excluded")
            continue
        idcg = qrels.ideal_dcg(qid)
        rows[qid] = {measure: fn(entries, relevant, idcg) for measure, fn in fns}
    return rows


def evaluate(run: RankedRun, qrels: Qrels) -> MetricReport:
    """Score every judged run query; means skip unjudged and zero-relevant qids.

    A query present in the run with no qrels rows at all is dropped with a
    diagnostic; one that is judged but has no relevant documents is
    excluded from the means, also with a diagnostic.
    """
    report = MetricReport()
    report.per_query = _per_query(run, qrels, MEASURES, report.diagnostics)
    for measure in MEASURES:
        report.means[measure] = _mean([m[measure] for m in report.per_query.values()])
    return report


def write_metric_report(report: MetricReport, path: str) -> None:
    """CSV rows `qid,map,ndcg10,p10` with a closing `all` summary row."""
    lines = ["qid,map,ndcg10,p10\n"]
    for qid in sorted(report.per_query):
        row = report.per_query[qid]
        lines.append(f"{qid},{row['map']:.6f},{row['ndcg10']:.6f},{row['p10']:.6f}\n")
    lines.append(
        "all,{:.6f},{:.6f},{:.6f}\n".format(
            report.means["map"], report.means["ndcg10"], report.means["p10"]
        )
    )
    write_lines(path, lines)


@dataclass(frozen=True)
class CvPlan:
    mu_grid: Tuple[float, ...]
    theta_grid: Tuple[int, ...]
    measure: str = "map"

    def __post_init__(self):
        if not self.mu_grid or not self.theta_grid:
            raise ValueError("mu and theta grids must be non-empty")
        bad = [mu for mu in self.mu_grid if not (math.isfinite(mu) and mu > 0)]
        if bad:
            raise ValueError(f"mu grid entries must be finite and > 0, got {bad[0]}")
        negative = [theta for theta in self.theta_grid if theta < 0]
        if negative:
            raise ValueError(f"theta grid entries must be >= 0, got {negative[0]}")
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")


@dataclass
class CvResult:
    measure: str
    fold_choices: List[Tuple[float, int]]
    fold_scores: List[float]
    mean_score: float
    diagnostics: List[str] = field(default_factory=list)


def assign_folds(qids: Sequence[str]) -> List[List[str]]:
    """FOLDS round-robin folds over sorted qids: deterministic, no seed required."""
    ordered = sorted(qids)
    return [ordered[i::FOLDS] for i in range(FOLDS)]


def _check_fold_count(n_queries: int) -> None:
    """Reject a batch too small to give every fold a query."""
    if n_queries < FOLDS:
        raise ValueError(f"need at least {FOLDS} queries, got {n_queries}")


def _grid(plan: CvPlan) -> List[Tuple[float, int]]:
    """The grid mu-major, each mu's thetas ascending, repeated entries kept."""
    return [(mu, theta) for mu in sorted(plan.mu_grid) for theta in sorted(plan.theta_grid)]


def cross_validate(
    qids: Sequence[str],
    run_for: Callable[[float, int], RankedRun],
    qrels: Qrels,
    plan: CvPlan,
) -> CvResult:
    """The fold walk over evaluate(run_for(mu, theta), qrels).

    run_for(mu, theta) must rank the full batch.  It is called once per
    grid point, in the grid's mu-major order; a qid the report lacks
    (unjudged, or with no relevant document) is left out of the fold
    means.  The diagnostics are every report's, first occurrence kept.
    """
    _check_fold_count(len(qids))
    folds = assign_folds(qids)
    diagnostics: List[str] = []

    def fold_values(mu: float, theta: int) -> List[List[float]]:
        report = evaluate(run_for(mu, theta), qrels)
        diagnostics.extend(d for d in report.diagnostics if d not in diagnostics)
        row = report.per_query
        return [[row[q][plan.measure] for q in fold if q in row] for fold in folds]

    return _walk(fold_values, plan, diagnostics)


def cross_validate_selective(
    qids: Sequence[str],
    order: Sequence[str],
    runs: Iterable[Tuple[float, Dict[str, RankedRun]]],
    qrels: Qrels,
    plan: CvPlan,
) -> CvResult:
    """The fold walk over selective runs, from each mu's bow and fd runs.

    runs yields (mu, {"bow": run, "fd": run}) for every mu of plan.mu_grid,
    as rank_mu_grid does; each run ranks the whole batch and is scored on
    plan.measure alone as it arrives.  The selective run at (mu, theta)
    ranks a query as fd does if it is among the first theta of order, else
    as bow does; a qid not in order is never selected.  Per mu and fold,
    the evaluated members are laid out once in order's order, unselectable
    ones last, so the fold's values at theta are fd's for a prefix and
    bow's for the rest.  The diagnostics are the last bow run's: each run
    holds the whole batch, so each gives the same.
    """
    _check_fold_count(len(qids))
    folds = assign_folds(qids)
    position = {qid: i for i, qid in enumerate(order)}
    unselectable = len(order)
    measures = (plan.measure,)
    diagnostics: List[str] = []
    columns: Dict[float, List[Tuple[List[int], List[float], List[float]]]] = {}
    for mu, by_mode in runs:
        diagnostics = []
        bow = _per_query(by_mode["bow"], qrels, measures, diagnostics)
        fd = _per_query(by_mode["fd"], qrels, measures, [])
        columns[mu] = []
        for fold in folds:
            members = sorted(
                (q for q in fold if q in bow), key=lambda q: position.get(q, unselectable)
            )
            selectable = [position[q] for q in members if q in position]
            fd_col = [fd[q][plan.measure] for q in members]
            bow_col = [bow[q][plan.measure] for q in members]
            columns[mu].append((selectable, fd_col, bow_col))

    def fold_values(mu: float, theta: int) -> List[List[float]]:
        spliced = []
        for selectable, fd_col, bow_col in columns[mu]:
            j = bisect_left(selectable, theta)
            spliced.append(fd_col[:j] + bow_col[j:])
        return spliced

    return _walk(fold_values, plan, diagnostics)


def _walk(
    fold_values: Callable[[float, int], List[List[float]]],
    plan: CvPlan,
    diagnostics: Sequence[str],
) -> CvResult:
    """Tune (mu, theta) per fold on the other folds, score on the held-out one.

    fold_values(mu, theta) gives, for each fold of assign_folds, the values
    of plan.measure of its evaluated members at that grid point.  It is
    called once per grid point, in _grid's order.  A training mean joins
    the other folds' values.  Grid ties resolve to the smaller mu, then the
    smaller theta.  diagnostics is copied into the result after the walk.
    """
    choices: List[Optional[Tuple[float, int]]] = [None] * FOLDS
    best_train = [0.0] * FOLDS
    held_out: List[List[float]] = [[]] * FOLDS
    for config in _grid(plan):
        per_fold = fold_values(*config)
        for k in range(FOLDS):
            score = _mean(sum(per_fold[:k] + per_fold[k + 1 :], []))
            if choices[k] is None or score > best_train[k]:
                choices[k], best_train[k], held_out[k] = config, score, per_fold[k]
    scores = [_mean(fold) for fold in held_out]
    return CvResult(
        measure=plan.measure,
        fold_choices=choices,
        fold_scores=scores,
        mean_score=_mean(scores),
        diagnostics=list(diagnostics),
    )
