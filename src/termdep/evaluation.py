"""Relevance evaluation (MAP, NDCG@10, P@10) and 3-fold parameter tuning.

Graded judgments come from TREC-format qrels; binary relevance for MAP
and P@10 is grade > 0.  Cross-validation deterministically splits the
qid-sorted query set round-robin into three folds, tunes (mu, theta) on
two folds, and reports the mean score of the held-out thirds.  It reads a
value table: per grid point, each evaluated query's value of the tuned
measure.  cross_validate fills the table by evaluating one run per grid
point; a caller that knows the runs' structure, such as tune's selective
runs, may fill it any way that gives the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from .corpus import read_lines, write_lines
from .retrieval import RankedRun

MEASURES = ("map", "ndcg10", "p10")
FOLDS = 3


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

    def judged_qids(self) -> List[str]:
        return sorted(self._relevant)

    def relevant_docs(self, qid: str) -> Dict[str, int]:
        return dict(self._relevant.get(qid, {}))

    def ideal_dcg(self, qid: str) -> float:
        """DCG@10 of the best ranking of qid's relevant documents; 0.0 if it has none."""
        return self._ideal_dcg.get(qid, 0.0)


def load_qrels(path: str) -> Qrels:
    """Read `qid 0 doc_id grade` rows; later duplicates overwrite earlier."""
    judgments: Dict[Tuple[str, str], int] = {}
    for lineno, line in read_lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected `qid 0 doc_id grade`")
        qid, _, doc_id, grade_s = parts
        try:
            grade = int(grade_s)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: grade must be an integer") from exc
        if grade > 1000:  # ten NDCG gains 2**g - 1 must sum to a finite float
            raise ValueError(f"{path}:{lineno}: grade {grade} exceeds 1000")
        judgments[(qid, doc_id)] = max(0, grade)
    return Qrels(judgments)


@dataclass
class MetricReport:
    """Per-query metric rows plus their means and evaluation diagnostics."""

    per_query: Dict[str, Dict[str, float]] = field(default_factory=dict)
    means: Dict[str, float] = field(default_factory=dict)
    diagnostics: List[str] = field(default_factory=list)


def _average_precision(ranked: Sequence[str], relevant: Dict[str, int]) -> float:
    hits = 0
    precision_sum = 0.0
    for i, doc_id in enumerate(ranked, start=1):
        if doc_id in relevant:
            hits += 1
            precision_sum += hits / i
    # Unretrieved relevant documents count against recall via this divisor.
    return precision_sum / len(relevant)


def _precision_at_10(ranked: Sequence[str], relevant: Dict[str, int]) -> float:
    return sum(1 for doc_id in ranked[:10] if doc_id in relevant) / 10.0


def _ideal_dcg(relevant: Dict[str, int]) -> float:
    ideal = sorted(relevant.values(), reverse=True)[:10]
    return math.fsum((2**grade - 1) / math.log2(i + 1) for i, grade in enumerate(ideal, start=1))


def _ndcg_at_10(ranked: Sequence[str], relevant: Dict[str, int], idcg: float) -> float:
    dcg = 0.0
    for i, doc_id in enumerate(ranked[:10], start=1):
        grade = relevant.get(doc_id, 0)
        if grade > 0:
            dcg += (2**grade - 1) / math.log2(i + 1)
    return dcg / idcg


def evaluate(run: RankedRun, qrels: Qrels) -> MetricReport:
    """Score every judged run query; means skip unjudged and zero-relevant qids.

    A query present in the run with no qrels rows at all is dropped with a
    diagnostic; one that is judged but has no relevant documents is
    excluded from the means, also with a diagnostic.
    """
    report = MetricReport()
    judged = set(qrels.judged_qids())
    for qid, entries in run.results.items():
        if qid not in judged:
            report.diagnostics.append(f"qid {qid} has no judgments; dropped")
            continue
        relevant = qrels.relevant_docs(qid)
        if not relevant:
            report.diagnostics.append(f"qid {qid} has no relevant documents; excluded")
            continue
        ranked = [doc_id for doc_id, _ in entries]
        report.per_query[qid] = {
            "map": _average_precision(ranked, relevant),
            "p10": _precision_at_10(ranked, relevant),
            "ndcg10": _ndcg_at_10(ranked, relevant, qrels.ideal_dcg(qid)),
        }
    for measure in MEASURES:
        rows = [m[measure] for m in report.per_query.values()]
        report.means[measure] = math.fsum(rows) / len(rows) if rows else 0.0
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
    """cross_validate_table over evaluate(run_for(mu, theta), qrels).

    run_for(mu, theta) must rank the full batch.  It is called once per
    grid point, in the grid's mu-major order; the diagnostics are every
    report's, first occurrence kept.
    """
    _check_fold_count(len(qids))
    values: Dict[Tuple[float, int], Dict[str, float]] = {}
    diagnostics: List[str] = []
    for mu, theta in _grid(plan):
        report = evaluate(run_for(mu, theta), qrels)
        diagnostics.extend(d for d in report.diagnostics if d not in diagnostics)
        values[(mu, theta)] = {qid: row[plan.measure] for qid, row in report.per_query.items()}
    return cross_validate_table(qids, values, plan, diagnostics)


def cross_validate_table(
    qids: Sequence[str],
    values: Mapping[Tuple[float, int], Mapping[str, float]],
    plan: CvPlan,
    diagnostics: Sequence[str],
) -> CvResult:
    """Tune (mu, theta) per fold on the other folds, score on the held-out one.

    values[(mu, theta)] maps each evaluated qid to its plan.measure value
    at that grid point; a qid it lacks (unjudged, or with no relevant
    document) is left out of the fold means.  Fold membership only
    controls which values feed tuning versus testing.  Grid ties resolve
    to the smaller mu, then the smaller theta.  diagnostics is copied into
    the result.
    """
    _check_fold_count(len(qids))
    folds = assign_folds(qids)
    grid = _grid(plan)

    def fold_mean(config: Tuple[float, int], members: Sequence[str]) -> float:
        row = values[config]
        picked = [row[q] for q in members if q in row]
        return math.fsum(picked) / len(picked) if picked else 0.0

    choices: List[Tuple[float, int]] = []
    scores: List[float] = []
    for held_out in range(FOLDS):
        train = [q for i, fold in enumerate(folds) if i != held_out for q in fold]
        best = grid[0]
        best_score = fold_mean(best, train)
        for config in grid[1:]:
            score = fold_mean(config, train)
            if score > best_score:
                best, best_score = config, score
        choices.append(best)
        scores.append(fold_mean(best, folds[held_out]))
    return CvResult(
        measure=plan.measure,
        fold_choices=choices,
        fold_scores=scores,
        mean_score=math.fsum(scores) / len(scores),
        diagnostics=list(diagnostics),
    )
