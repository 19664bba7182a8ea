"""Dirichlet-smoothed query-likelihood ranking with exact-phrase features.

Four modes: bow ranks by unigram likelihood alone; sd mixes in exact
ordered adjacent-bigram features; fd mixes in the whole query as one
exact phrase; selective applies fd to a chosen qid set and bow to the
rest.  All scores are log-space sums, so they are finite, comparable,
and never exponentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .corpus import PositionalIndex, Query, phrase_occurrences

MODES = ("bow", "sd", "fd", "selective")


@dataclass(frozen=True)
class RankingConfig:
    """Knobs for one ranking pass; lambda_t + lambda_o must stay 1."""

    mu: float = 1000.0
    lambda_t: float = 0.85
    lambda_o: float = 0.15
    mode: str = "bow"
    top_k: int = 1000

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.lambda_t < 0 or self.lambda_o < 0:
            raise ValueError("feature weights must be non-negative")
        if abs(self.lambda_t + self.lambda_o - 1.0) > 1e-9:
            raise ValueError("lambda_t + lambda_o must sum to 1")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")


@dataclass
class RankedRun:
    """Per-query ranked document lists; list position is rank - 1."""

    results: Dict[str, List[Tuple[str, float]]] = field(default_factory=dict)

    def qids(self) -> List[str]:
        return list(self.results)


def _epsilon(index: PositionalIndex) -> float:
    # Floor for zero collection frequency; keeps log scores finite.
    return 1.0 / (2.0 * index.total_terms)


def score_unigram_ql(
    query: Query, doc_id: str, index: PositionalIndex, mu: float
) -> float:
    """Sum over query terms of c(t,q) * log((c(t,D) + mu*P(t|C)) / (|D| + mu))."""
    doc_len = index.doc_lengths[doc_id]
    eps = _epsilon(index)
    score = 0.0
    counts: Dict[str, int] = {}
    for t in query.terms:
        counts[t] = counts.get(t, 0) + 1
    for t, c_tq in counts.items():
        cf = index.collection_frequency(t)
        p_c = cf / index.total_terms if cf > 0 else eps
        c_td = index.term_frequency(t, doc_id)
        score += c_tq * math.log((c_td + mu * p_c) / (doc_len + mu))
    return score


def score_phrase_feature(
    terms: Sequence[str],
    doc_id: str,
    index: PositionalIndex,
    mu: float,
    per_doc: Optional[Dict[str, int]] = None,
) -> float:
    """Dirichlet log-probability of one exact ordered uninterrupted phrase.

    per_doc lets callers reuse a precomputed phrase_occurrences map when
    scoring the same phrase against many documents.
    """
    if len(terms) < 2:
        raise ValueError("phrase feature requires at least two terms")
    if per_doc is None:
        per_doc = phrase_occurrences(index, terms)
    doc_len = index.doc_lengths[doc_id]
    collection_count = sum(per_doc.values())
    eps = _epsilon(index)
    p_c = collection_count / index.total_terms if collection_count > 0 else eps
    c_pd = per_doc.get(doc_id, 0)
    return math.log((c_pd + mu * p_c) / (doc_len + mu))


def _candidates(query: Query, index: PositionalIndex) -> List[str]:
    seen: Set[str] = set()
    out: List[str] = []
    for t in set(query.terms):
        for doc_id in index.postings.get(t, ()):
            if doc_id not in seen:
                seen.add(doc_id)
                out.append(doc_id)
    return out


def rank(
    queries: Sequence[Query],
    index: PositionalIndex,
    config: RankingConfig,
    selected: Optional[Iterable[str]] = None,
) -> RankedRun:
    """Rank candidate documents (those sharing a term with the query).

    Mode selective scores qids in `selected` as fd and the rest as bow.
    Single-term queries take the plain unigram score in every mode, so
    their rankings are identical across modes by construction.  Ties
    break by doc_id ascending; at most top_k documents per query.
    """
    selected_set: Set[str] = set(selected) if selected is not None else set()
    if config.mode == "selective" and selected is None:
        raise ValueError("selective mode requires a selected qid set")
    known = {q.qid for q in queries}
    unknown = selected_set - known
    if unknown:
        raise ValueError(f"selected qids not in batch: {sorted(unknown)[:5]}")
    run = RankedRun()
    for query in queries:
        mode = config.mode
        if mode == "selective":
            mode = "fd" if query.qid in selected_set else "bow"
        docs = _candidates(query, index)
        phrase_maps: List[Tuple[Sequence[str], Dict[str, int]]] = []
        if query.m >= 2:
            if mode == "sd":
                for i in range(query.m - 1):
                    pair = query.terms[i : i + 2]
                    phrase_maps.append((pair, phrase_occurrences(index, pair)))
            elif mode == "fd":
                phrase_maps.append((query.terms, phrase_occurrences(index, query.terms)))
        scored: List[Tuple[str, float]] = []
        for doc_id in docs:
            unigram = score_unigram_ql(query, doc_id, index, config.mu)
            if query.m < 2 or mode == "bow":
                score = unigram
            else:
                phrase_part = sum(
                    score_phrase_feature(terms, doc_id, index, config.mu, per_doc)
                    for terms, per_doc in phrase_maps
                ) / len(phrase_maps)
                score = config.lambda_t * unigram + config.lambda_o * phrase_part
            scored.append((doc_id, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        run.results[query.qid] = scored[: config.top_k]
    return run


def splice_runs(bow: RankedRun, fd: RankedRun, selected: Iterable[str]) -> RankedRun:
    """Per query, fd's list if its qid is selected, else bow's.

    Given rank's bow and fd runs at one mu, this equals rank in selective
    mode at that mu, since selective scores each query as fd or bow alone.
    """
    selected_set = set(selected)
    return RankedRun(
        results={
            qid: (fd.results[qid] if qid in selected_set else entries)
            for qid, entries in bow.results.items()
        }
    )


def write_run(run: RankedRun, path: str, tag: str) -> None:
    """Write TREC run rows `qid Q0 doc_id rank score tag`, 6-decimal scores."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid, entries in run.results.items():
            for rank_pos, (doc_id, score) in enumerate(entries, start=1):
                fh.write(f"{qid} Q0 {doc_id} {rank_pos} {score:.6f} {tag}\n")


def read_run(path: str) -> RankedRun:
    """Read a TREC run file back into a RankedRun (tag discarded).

    A row with the wrong field count, a score that is not a finite number,
    or a (qid, doc_id) pair seen before is rejected with its path:line.
    """
    run = RankedRun()
    listed_by_qid: Dict[str, Set[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 whitespace-separated fields")
            qid, _, doc_id, _, raw, _ = parts
            try:
                score = float(raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: score {raw!r} is not a number") from None
            if not math.isfinite(score):
                raise ValueError(f"{path}:{lineno}: score {raw!r} is not finite")
            listed = listed_by_qid.get(qid)
            if listed is None:
                listed = listed_by_qid[qid] = set()
            if doc_id in listed:
                raise ValueError(f"{path}:{lineno}: doc_id {doc_id!r} repeated for qid {qid!r}")
            listed.add(doc_id)
            run.results.setdefault(qid, []).append((doc_id, score))
    return run
