"""Dirichlet-smoothed query-likelihood ranking with exact-phrase features.

Four modes: bow ranks by unigram likelihood alone; sd mixes in exact
ordered adjacent-bigram features; fd mixes in the whole query as one
exact phrase; selective applies fd to a chosen qid set and bow to the
rest.  All scores are log-space sums, so they are finite, comparable,
and never exponentiated.

Ranking reads the index once per query into a feature table: the
candidates, their |D|, and per query term and phrase its P(.|C) and a
count column over the candidates.  None of it depends on mu, so one
arithmetic pass turns a table and a mu into unigram and mixed scores.
rank builds the tables and makes one pass; rank_mu_grid builds them once
and makes one pass per mu of a tuning grid, scoring bow and fd together.
Both invert every query term of the batch in one pass over the tokens
before the first table.
They are the only way to a score: no per-document score view exists.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .corpus import PositionalIndex, Query, _check_qid, phrase_occurrences, read_lines, write_lines

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


def _p_c(count: int, index: PositionalIndex) -> float:
    # P(x|C) of a term or phrase counted `count` times in the collection;
    # a zero count takes the floor 1/(2|C|), which keeps log scores finite.
    return count / index.total_terms if count > 0 else 1.0 / (2.0 * index.total_terms)


class _FeatureTable:
    """Everything ranking one query reads from the index; nothing depends on mu.

    docs are the candidates in _candidates order and doc_lens their |D|;
    terms holds (c(t,q), P(t|C), tf column) per distinct query term in
    first-occurrence order; phrases holds (P(p|C), count column) per
    phrase feature.  Columns align with docs.
    """

    __slots__ = ("docs", "doc_lens", "terms", "phrases")

    def __init__(self, query: Query, index: PositionalIndex, mode: str):
        """The table of `query` ranked in mode bow, sd or fd."""
        if query.m < 2 or mode == "bow":
            phrases: List[Sequence[str]] = []
        elif mode == "sd":
            phrases = [query.terms[i : i + 2] for i in range(query.m - 1)]
        else:
            phrases = [query.terms]
        maps = [phrase_occurrences(index, terms) for terms in phrases]
        self.docs = docs = _candidates(query, index)
        self.doc_lens = [len(index.tokens(doc_id)) for doc_id in docs]
        self.terms = []
        for t, c_tq in Counter(query.terms).items():
            by_doc = index.positions(t)
            tf = [len(by_doc.get(doc_id, ())) for doc_id in docs]
            self.terms.append((c_tq, _p_c(index.collection_frequency(t), index), tf))
        self.phrases = [
            (_p_c(sum(per_doc.values()), index), [per_doc.get(doc_id, 0) for doc_id in docs])
            for per_doc in maps
        ]


def _scores(
    table: _FeatureTable, mu: float, lambda_t: float, lambda_o: float
) -> Tuple[List[float], Optional[List[float]]]:
    """The unigram score of every candidate at mu and, if the query has
    phrase features, its mixed dependence score (None otherwise).

    The unigram score starts at 0.0 and adds c(t,q) * log((c(t,D) +
    mu*P(t|C)) / (|D| + mu)) term by term; the phrase part is the sum of
    the phrase log-probabilities over their count; the mixture is
    lambda_t * unigram + lambda_o * phrase part.
    """
    log, fsum = math.log, math.fsum
    denoms = [doc_len + mu for doc_len in table.doc_lens]
    unigram = [0.0] * len(denoms)
    for c_tq, p_c, tf in table.terms:
        mu_p = mu * p_c
        unigram = [u + c_tq * log((c + mu_p) / d) for u, c, d in zip(unigram, tf, denoms)]
    if not table.phrases:
        return unigram, None
    columns = []
    for p_c, counts in table.phrases:
        mu_p = mu * p_c
        columns.append([log((c + mu_p) / d) for c, d in zip(counts, denoms)])
    n = len(columns)
    mixed = [
        lambda_t * u + lambda_o * (fsum(parts) / n) for u, parts in zip(unigram, zip(*columns))
    ]
    return unigram, mixed


def _ranked(docs: List[str], scores: List[float], top_k: int) -> List[Tuple[str, float]]:
    # Descending score, ties by doc_id ascending, at most top_k entries;
    # negating a float is exact, so the scores come back unchanged.
    order = sorted([(-score, doc_id) for doc_id, score in zip(docs, scores)])
    return [(doc_id, -neg) for neg, doc_id in order[:top_k]]


def _candidates(query: Query, index: PositionalIndex) -> List[str]:
    seen: Set[str] = set()
    out: List[str] = []
    for t in set(query.terms):
        for doc_id in index.positions(t):
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
    index.invert(t for q in queries for t in q.terms)
    run = RankedRun()
    for query in queries:
        mode = config.mode
        if mode == "selective":
            mode = "fd" if query.qid in selected_set else "bow"
        table = _FeatureTable(query, index, mode)
        unigram, mixed = _scores(table, config.mu, config.lambda_t, config.lambda_o)
        run.results[query.qid] = _ranked(
            table.docs, unigram if mixed is None else mixed, config.top_k
        )
    return run


def rank_mu_grid(
    queries: Sequence[Query],
    index: PositionalIndex,
    mu_grid: Iterable[float],
    config: RankingConfig,
) -> Iterator[Tuple[float, RankedRun, RankedRun]]:
    """Yield (mu, bow run, fd run) for each mu of mu_grid, in its order.

    Each pair equals rank in bow and in fd mode with config's weights and
    top_k at that mu (config's own mu and mode are not used).  The
    features are gathered once per query before the first mu; each mu is
    then one arithmetic pass that scores bow and fd together.  A mu's runs
    are dropped as the next mu starts, so a caller that drops its own
    before asking for the next mu holds one mu's runs at a time.
    """
    index.invert(t for q in queries for t in q.terms)
    tables = [(query.qid, _FeatureTable(query, index, "fd")) for query in queries]
    for mu in mu_grid:
        at_mu = replace(config, mu=mu)
        bow, fd = RankedRun(), RankedRun()
        for qid, table in tables:
            unigram, mixed = _scores(table, at_mu.mu, at_mu.lambda_t, at_mu.lambda_o)
            bow.results[qid] = _ranked(table.docs, unigram, at_mu.top_k)
            fd.results[qid] = (
                bow.results[qid] if mixed is None else _ranked(table.docs, mixed, at_mu.top_k)
            )
        yield mu, bow, fd


def write_run(run: RankedRun, path: str, tag: str) -> None:
    """Write TREC run rows `qid Q0 doc_id rank score tag`, 6-decimal scores."""
    write_lines(
        path,
        (
            f"{qid} Q0 {doc_id} {rank_pos} {score:.6f} {tag}\n"
            for qid, entries in run.results.items()
            for rank_pos, (doc_id, score) in enumerate(entries, start=1)
        ),
    )


def read_run(path: str) -> RankedRun:
    """Read a TREC run file back into a RankedRun (tag discarded).

    A row with the wrong field count, a qid _check_qid rejects, a score
    that is not a finite number in ASCII without `_` separators, or a (qid,
    doc_id) pair seen before is rejected with its path:line.
    """
    run = RankedRun()
    listed_by_qid: Dict[str, Set[str]] = {}
    qid = None
    for lineno, line in read_lines(path):
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"{path}:{lineno}: expected 6 whitespace-separated fields")
        row_qid, _, doc_id, _, raw, _ = parts
        try:
            # float() alone would also take `1_0.5` and non-ASCII digits.
            if "_" in raw or not raw.isascii():
                raise ValueError(raw)
            score = float(raw)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: score {raw!r} is not a number") from None
        if not math.isfinite(score):
            raise ValueError(f"{path}:{lineno}: score {raw!r} is not finite")
        if row_qid != qid:  # a qid's rows usually come together: look its lists up once
            qid = row_qid
            _check_qid(qid, f"{path}:{lineno}")
            listed = listed_by_qid.setdefault(qid, set())
            entries = run.results.setdefault(qid, [])
        if doc_id in listed:
            raise ValueError(f"{path}:{lineno}: doc_id {doc_id!r} repeated for qid {qid!r}")
        listed.add(doc_id)
        entries.append((doc_id, score))
    return run
