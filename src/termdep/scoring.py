"""Batch non-compositionality scoring and selection of dependent queries.

A variant names either a vector weighting scheme ("vector:tfidf") or a
smoothing x combination pair ("lm:sgt:qsum"); 5 + 8 = 13 in total.  Each
query's score N_q is the mean semantic divergence between the query
phrase and its one-synonym perturbations; higher N_q = less
compositional = stronger term dependence.  score_batch is the one way
to a score: it builds its family's divergence function once per batch,
one closure that takes a query and a perturbation, and calls it for
every usable perturbation.  Its functools memos hold the one view of
each term's windows that the family reads (its TermVector or its
window_cf, or None when the term has no windows), each term's
Good-Turing model under lm:sgt, and the composed vector of the query
being scored; a term's WindowSet is dropped as soon as its view is
built.  Nothing else refers to the memos, so they are freed when the
batch returns.  A TermVector holds only its nonzero components, and an
absent component means 0 to compose_query_vector and cosine_distance;
under tfidf only a context term's in-window repeats add weight, so most
context terms have no component.  An LM comparison is one
langmodel.phrase_kld call over its terms' count tables (and their
Good-Turing models); it reads the comparison's vocabulary off those
tables and works per count pattern, not per word.
select_dependent picks the theta least-compositional scoreable queries
of a batch, theta being a count of queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache
from operator import attrgetter
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .corpus import PositionalIndex, Query
from .langmodel import COMBINATIONS, SMOOTHINGS, phrase_kld, sgt_lm
from .perturb import Perturbation, SynonymLexicon, perturb, targets
from .vectors import SCHEMES, build_term_vector, compose_query_vector, cosine_distance
from .windows import WindowSet, extract_windows

VARIANTS: Tuple[str, ...] = tuple(
    [f"vector:{s}" for s in SCHEMES]
    + [f"lm:{sm}:{cm}" for sm in SMOOTHINGS for cm in COMBINATIONS]
)


# A family's divergence function: a query and one of its perturbations in,
# their divergence out, appending any fallback it took to the diagnostics list.
Divergence = Callable[[Query, Perturbation, List[str]], float]

# A batch's per-term memo: a term in, the family's view of its windows out,
# or None when the term has no windows.
Memo = Callable[[str], Optional[Any]]


def parse_variant(variant: str) -> Tuple[str, ...]:
    """Split a variant identifier, validating against the closed registry."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {', '.join(VARIANTS)}")
    return tuple(variant.split(":"))


@dataclass
class NcdScore:
    """Per-query outcome of one variant's scoring pass.

    n_q is None exactly when the query is unscoreable; divergences lists
    the per-perturbation values behind the mean.
    """

    qid: str
    variant: str
    n_q: Optional[float]
    divergences: List[float] = field(default_factory=list)
    reason: str = ""
    diagnostics: List[str] = field(default_factory=list)

    @property
    def scoreable(self) -> bool:
        return self.n_q is not None

    @property
    def c_q(self) -> float:
        if self.n_q is None or self.n_q <= 0.0:
            raise ValueError(f"compositionality undefined for query {self.qid!r}")
        return 1.0 / self.n_q


def _memo(index: PositionalIndex, n: int, view: Callable[[WindowSet], Any]) -> Memo:
    """Extract a term's windows once per batch and keep only view(windows)."""

    def entry(term: str) -> Optional[Any]:
        ws = extract_windows(index, (term,), n=n)
        return view(ws) if ws.n_windows else None

    return cache(entry)


def _vector_divergence(memo: Memo) -> Divergence:
    # A query's perturbations are compared one after another, so keeping
    # the last v_q composes it once per query and holds no other.
    query_vector = lru_cache(maxsize=1)(
        lambda terms: compose_query_vector([memo(t) for t in terms])
    )

    def divergence(query: Query, p: Perturbation, diagnostics: List[str]) -> float:
        v_p = compose_query_vector([memo(t) for t in p.terms])
        d, degenerate = cosine_distance(query_vector(query.terms), v_p)
        if degenerate:
            diagnostics.append(
                f"zero-norm vector comparing against {p.replacement!r}; distance 1.0"
            )
        return d

    return divergence


def _lm_divergence(memo: Memo, smoothing: str, combination: str) -> Divergence:
    sgt = cache(lambda term: sgt_lm(memo(term)))

    def divergence(query: Query, p: Perturbation, diagnostics: List[str]) -> float:
        # phrase_kld compares over the union of both phrases' window
        # vocabularies; Laplace V and the Good-Turing unseen split are both
        # relative to it.
        terms = {*query.terms, p.replacement}
        tables = {t: memo(t) for t in terms}
        models = None
        if smoothing == "sgt":
            models = {t: sgt(t) for t in terms}
            for t in query.terms + p.terms:
                diagnostics.extend(d for d in sgt(t).diagnostics if d not in diagnostics)
        return phrase_kld(tables, query.terms, p.terms, combination, models)

    return divergence


def _score_one(
    query: Query,
    variant: str,
    lexicon: SynonymLexicon,
    memo: Memo,
    divergence: Divergence,
) -> NcdScore:
    """N_q of one query: the mean divergence over its usable perturbations.

    A query is unscoreable when it has one term, no synonym coverage, a
    term with no context windows, or no perturbation whose replacement has
    windows.
    """
    if query.m < 2:
        return NcdScore(query.qid, variant, None, reason="single-term query")
    perturbations = perturb(query, lexicon)
    if not perturbations:
        return NcdScore(query.qid, variant, None, reason="no synonym coverage")
    for term in query.terms:
        if memo(term) is None:
            return NcdScore(
                query.qid, variant, None, reason=f"query term {term!r} absent from corpus"
            )
    divergences: List[float] = []
    diagnostics: List[str] = []
    for p in perturbations:
        if memo(p.replacement) is None:
            diagnostics.append(f"perturbation {p.replacement!r} absent from corpus; skipped")
            continue
        divergences.append(divergence(query, p, diagnostics))
    if not divergences:
        return NcdScore(
            query.qid,
            variant,
            None,
            reason="no usable perturbations",
            diagnostics=diagnostics,
        )
    n_q = math.fsum(divergences) / len(divergences)
    return NcdScore(query.qid, variant, n_q, divergences, diagnostics=diagnostics)


def score_batch(
    queries: Sequence[Query],
    variant: str,
    index: PositionalIndex,
    lexicon: SynonymLexicon,
    n: int = 5,
    threads: int = 1,
) -> List[NcdScore]:
    """Score every query under one variant; one NcdScore per query, in order.

    An unknown variant or a negative window half-width n is rejected before
    any query is scored.  A ValueError raised while scoring one query
    surfaces as that query's unscoreable record rather than aborting the
    batch; any other exception is a fault and propagates.  Scoring runs
    serially: it is pure Python, so threads only contend for the
    interpreter lock.  threads is accepted for compatibility and does not
    change results.

    perturb.targets, all the terms whose windows perturbation compares, are
    inverted together in one pass before the first query.  The batch's
    memo then extracts a term's context windows once, reads the one view
    its family compares (the TermVector under the batch's scheme, built
    from the windows' stats, or the window_cf counts) and keeps only that
    view, or None for a term with no windows.  A TermVector holds only its
    nonzero components: an absent one means 0, and under tfidf only a
    context term's in-window repeats add weight.  The WindowSet, with its
    token slices and per-window stats, is dropped as soon as the view is
    built, so the batch holds one window set at a time, not the sum of
    every target's.
    lm:sgt also caches each term's Good-Turing model, built over its
    window_cf.  The vector family keeps the composed vector of the query
    being scored, keyed by its terms, so it is composed once per query.
    Laplace models depend on each comparison's vocabulary, so they are not
    cached.  The family's divergence function is built once per batch.
    Every cache is a functools closure that refers to none of the closures
    referring to it, so the caches are freed as soon as the batch returns,
    not at the next cyclic garbage collection.
    """
    family, *rest = parse_variant(variant)
    if n < 0:
        raise ValueError(f"window half-width must be >= 0, got {n}")
    if family == "vector":
        scheme = rest[0]
        memo = _memo(index, n, lambda ws: build_term_vector(ws, scheme))
        divergence = _vector_divergence(memo)
    else:
        memo = _memo(index, n, attrgetter("window_cf"))
        divergence = _lm_divergence(memo, *rest)
    index.invert(targets(queries, lexicon))
    scores: List[NcdScore] = []
    for query in queries:
        try:
            scores.append(_score_one(query, variant, lexicon, memo, divergence))
        except ValueError as exc:
            scores.append(NcdScore(query.qid, variant, None, reason=f"error: {exc}"))
    return scores


def select_dependent(scores: Sequence[NcdScore], theta: int) -> Tuple[List[str], List[str]]:
    """Pick the theta least-compositional (highest N_q) scoreable queries.

    theta is a count of queries and must be non-negative.  Returns
    (selected qids in descending N_q order, diagnostics).  Ties break by
    qid ascending; unscoreable queries are never selected; a theta beyond
    the scoreable count selects all scoreable queries with a diagnostic.
    """
    if theta < 0:
        raise ValueError(f"theta must be non-negative, got {theta}")
    scoreable = [s for s in scores if s.scoreable]
    diagnostics: List[str] = []
    if theta > len(scoreable):
        diagnostics.append(
            f"theta={theta} exceeds {len(scoreable)} scoreable queries; selecting all"
        )
    ranked = sorted(scoreable, key=lambda s: (-s.n_q, s.qid))
    return [s.qid for s in ranked[:theta]], diagnostics
