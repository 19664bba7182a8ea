"""Seeded Zipf inputs for the benchmark workloads.

A corpus is fixed-length documents of Zipf-distributed background words.
Query sets are planted on top of it: each set owns a pool of terms
overwritten into the corpus at an exact count, a lexicon whose coverage
has planted gaps, queries drawn from the pool, documents carrying each
query as an exact phrase, and graded judgments.  Every count that sets the
cost of a stage (documents, tokens, planted occurrences, phrase documents,
query lengths) is fixed by the spec; the seed only chooses which words go
where, so different seeds cost about the same.

For each query, QuerySet.planted records the unscoreability reason it
planted, in the words the scorer uses, or "" for a query planted to be
scoreable.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

SINGLE = "single-term query"
NO_COVERAGE = "no synonym coverage"
NO_USABLE = "no usable perturbations"
ABSENT_TERM = "query term absent from corpus"


@dataclass(frozen=True)
class CorpusSpec:
    docs: int
    doc_len: int
    bg_vocab: int = 4000
    zipf_s: float = 1.05


@dataclass(frozen=True)
class QuerySpec:
    """One planted query set.

    pool terms are split, in order, into covered (synonym planted in the
    corpus), uncovered (no lexicon entry) and absent-synonym (entry whose
    synonym never occurs).  The first covered term's synonym is planted
    twice in identical contexts, so its window counts hold no hapax.
    """

    prefix: str
    queries: int
    pool: int
    term_cf: int
    syn_cf: int
    lengths: Tuple[int, ...] = (2, 3, 4)
    uncovered: int = 0
    absent_syn: int = 0
    phrase_docs: int = 3
    judged: int = 20
    gaps: Dict[str, int] = field(default_factory=dict)


@dataclass
class QuerySet:
    queries: str
    qrels: str
    planted: Dict[str, str]


@dataclass
class Inputs:
    corpus: str
    lexicon: str
    docs: int
    tokens: int
    sets: Dict[str, QuerySet]


class _Corpus:
    def __init__(self, spec: CorpusSpec, rng: random.Random):
        words = [f"b{r}" for r in range(1, spec.bg_vocab + 1)]
        cum: List[float] = []
        total = 0.0
        for r in range(1, spec.bg_vocab + 1):
            total += 1.0 / r**spec.zipf_s
            cum.append(total)
        self.rng = rng
        self.docs = [
            rng.choices(words, cum_weights=cum, k=spec.doc_len) for _ in range(spec.docs)
        ]
        self.taken: List[Set[int]] = [set() for _ in range(spec.docs)]

    def plant(self, tokens: List[str]) -> int:
        """Overwrite a free span of a random document; returns its index."""
        n = len(tokens)
        for _ in range(10000):
            d = self.rng.randrange(len(self.docs))
            p = self.rng.randrange(len(self.docs[d]) - n + 1)
            span = range(p, p + n)
            if not any(i in self.taken[d] for i in range(p - 1, p + n + 1)):
                self.docs[d][p : p + n] = tokens
                self.taken[d].update(span)
                return d
        raise RuntimeError("corpus too small for the planted terms")


def _plant_set(
    corpus: _Corpus, spec: QuerySpec, rng: random.Random, lexicon: Dict[str, str]
) -> Tuple[List[Tuple[str, str]], Dict[str, str], Dict[Tuple[str, str], int]]:
    pool = [f"{spec.prefix}{i}" for i in range(spec.pool)]
    n_cov = spec.pool - spec.uncovered - spec.absent_syn
    covered, uncovered, absent_syn = (
        pool[:n_cov],
        pool[n_cov : n_cov + spec.uncovered],
        pool[n_cov + spec.uncovered :],
    )
    for t in pool:
        for _ in range(spec.term_cf):
            corpus.plant([t])
    for i, t in enumerate(covered):
        syn = f"{spec.prefix}s{i}"
        lexicon[t] = syn
        if i == 0:
            # Identical contexts: every window count is 2, so SGT has no hapax.
            context = [f"{spec.prefix}c{k}" for k in range(10)]
            for _ in range(2):
                corpus.plant(context[:5] + [syn] + context[5:])
        else:
            for _ in range(spec.syn_cf):
                corpus.plant([syn])
    for i, t in enumerate(absent_syn):
        lexicon[t] = f"{spec.prefix}z{i}"

    reasons: List[str] = []
    for reason, count in spec.gaps.items():
        reasons.extend([reason] * count)
    reasons.extend([""] * (spec.queries - len(reasons)))
    rng.shuffle(reasons)
    # Terms go to the least-used candidates first, so every pool term ends
    # up in about as many queries (and phrase documents) whatever the seed.
    usage = {t: 0 for t in pool}

    def pick(candidates: List[str], k: int, exclude: Tuple[str, ...] = ()) -> List[str]:
        order = sorted((t for t in candidates if t not in exclude), key=lambda t: (usage[t], rng.random()))
        for t in order[:k]:
            usage[t] += 1
        return order[:k]

    queries: List[Tuple[str, str]] = []
    planted: Dict[str, str] = {}
    scoreable = 0
    for i, reason in enumerate(reasons):
        m = spec.lengths[(scoreable if not reason else i) % len(spec.lengths)]
        if reason == SINGLE:
            terms = pick(pool, 1)
        elif reason == NO_COVERAGE:
            terms = pick(uncovered, m)
        elif reason == NO_USABLE:
            terms = pick(absent_syn, 1) + pick(uncovered, m - 1)
        elif reason == ABSENT_TERM:
            terms = pick(covered, 1) + [f"{spec.prefix}x{i}"]
        else:
            first = pick(covered, 1)
            terms = first + pick(pool, m - 1, exclude=tuple(first))
            scoreable += 1
        rng.shuffle(terms)
        qid = f"{spec.prefix.upper()}{i + 1:03d}"
        queries.append((qid, " ".join(terms)))
        planted[qid] = reason

    qrels: Dict[Tuple[str, str], int] = {}
    for qid, text in queries:
        terms = text.split()
        if len(terms) < 2 or planted[qid] == ABSENT_TERM:
            continue
        for _ in range(spec.phrase_docs):
            d = corpus.plant(terms)
            qrels[(qid, f"D{d:05d}")] = 2
    return queries, planted, qrels


def _judge(
    corpus: _Corpus, queries: List[Tuple[str, str]], qrels: Dict[Tuple[str, str], int],
    judged: int, rng: random.Random,
) -> None:
    """Grade 1 for documents holding every query term, 0 to fill up to `judged`."""
    doc_sets = [set(d) for d in corpus.docs]
    for qid, text in queries:
        terms = set(text.split())
        partial: List[int] = []
        for d, words in enumerate(doc_sets):
            key = (qid, f"D{d:05d}")
            if key in qrels:
                continue
            hits = len(terms & words)
            if hits == len(terms):
                qrels[key] = 1
            elif hits:
                partial.append(d)
        have = sum(1 for q, _ in qrels if q == qid)
        for d in rng.sample(partial, max(0, min(len(partial), judged - have))):
            qrels[(qid, f"D{d:05d}")] = 0


def make_inputs(
    out_dir: str, seed: int, corpus_spec: CorpusSpec, query_specs: Dict[str, QuerySpec]
) -> Inputs:
    """Generate and write corpus, lexicon and one queries/qrels pair per set."""
    rng = random.Random(seed)
    corpus = _Corpus(corpus_spec, rng)
    lexicon: Dict[str, str] = {}
    planted_sets = {
        name: _plant_set(corpus, spec, rng, lexicon) for name, spec in query_specs.items()
    }
    os.makedirs(out_dir, exist_ok=True)
    sets: Dict[str, QuerySet] = {}
    for name, (queries, planted, qrels) in planted_sets.items():
        _judge(corpus, queries, qrels, query_specs[name].judged, rng)
        qpath = os.path.join(out_dir, f"{name}.queries.tsv")
        rpath = os.path.join(out_dir, f"{name}.qrels.txt")
        with open(qpath, "w", encoding="utf-8") as fh:
            fh.writelines(f"{qid}\t{text}\n" for qid, text in queries)
        with open(rpath, "w", encoding="utf-8") as fh:
            fh.writelines(f"{q} 0 {d} {g}\n" for (q, d), g in sorted(qrels.items()))
        sets[name] = QuerySet(qpath, rpath, planted)
    corpus_path = os.path.join(out_dir, "corpus.jsonl")
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for d, words in enumerate(corpus.docs):
            fh.write(json.dumps({"doc_id": f"D{d:05d}", "text": " ".join(words)}) + "\n")
    lexicon_path = os.path.join(out_dir, "lexicon.tsv")
    with open(lexicon_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{head}\t{syn}\n" for head, syn in sorted(lexicon.items()))
    return Inputs(
        corpus=corpus_path,
        lexicon=lexicon_path,
        docs=corpus_spec.docs,
        tokens=corpus_spec.docs * corpus_spec.doc_len,
        sets=sets,
    )
