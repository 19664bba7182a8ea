"""Corpus ingestion, tokenization, and the positional inverted index.

Documents arrive as JSON-lines ({"doc_id": ..., "text": ...}), queries as
TSV (qid<TAB>text), stopwords as one word per line.  The index keeps full
position lists per (term, document) so exact ordered phrase matching and
Dirichlet ranking can share one structure.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str, stopwords: Optional[Set[str]] = None) -> List[str]:
    """Lowercase and split on non-alphanumeric runs; digits kept, no stemming.

    When a stopword set is given, matching tokens are dropped.  Empty input
    yields an empty list.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    return tokens


@dataclass(frozen=True)
class Document:
    doc_id: str
    tokens: Tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Query:
    """A query as an ordered term sequence (surface order is meaningful)."""

    qid: str
    raw: str
    terms: Tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.terms)


class CorpusFormatError(ValueError):
    """Raised for malformed or duplicate corpus/query/stopword records."""


def _has_whitespace(identifier: str) -> bool:
    # Run and qrels files are split on whitespace, so IDs must not hold any.
    return any(ch.isspace() for ch in identifier)


@dataclass
class PositionalIndex:
    """Positional inverted index plus the collection statistics ranking needs.

    postings maps term -> {doc_id: ascending position list}, documents in
    ingestion order; collection_counts maps term -> its total occurrences.
    Both are filled in by add_document, so frequency lookups are constant
    time.  The index is immutable by convention once built; nothing
    mutates it after ingestion.
    """

    postings: Dict[str, Dict[str, List[int]]] = field(default_factory=dict)
    collection_counts: Dict[str, int] = field(default_factory=dict)
    doc_lengths: Dict[str, int] = field(default_factory=dict)
    doc_tokens: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    total_terms: int = 0

    @property
    def doc_count(self) -> int:
        return len(self.doc_lengths)

    @property
    def vocab_size(self) -> int:
        return len(self.postings)

    def collection_frequency(self, term: str) -> int:
        return self.collection_counts.get(term, 0)

    def term_frequency(self, term: str, doc_id: str) -> int:
        by_doc = self.postings.get(term)
        if by_doc is None:
            return 0
        return len(by_doc.get(doc_id, ()))

    def add_document(self, doc: Document) -> None:
        if doc.doc_id in self.doc_lengths:
            raise CorpusFormatError(f"duplicate doc_id {doc.doc_id!r}")
        self.doc_lengths[doc.doc_id] = doc.length
        self.doc_tokens[doc.doc_id] = doc.tokens
        self.total_terms += doc.length
        positions: Dict[str, List[int]] = {}
        for pos, term in enumerate(doc.tokens):
            positions.setdefault(term, []).append(pos)
        for term, plist in positions.items():
            self.postings.setdefault(term, {})[doc.doc_id] = plist
            self.collection_counts[term] = self.collection_counts.get(term, 0) + len(plist)

    def documents(self) -> Iterable[Document]:
        for doc_id, tokens in self.doc_tokens.items():
            yield Document(doc_id, tokens)


def ingest_corpus(
    path: str,
    format: str = "jsonl",
    stopwords: Optional[Set[str]] = None,
    stop_documents: bool = False,
) -> PositionalIndex:
    """Read a corpus file into a PositionalIndex.

    Only the JSON-lines format is defined: one object per line with string
    fields "doc_id" and "text".  Documents are tokenized without stopword
    removal unless stop_documents is set (the stopword list is meant for
    queries; stopping documents is an opt-in for window extraction).
    """
    if format != "jsonl":
        raise CorpusFormatError(f"unknown corpus format {format!r}")
    index = PositionalIndex()
    doc_stop = stopwords if stop_documents else None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict) or "doc_id" not in record or "text" not in record:
                raise CorpusFormatError(
                    f"{path}:{lineno}: record must be an object with doc_id and text"
                )
            doc_id = record["doc_id"]
            if not isinstance(doc_id, str) or not doc_id:
                raise CorpusFormatError(f"{path}:{lineno}: doc_id must be a non-empty string")
            if _has_whitespace(doc_id):
                raise CorpusFormatError(f"{path}:{lineno}: doc_id {doc_id!r} contains whitespace")
            if not isinstance(record["text"], str):
                raise CorpusFormatError(f"{path}:{lineno}: text must be a string")
            tokens = tuple(tokenize(record["text"], doc_stop))
            try:
                index.add_document(Document(doc_id, tokens))
            except CorpusFormatError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
    return index


def load_queries(path: str, stopwords: Optional[Set[str]] = None) -> List[Query]:
    """Read qid<TAB>text rows; stopwords are removed from queries, never stemmed."""
    queries: List[Query] = []
    seen: Set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise CorpusFormatError(f"{path}:{lineno}: expected qid<TAB>text")
            qid, text = line.split("\t", 1)
            qid = qid.strip()
            if not qid:
                raise CorpusFormatError(f"{path}:{lineno}: empty qid")
            if _has_whitespace(qid):
                raise CorpusFormatError(f"{path}:{lineno}: qid {qid!r} contains whitespace")
            if qid in seen:
                raise CorpusFormatError(f"{path}:{lineno}: duplicate qid {qid!r}")
            seen.add(qid)
            terms = tuple(tokenize(text, stopwords))
            if not terms:
                raise CorpusFormatError(
                    f"{path}:{lineno}: query {qid!r} has no terms after stopword removal"
                )
            queries.append(Query(qid=qid, raw=text, terms=terms))
    return queries


def load_stopwords(path: str) -> Set[str]:
    words: Set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            word = line.strip().lower()
            if word:
                words.add(word)
    return words


def phrase_occurrences(index: PositionalIndex, terms: Sequence[str]) -> Dict[str, int]:
    """Count exact ordered, uninterrupted occurrences of `terms` per document.

    A single term reduces to plain term frequency.  Documents with zero
    occurrences are omitted from the result.
    """
    if not terms:
        raise ValueError("phrase_occurrences requires at least one term")
    first = index.postings.get(terms[0])
    if first is None:
        return {}
    if len(terms) == 1:
        return {doc_id: len(positions) for doc_id, positions in first.items()}
    rest: List[Dict[str, List[int]]] = []
    for term in terms[1:]:
        by_doc = index.postings.get(term)
        if by_doc is None:
            return {}
        rest.append(by_doc)
    counts: Dict[str, int] = {}
    for doc_id, positions in first.items():
        doc_sets = []
        for by_doc in rest:
            later = by_doc.get(doc_id)
            if later is None:
                break
            doc_sets.append(set(later))
        else:
            n = sum(
                1
                for p in positions
                if all(p + offset + 1 in doc_sets[offset] for offset in range(len(doc_sets)))
            )
            if n:
                counts[doc_id] = n
    return counts
