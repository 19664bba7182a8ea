"""Synonym lexicon loading and one-term-at-a-time query perturbation.

The lexicon is a flat TSV file standing in for a thesaurus: headword,
tab, comma-separated synonyms ordered best-first.  Perturbation replaces
one query position at a time with that term's first synonym; positions
without coverage are skipped, so a query yields between 0 and m
perturbations.  targets names every term those perturbations compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .corpus import Query, read_lines, tokenize


class LexiconFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Perturbation:
    """The query with position j (1-based) swapped for a synonym."""

    j: int
    original: str
    replacement: str
    terms: Tuple[str, ...]


@dataclass
class SynonymLexicon:
    entries: Dict[str, List[str]]

    def first_synonym(self, term: str) -> str | None:
        synonyms = self.entries.get(term.lower())
        return synonyms[0] if synonyms else None


def load_lexicon(path: str) -> SynonymLexicon:
    """Parse headword<TAB>syn1,syn2,... rows into a lexicon.

    Headwords and synonyms are normalized like corpus tokens and must stay
    single words; a synonym equal to its headword is rejected.  Duplicate
    headword lines merge, preserving first-listed synonym order.
    """
    entries: Dict[str, List[str]] = {}
    for lineno, line in read_lines(path):
        if "\t" not in line:
            raise LexiconFormatError(f"{path}:{lineno}: expected headword<TAB>synonyms")
        head_raw, syn_raw = line.split("\t", 1)
        head_tokens = tokenize(head_raw)
        if len(head_tokens) != 1:
            raise LexiconFormatError(
                f"{path}:{lineno}: headword must be a single word, got {head_raw!r}"
            )
        head = head_tokens[0]
        merged = entries.setdefault(head, [])
        for part in syn_raw.split(","):
            syn_tokens = tokenize(part)
            if not syn_tokens:
                raise LexiconFormatError(f"{path}:{lineno}: empty synonym entry")
            if len(syn_tokens) != 1:
                raise LexiconFormatError(
                    f"{path}:{lineno}: multiword synonym {part.strip()!r} not allowed"
                )
            syn = syn_tokens[0]
            if syn == head:
                raise LexiconFormatError(f"{path}:{lineno}: synonym equals headword {head!r}")
            if syn not in merged:
                merged.append(syn)
    return SynonymLexicon(entries=entries)


def perturb(query: Query, lexicon: SynonymLexicon) -> List[Perturbation]:
    """One perturbation per covered query position, in position order.

    Each result swaps exactly one term for its first synonym.  Single-term
    queries cannot be perturbed meaningfully and are rejected; a query
    with no covered position yields an empty list, which callers treat as
    unscoreable.
    """
    if query.m < 2:
        raise ValueError(f"single-term query {query.qid!r} unscoreable")
    out: List[Perturbation] = []
    for idx, term in enumerate(query.terms):
        synonym = lexicon.first_synonym(term)
        if synonym is None:
            continue
        terms = query.terms[:idx] + (synonym,) + query.terms[idx + 1 :]
        out.append(
            Perturbation(j=idx + 1, original=term, replacement=synonym, terms=terms)
        )
    return out


def targets(queries: Sequence[Query], lexicon: Optional[SynonymLexicon]) -> Set[str]:
    """Every query term plus, given a lexicon, each term's first synonym.

    These are the terms whose windows perturbation compares: score_batch
    inverts them, and `termdep windows` exports them, iterated sorted.
    """
    terms = {t for q in queries for t in q.terms}
    synonyms = map(lexicon.first_synonym, terms) if lexicon is not None else ()
    return terms.union(filter(None, synonyms))
