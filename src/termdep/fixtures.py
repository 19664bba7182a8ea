"""Deterministic bundled fixtures for demos and the acceptance suite.

Two synthetic corpora:

planted_pair
    A 24-document corpus carrying one idiomatic phrase ("red tape") whose
    perturbation ("scarlet tape") lives in completely disjoint contexts,
    and one literal phrase ("tax office") whose perturbation ("tax
    bureau") lives in mirror-image contexts.  Every variant must score
    the idiom as less compositional than the literal phrase.

retrieval_fixture
    200 documents, 20 two-term queries (10 phrase-dependent, 10
    compositional), graded qrels, and a synonym lexicon.  Judged
    documents within a query share identical unigram profiles and differ
    only in term adjacency, so bag-of-words ranking resolves them by
    doc_id while phrase features break the tie on content: exact-phrase
    treatment fixes exactly the dependent half and harms exactly the
    compositional half.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .corpus import write_lines


@dataclass
class Fixture:
    """In-memory fixture: docs, queries, lexicon rows, graded judgments."""

    docs: List[Tuple[str, str]]
    queries: List[Tuple[str, str]]
    lexicon: Dict[str, List[str]]
    qrels: Dict[Tuple[str, str], int]

    def write(self, out_dir: str) -> Dict[str, str]:
        """Write corpus.jsonl, queries.tsv, lexicon.tsv, qrels.txt; return paths."""
        os.makedirs(out_dir, exist_ok=True)
        paths = {
            "corpus": os.path.join(out_dir, "corpus.jsonl"),
            "queries": os.path.join(out_dir, "queries.tsv"),
            "lexicon": os.path.join(out_dir, "lexicon.tsv"),
            "qrels": os.path.join(out_dir, "qrels.txt"),
        }
        write_lines(
            {
                paths["corpus"]: (
                    json.dumps({"doc_id": doc_id, "text": text}) + "\n"
                    for doc_id, text in self.docs
                ),
                paths["queries"]: (f"{qid}\t{text}\n" for qid, text in self.queries),
                paths["lexicon"]: (
                    f"{head}\t{','.join(synonyms)}\n" for head, synonyms in self.lexicon.items()
                ),
                paths["qrels"]: (
                    f"{qid} 0 {doc_id} {grade}\n" for (qid, doc_id), grade in self.qrels.items()
                ),
            }
        )
        return paths


def planted_pair() -> Fixture:
    """Corpus where "red tape" is non-compositional and "tax office" is not.

    "tax office" / "tax bureau" contexts are exact mirrors (same filler
    words, same counts), so the perturbed phrase vector stays close and
    the perturbed language model stays near-identical.  "scarlet" lives
    in its own vocabulary, so perturbing "red tape" lands in disjoint
    context space.  Doubled fillers keep log-tf weights nonzero; the
    one-off words keep hapaxes around for Good-Turing smoothing.
    """
    docs: List[Tuple[str, str]] = []
    for k in range(1, 7):
        docs.append((f"office-{k}", f"tax office paper{k} paper{k} clerk formao{k}"))
    for k in range(1, 7):
        docs.append((f"bureau-{k}", f"tax bureau paper{k} paper{k} clerk formab{k}"))
    for k in range(1, 7):
        docs.append((f"idiom-{k}", f"red tape delay{k} delay{k} permit formrt{k}"))
    for k in range(1, 7):
        docs.append((f"cloth-{k}", f"scarlet thread{k} thread{k} silk dye formsc{k}"))
    return Fixture(
        docs=docs,
        queries=[("nc1", "red tape"), ("c1", "tax office")],
        lexicon={"red": ["scarlet"], "office": ["bureau"]},
        qrels={},
    )


_FILLERS = ["about", "report", "item", "note", "page", "entry", "record", "file"]


def _judged_docs(qid_num: str, a: str, b: str, adjacent_relevant: bool) -> List[Tuple[str, str, int]]:
    """Five equal-profile judged docs: 2 relevant and 3 distractors.

    Every doc holds a twice, b twice, eight fillers.  adjacent_relevant
    puts the exact "a b" phrase in the relevant pair (named to sort after
    the distractors); otherwise the distractors carry the phrase and the
    relevant pair (named to sort first) keeps the terms separated.
    """
    f = _FILLERS
    adjacent = f"{a} {b} {f[0]} {a} {f[1]} {b} {f[2]} {f[3]} {f[4]} {f[5]} {f[6]} {f[7]}"
    scattered = f"{a} {f[0]} {b} {f[1]} {a} {f[2]} {b} {f[3]} {f[4]} {f[5]} {f[6]} {f[7]}"
    if adjacent_relevant:
        return [
            (f"d{qid_num}-a1", scattered, 0),
            (f"d{qid_num}-a2", scattered, 0),
            (f"d{qid_num}-a3", scattered, 0),
            (f"d{qid_num}-z1", adjacent, 2),
            (f"d{qid_num}-z2", adjacent, 1),
        ]
    return [
        (f"d{qid_num}-a1", scattered, 2),
        (f"d{qid_num}-a2", scattered, 1),
        (f"d{qid_num}-z1", adjacent, 0),
        (f"d{qid_num}-z2", adjacent, 0),
        (f"d{qid_num}-z3", adjacent, 0),
    ]


def retrieval_fixture() -> Fixture:
    """200 docs, 20 queries: phrase help planted on exactly half the batch.

    Odd-numbered queries are dependent (phrase-bearing docs are the
    relevant ones), even-numbered compositional (phrase-bearing docs are
    distractors).  Context documents give every query term and synonym
    the window statistics the divergence scoring needs: each dependent
    synonym appears only in its own context pool, while each
    compositional synonym mirrors its headword's contexts.
    """
    docs: List[Tuple[str, str]] = []
    queries: List[Tuple[str, str]] = []
    lexicon: Dict[str, List[str]] = {}
    qrels: Dict[Tuple[str, str], int] = {}
    for i in range(1, 21):
        dependent = i % 2 == 1
        num = f"{i:02d}"
        a, b, syn = f"term{num}a", f"term{num}b", f"term{num}s"
        queries.append((f"q{num}", f"{a} {b}"))
        lexicon[a] = [syn]
        for doc_id, text, grade in _judged_docs(num, a, b, adjacent_relevant=dependent):
            docs.append((doc_id, text))
            qrels[(f"q{num}", doc_id)] = grade
        # Context pool: two co-occurrence docs per headword pair, plus two
        # for the synonym -- disjoint vocabulary for dependent queries,
        # mirrored vocabulary for compositional ones.
        for suffix in ("x", "y"):
            docs.append(
                (
                    f"c{num}-{suffix}",
                    f"{a} {b} ctx{num}{suffix} ctx{num}{suffix} desk{num} one{num}{suffix}",
                )
            )
        if dependent:
            for suffix in ("x", "y"):
                docs.append(
                    (
                        f"s{num}-{suffix}",
                        f"{syn} far{num}{suffix} far{num}{suffix} silk{num} two{num}{suffix}",
                    )
                )
        else:
            for suffix in ("x", "y"):
                docs.append(
                    (
                        f"s{num}-{suffix}",
                        f"{syn} {b} ctx{num}{suffix} ctx{num}{suffix} desk{num} two{num}{suffix}",
                    )
                )
    for k in range(1, 21):
        docs.append((f"bg-{k:02d}", f"plain{k} prose{k} body{k} text{k} filler{k}"))
    return Fixture(docs=docs, queries=queries, lexicon=lexicon, qrels=qrels)
