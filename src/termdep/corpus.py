"""Corpus ingestion, tokenization, and the positional index inverted on demand.

Documents arrive as JSON-lines ({"doc_id": ..., "text": ...}), queries as
TSV (qid<TAB>text), stopwords as one word per line.  Ingestion keeps only
each document's tokens, which PositionalIndex.tokens alone hands out.
PositionalIndex.invert finds the positions of a set of terms in one pass
over the token tuples, and PositionalIndex.positions, the one way to a
term's positions, reads them, inverting a term it has not seen.  A caller
that knows its terms (a query batch, or perturb.targets for scoring and
`termdep windows`) declares them to invert first, so a call walks the
tokens once.  Every collection statistic is derived on read: a term's
collection frequency from its positions, the vocabulary size from the
token tuples.  So ranking (tf and cf alike) and exact ordered phrase
matching read positions of the few terms they need, and a call that
looks no term up (`termdep index`) walks no document.
"""

from __future__ import annotations

import json
import os
import stat
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple


class _Separators(dict):
    """str.translate table: a-z and 0-9 map to themselves, every other code point to a space."""

    def __missing__(self, code_point: int) -> str:
        return " "


_SEPARATORS = _Separators((ord(c), c) for c in "abcdefghijklmnopqrstuvwxyz0123456789")


def tokenize(text: str, stopwords: Optional[Set[str]] = None) -> List[str]:
    """Lowercase, then take the maximal [a-z0-9] runs; no stemming.

    Every other character separates tokens, non-ASCII letters and digits
    included.  When a stopword set is given, matching tokens are dropped.
    Empty input yields an empty list.
    """
    tokens = text.lower().translate(_SEPARATORS).split()
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    return tokens


@dataclass(frozen=True)
class Document:
    doc_id: str
    tokens: Tuple[str, ...]


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


def read_lines(path: str) -> Iterator[Tuple[int, str]]:
    """Yield (line number, line without its line end) for each non-blank line.

    Every input file is read here, as UTF-8 after an optional byte-order mark, with LF,
    CRLF or CR line ends.  A line that is not UTF-8 raises ValueError naming path:line.
    """
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{path}:{lineno}: line is not valid UTF-8") from None
            if not line.isspace():
                yield lineno, line.rstrip("\n")


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write the strings `lines`, in order, to `path` as UTF-8, replacing any file there whole.

    Every output file is written here.  The lines go to a new file beside
    `path`, which then takes the path's place: the old file is unlinked, not
    truncated, and the path never holds a partial file.  If anything raises,
    the new file is removed and the old one is left as it was.  A replaced
    file keeps its mode, and a new one gets 0o666 less the umask, as with
    open(path, "w").  A path that is not a regular file with one link (a
    symlink, a device, a FIFO, a hard-linked file) is written in place.
    Nothing is fsynced.
    """
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        old = None
    if old is not None and not (stat.S_ISREG(old.st_mode) and old.st_nlink == 1):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        return
    head, name = os.path.split(path)
    fresh = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(fresh, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        # Name the output asked for, not the temporary file.
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        if old is not None:
            os.chmod(fresh, stat.S_IMODE(old.st_mode))
            # Unlinking first, then renaming onto a free name, spares the flush
            # that some file systems make when a file is truncated or renamed over.
            os.unlink(path)
        os.rename(fresh, path)
    except BaseException:
        os.unlink(fresh)
        raise


def _has_whitespace(identifier: str) -> bool:
    # Run and qrels files are split on whitespace, so IDs must not hold any.
    return any(ch.isspace() for ch in identifier)


def _check_qid(qid: str, where: str) -> None:
    # Score, eval and delta CSV rows lead with the qid; eval's summary row is `all`.
    if "," in qid:
        raise CorpusFormatError(f"{where}: qid {qid!r} contains a comma")
    if qid == "all":
        raise CorpusFormatError(f"{where}: qid 'all' names eval's summary row")


class PositionalIndex:
    """Tokens at ingestion, positions inverted on demand.

    doc_tokens maps doc_id -> its token tuple, in ingestion order, filled
    by add_document; tokens(doc_id) is the program's one way to it.
    postings memoizes the positions of every corpus term inverted since
    the last add_document, and _absent every term inverted since then that
    the corpus lacks, so no term is looked for twice.  All three tables
    (doc_tokens, postings, _absent) are the index's own, read only in this
    module.  positions(term) gives a term's positions, and
    collection_frequency counts them.  vocab_size unions the token tuples
    on each read.
    """

    def __init__(self) -> None:
        self.doc_tokens: Dict[str, Tuple[str, ...]] = {}
        self.total_terms = 0
        self.postings: Dict[str, Dict[str, List[int]]] = {}
        self._absent: Set[str] = set()

    @property
    def doc_count(self) -> int:
        return len(self.doc_tokens)

    @property
    def vocab_size(self) -> int:
        return len(set().union(*self.doc_tokens.values()))

    def tokens(self, doc_id: str) -> Tuple[str, ...]:
        """The token tuple of document `doc_id`; KeyError if the index lacks it."""
        return self.doc_tokens[doc_id]

    def collection_frequency(self, term: str) -> int:
        return sum(map(len, self.positions(term).values()))

    def term_frequency(self, term: str, doc_id: str) -> int:
        return len(self.positions(term).get(doc_id, ()))

    def invert(self, terms: Iterable[str]) -> None:
        """Find the positions of every term of `terms` not inverted yet, in one pass.

        The pass goes over the token tuples in ingestion order, skips a
        document holding none of the terms and walks each other document
        once.  Every term it inverts is memoized, present or absent, until
        the next add_document; a term inverted before is not looked for.
        """
        postings, absent = self.postings, self._absent
        wanted = {t for t in terms if t not in postings and t not in absent}
        if not wanted:
            return
        found: Dict[str, Dict[str, List[int]]] = {t: {} for t in wanted}
        isdisjoint = wanted.isdisjoint
        for doc_id, tokens in self.doc_tokens.items():
            if isdisjoint(tokens):
                continue
            for p, t in enumerate(tokens):
                if t in wanted:
                    found[t].setdefault(doc_id, []).append(p)
        for t, by_doc in found.items():
            if by_doc:
                postings[t] = by_doc
            else:
                absent.add(t)

    def positions(self, term: str) -> Dict[str, List[int]]:
        """{doc_id: ascending positions of term}, documents in ingestion order.

        Empty for a term the corpus lacks.  A term no invert call has
        declared is inverted here, alone, on its first lookup.  Callers
        must not mutate the result.
        """
        by_doc = self.postings.get(term)
        if by_doc is None:
            self.invert((term,))
            by_doc = self.postings.get(term, {})
        return by_doc

    def add_document(self, doc: Document) -> None:
        if doc.doc_id in self.doc_tokens:
            raise CorpusFormatError(f"duplicate doc_id {doc.doc_id!r}")
        self.doc_tokens[doc.doc_id] = doc.tokens
        self.total_terms += len(doc.tokens)
        self.postings.clear()
        self._absent.clear()


def ingest_corpus(
    path: str,
    stopwords: Optional[Set[str]] = None,
    stop_documents: bool = False,
) -> PositionalIndex:
    """Read a JSON-lines corpus file into a PositionalIndex.

    One object per line with string fields "doc_id" and "text".  Documents
    are tokenized without stopword removal unless stop_documents is set
    (the stopword list is meant for queries; stopping documents is an
    opt-in for window extraction).  A corpus that yields no tokens is
    rejected: every collection probability would divide by zero.
    """
    index = PositionalIndex()
    doc_stop = stopwords if stop_documents else None
    for lineno, line in read_lines(path):
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
    if index.total_terms == 0:
        raise CorpusFormatError(f"{path}: corpus holds no tokens")
    return index


def load_queries(path: str, stopwords: Optional[Set[str]] = None) -> List[Query]:
    """Read qid<TAB>text rows; stopwords are removed from queries, never stemmed.

    A qid that is empty, holds whitespace, repeats or fails _check_qid is
    rejected with its path:line.
    """
    queries: List[Query] = []
    seen: Set[str] = set()
    for lineno, line in read_lines(path):
        if "\t" not in line:
            raise CorpusFormatError(f"{path}:{lineno}: expected qid<TAB>text")
        qid, text = line.split("\t", 1)
        qid = qid.strip()
        if not qid:
            raise CorpusFormatError(f"{path}:{lineno}: empty qid")
        if _has_whitespace(qid):
            raise CorpusFormatError(f"{path}:{lineno}: qid {qid!r} contains whitespace")
        _check_qid(qid, f"{path}:{lineno}")
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
    """One word per line, blank lines skipped; each must tokenize to one token.

    A line such as `don't` or `naive` spelt with a diaeresis splits into
    several tokens, none of them the word, so it could never match and is
    rejected with its path:line.
    """
    words: Set[str] = set()
    for lineno, line in read_lines(path):
        tokens = tokenize(line)
        if len(tokens) != 1:
            raise CorpusFormatError(
                f"{path}:{lineno}: stopword {line.strip()!r} is not exactly one token"
            )
        words.add(tokens[0])
    return words


def phrase_positions(index: PositionalIndex, terms: Sequence[str]) -> Dict[str, List[int]]:
    """Start positions of exact ordered, uninterrupted occurrences of `terms`.

    The one phrase matcher: documents in ingestion order, positions
    ascending, documents without an occurrence omitted.  A single term
    gives index.positions of it, which callers must not mutate.
    """
    if not terms:
        raise ValueError("phrase matching requires at least one term")
    first = index.positions(terms[0])
    if len(terms) == 1 or not first:
        return first
    rest = tuple(terms[1:])
    if not all(index.positions(t) for t in rest):
        return {}
    end = len(terms)
    starts: Dict[str, List[int]] = {}
    for doc_id, positions in first.items():
        tokens = index.doc_tokens[doc_id]
        hits = [p for p in positions if tokens[p + 1 : p + end] == rest]
        if hits:
            starts[doc_id] = hits
    return starts


def phrase_occurrences(index: PositionalIndex, terms: Sequence[str]) -> Dict[str, int]:
    """Count exact ordered, uninterrupted occurrences of `terms` per document.

    The count view of phrase_positions: a single term reduces to plain term
    frequency, and documents with zero occurrences are omitted.
    """
    return {doc_id: len(starts) for doc_id, starts in phrase_positions(index, terms).items()}
