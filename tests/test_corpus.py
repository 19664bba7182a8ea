import json

import numpy as np
import pytest

import termdep.corpus
from termdep.cli import main
from termdep.corpus import (
    CorpusFormatError,
    Document,
    PositionalIndex,
    ingest_corpus,
    load_queries,
    load_stopwords,
    phrase_occurrences,
    tokenize,
)

from oracles import brute_force_phrase_counts


def make_index(docs):
    index = PositionalIndex()
    for doc_id, text in docs:
        index.add_document(Document(doc_id, tuple(tokenize(text))))
    return index


class TestTokenize:
    def test_lowercases_and_splits_on_non_alphanumeric(self):
        assert tokenize("Red-Tape, Office!") == ["red", "tape", "office"]

    def test_digits_kept(self):
        assert tokenize("disk4 2009b") == ["disk4", "2009b"]

    def test_empty_input(self):
        assert tokenize("") == []
        assert tokenize("...!?") == []

    def test_stopwords_removed(self):
        assert tokenize("the red tape", {"the"}) == ["red", "tape"]


class TestPositionalIndex:
    # Hand-built two-document example: every posting verified manually.
    def test_postings_by_hand(self):
        index = make_index([("d1", "red tape office"), ("d2", "tape measure")])
        assert index.doc_count == 2
        assert index.total_terms == 5
        assert index.vocab_size == 4
        assert index.positions("tape") == {"d1": [1], "d2": [0]}
        assert list(index.positions("tape")) == ["d1", "d2"]
        assert index.positions("red") == {"d1": [0]}
        assert index.positions("zzz") == {}
        assert index.doc_tokens == {"d1": ("red", "tape", "office"), "d2": ("tape", "measure")}

    def test_collection_and_term_frequency(self):
        index = make_index([("d1", "a b a"), ("d2", "a c")])
        assert index.collection_frequency("a") == 3
        assert index.term_frequency("a", "d1") == 2
        assert index.term_frequency("a", "d3") == 0
        assert index.collection_frequency("zzz") == 0

    def test_duplicate_doc_id_rejected(self):
        index = make_index([("d1", "a")])
        with pytest.raises(CorpusFormatError, match="duplicate"):
            index.add_document(Document("d1", ("b",)))


def record_passes(monkeypatch):
    """Record each pass termdep.corpus makes over an index's documents.

    A pass starts when the index iterates its documents (doc_tokens.items())
    and holds the token tuples it then walks with enumerate, in order.  A
    walk outside a pass raises IndexError.
    """
    passes = []

    class Documents(dict):
        def items(self):
            passes.append([])
            return super().items()

    def counting_enumerate(iterable, start=0):
        if isinstance(iterable, tuple):
            passes[-1].append(iterable)
        return enumerate(iterable, start)

    init = PositionalIndex.__init__

    def tracked_init(self):
        init(self)
        self.doc_tokens = Documents()

    monkeypatch.setattr(PositionalIndex, "__init__", tracked_init)
    monkeypatch.setattr(termdep.corpus, "enumerate", counting_enumerate, raising=False)
    return passes


class TestInvertInOnePass:
    def test_each_term_looked_for_in_one_pass_until_a_document_is_added(
        self, tmp_path, monkeypatch
    ):
        passes = record_passes(monkeypatch)
        path = tmp_path / "corpus.jsonl"
        rows = [
            ("d1", "red tape office"),
            ("d2", "tape measure"),
            ("d3", "red red tape"),
            ("d4", "office hours"),
        ]
        path.write_text("".join(json.dumps({"doc_id": d, "text": t}) + "\n" for d, t in rows))
        # Neither the index summary nor ingestion makes a pass.
        assert main(["index", "--corpus", str(path), "--out", str(tmp_path / "index.json")]) == 0
        index = ingest_corpus(str(path))
        assert passes == []
        # One pass for three terms walks each document at most once; d4
        # holds none of them and is not walked.
        index.invert(["red", "tape", "zzz", "red"])
        assert passes == [[("red", "tape", "office"), ("tape", "measure"), ("red", "red", "tape")]]
        assert index.positions("red") == {"d1": [0], "d3": [0, 1]}
        assert index.positions("tape") == {"d1": [1], "d2": [0], "d3": [2]}
        assert list(index.positions("tape")) == ["d1", "d2", "d3"]
        assert index.positions("zzz") == {}
        # Later lookups of inverted terms, present or absent, make no pass.
        index.invert(["red", "zzz"])
        assert index.term_frequency("red", "d3") == 2
        assert index.collection_frequency("zzz") == 0
        assert index.positions("zzz") == {}
        assert phrase_occurrences(index, ["red", "tape"]) == {"d1": 1, "d3": 1}
        assert phrase_occurrences(index, ["zzz", "red"]) == {}
        assert len(passes) == 1
        # An undeclared term costs a pass of its own; an absent one too, once.
        assert index.positions("office") == {"d1": [2], "d4": [0]}
        assert index.positions("yyy") == {}
        assert passes[1:] == [[("red", "tape", "office"), ("office", "hours")], []]
        index.positions("yyy")
        index.invert(["office", "tape", "yyy"])
        assert len(passes) == 3
        # add_document drops the memo, absent terms included: the next
        # lookups make a pass again and read the new documents.
        index.add_document(Document("d5", ("tape", "red")))
        assert index.positions("red") == {"d1": [0], "d3": [0, 1], "d5": [1]}
        index.add_document(Document("d6", ("zzz",)))
        assert index.positions("zzz") == {"d6": [0]}
        assert index.term_frequency("tape", "d5") == 1
        assert len(passes) == 6


class TestIngestCorpus:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = [{"doc_id": "d1", "text": "Red tape"}, {"doc_id": "d2", "text": "tax office"}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        index = ingest_corpus(str(path))
        assert index.doc_tokens["d1"] == ("red", "tape")
        assert index.doc_count == 2

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "d1", "text": "ok"}\n{broken\n')
        with pytest.raises(CorpusFormatError, match=":2"):
            ingest_corpus(str(path))

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "d1"}\n')
        with pytest.raises(CorpusFormatError, match=":1"):
            ingest_corpus(str(path))

    def test_duplicate_doc_id_names_line(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"doc_id": "d1", "text": "a"}\n{"doc_id": "d1", "text": "b"}\n'
        )
        with pytest.raises(CorpusFormatError, match=":2"):
            ingest_corpus(str(path))

    @pytest.mark.parametrize("doc_id", ["d 1", "d\t1", " d1", "d1\u00a0"])
    def test_whitespace_in_doc_id_names_line(self, tmp_path, doc_id):
        path = tmp_path / "space.jsonl"
        rows = [{"doc_id": "d0", "text": "a"}, {"doc_id": doc_id, "text": "b"}]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(CorpusFormatError, match=r":2: doc_id .* contains whitespace"):
            ingest_corpus(str(path))

    @pytest.mark.parametrize("text", ["", '{"doc_id": "d1", "text": "!!!"}\n'])
    def test_corpus_without_tokens_rejected(self, tmp_path, text):
        # No documents, or documents that tokenize to nothing: |C| = 0 would
        # divide every collection probability by zero.
        path = tmp_path / "empty.jsonl"
        path.write_text(text)
        with pytest.raises(CorpusFormatError, match="corpus holds no tokens"):
            ingest_corpus(str(path))

    def test_stopwords_apply_to_documents_only_when_asked(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"doc_id": "d1", "text": "the red tape"}) + "\n")
        plain = ingest_corpus(str(path), stopwords={"the"})
        stopped = ingest_corpus(str(path), stopwords={"the"}, stop_documents=True)
        assert plain.doc_tokens["d1"] == ("the", "red", "tape")
        assert stopped.doc_tokens["d1"] == ("red", "tape")


class TestLoadQueries:
    def test_tsv_with_stopwords(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1\tthe red tape\nq2\tTax Office\n")
        queries = load_queries(str(path), stopwords={"the"})
        assert queries[0].terms == ("red", "tape")
        assert queries[1].terms == ("tax", "office")
        assert queries[0].m == 2

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1 red tape\n")
        with pytest.raises(CorpusFormatError, match=":1"):
            load_queries(str(path))

    @pytest.mark.parametrize("qid", ["q 1", "q\u00a01"])
    def test_whitespace_in_qid_names_line(self, tmp_path, qid):
        path = tmp_path / "queries.tsv"
        path.write_text(f"q0\ta\n{qid}\tb\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r":2: qid .* contains whitespace"):
            load_queries(str(path))

    def test_duplicate_qid_rejected(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1\ta\nq1\tb\n")
        with pytest.raises(CorpusFormatError, match="duplicate qid"):
            load_queries(str(path))

    def test_all_stopwords_query_rejected(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1\tthe of\n")
        with pytest.raises(CorpusFormatError, match="no terms"):
            load_queries(str(path), stopwords={"the", "of"})


def test_load_stopwords(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("The\nof\n\n  and \n")
    assert load_stopwords(str(path)) == {"the", "of", "and"}


@pytest.mark.parametrize("word", ["don't", "na\u00efve", "two words", "---"])
def test_stopword_that_is_not_one_token_rejected(tmp_path, word):
    path = tmp_path / "stop.txt"
    path.write_text(f"the\n\n{word}\nof\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as excinfo:
        load_stopwords(str(path))
    assert str(excinfo.value).startswith(f"{path}:3: stopword ")


class TestPhraseOccurrences:
    def test_single_term_is_term_frequency(self):
        index = make_index([("d1", "a b a"), ("d2", "c")])
        assert phrase_occurrences(index, ["a"]) == {"d1": 2}

    def test_exact_adjacent_ordered_match(self):
        index = make_index(
            [("d1", "red tape red tape"), ("d2", "tape red"), ("d3", "red x tape")]
        )
        assert phrase_occurrences(index, ["red", "tape"]) == {"d1": 2}

    def test_missing_term_gives_empty(self):
        index = make_index([("d1", "a b")])
        assert phrase_occurrences(index, ["a", "zzz"]) == {}

    def test_requires_terms(self):
        with pytest.raises(ValueError):
            phrase_occurrences(PositionalIndex(), [])

    def test_matches_brute_force_on_random_corpora(self):
        rng = np.random.default_rng(7)
        vocab = [f"w{i}" for i in range(6)]
        for _ in range(30):
            docs = []
            for d in range(rng.integers(2, 8)):
                tokens = [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(1, 40))]
                docs.append((f"d{d}", tokens))
            index = PositionalIndex()
            for doc_id, tokens in docs:
                index.add_document(Document(doc_id, tuple(tokens)))
            span = int(rng.integers(1, 4))
            phrase = [vocab[i] for i in rng.integers(0, len(vocab), span)]
            assert phrase_occurrences(index, phrase) == brute_force_phrase_counts(
                docs, phrase
            )
