"""Property tests: spliced tuning runs, index frequencies, run-file I/O."""

from hypothesis import given, settings
from hypothesis import strategies as st

from termdep.corpus import Document, PositionalIndex, Query
from termdep.retrieval import RankedRun, RankingConfig, rank, read_run, splice_runs, write_run

# Derandomized so the suite gives the same verdict on every run.
PROPERTY = settings(deadline=None, derandomize=True)

VOCAB = ("a", "b", "c", "d", "e")
ABSENT = "zz"  # never in a document: exercises the zero-frequency floor


@st.composite
def corpora(draw):
    n_docs = draw(st.integers(min_value=1, max_value=7))
    names = draw(st.permutations([f"d{i}" for i in range(n_docs)]))
    docs = [
        (doc_id, tuple(draw(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=15))))
        for doc_id in names
    ]
    index = PositionalIndex()
    for doc_id, tokens in docs:
        index.add_document(Document(doc_id, tokens))
    return docs, index


@st.composite
def query_batches(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    queries = []
    for i in range(n):
        terms = tuple(draw(st.lists(st.sampled_from(VOCAB + (ABSENT,)), min_size=1, max_size=4)))
        queries.append(Query(f"q{i}", " ".join(terms), terms))
    return queries


@PROPERTY
@given(
    corpora(),
    query_batches(),
    st.floats(min_value=0.5, max_value=20000.0),
    st.integers(min_value=1, max_value=8),
    st.data(),
)
def test_spliced_run_equals_selective_rank(corpus, queries, mu, top_k, data):
    _, index = corpus
    selected = data.draw(st.sets(st.sampled_from([q.qid for q in queries])))
    bow, fd = (
        rank(queries, index, RankingConfig(mu=mu, mode=mode, top_k=top_k)) for mode in ("bow", "fd")
    )
    selective = rank(
        queries, index, RankingConfig(mu=mu, mode="selective", top_k=top_k), selected=selected
    )
    spliced = splice_runs(bow, fd, selected)
    assert spliced.qids() == selective.qids()
    assert spliced.results == selective.results


@PROPERTY
@given(corpora())
def test_frequencies_match_brute_force_counts(corpus):
    docs, index = corpus
    for term in VOCAB + (ABSENT,):
        per_doc = {doc_id: tokens.count(term) for doc_id, tokens in index.doc_tokens.items()}
        assert index.collection_frequency(term) == sum(per_doc.values())
        for doc_id, count in per_doc.items():
            assert index.term_frequency(term, doc_id) == count
        # Postings list the documents holding the term in ingestion order.
        assert list(index.postings.get(term, {})) == [
            doc_id for doc_id, tokens in docs if term in tokens
        ]
    assert index.term_frequency("a", "no-such-doc") == 0


# Valid IDs are what ingestion and query loading accept: non-empty, no whitespace.
ids = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8).filter(
    lambda s: not any(ch.isspace() for ch in s)
)
scores = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@PROPERTY
@given(st.dictionaries(ids, st.lists(st.tuples(ids, scores), min_size=1, max_size=5), max_size=5))
def test_run_file_round_trips(tmp_path_factory, results):
    path = tmp_path_factory.mktemp("run") / "x.run"
    write_run(RankedRun(results=results), str(path), tag="t")
    back = read_run(str(path))
    # Scores are written with six decimals; everything else survives as is.
    assert back.results == {
        qid: [(doc_id, float(f"{score:.6f}")) for doc_id, score in entries]
        for qid, entries in results.items()
    }
    again = path.with_suffix(".again")
    write_run(back, str(again), tag="t")
    assert again.read_bytes() == path.read_bytes()
