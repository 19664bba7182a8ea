"""Property tests: spliced tuning runs and metric reports, ingestion-order
independence of ranking, index frequencies, run-file I/O, the list-level
LM kernels, the sign of KLD, and the range of vector divergences."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from termdep.corpus import Document, PositionalIndex, Query
from termdep.evaluation import Qrels, evaluate, splice_reports
from termdep.langmodel import (
    COMBINATIONS,
    aligned_probs,
    combine_columns,
    combine_term_lms,
    kld,
    kld_lists,
    laplace_column,
    laplace_lm,
    sgt_lm,
)
from termdep.perturb import SynonymLexicon
from termdep.retrieval import RankedRun, RankingConfig, rank, read_run, splice_runs, write_run
from termdep.scoring import score_batch
from termdep.vectors import SCHEMES

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
@given(
    corpora(),
    query_batches(),
    st.floats(min_value=0.5, max_value=20000.0),
    st.integers(min_value=1, max_value=8),
    st.data(),
)
def test_spliced_report_equals_report_of_spliced_run(corpus, queries, mu, top_k, data):
    docs, index = corpus
    qids = [q.qid for q in queries]
    # Judged qids grade every doc, plus one never ranked; a qid left unjudged
    # or graded all 0 exercises each of evaluate's diagnostics.
    judged = sorted(data.draw(st.sets(st.sampled_from(qids))))
    grades = st.integers(min_value=0, max_value=3)
    doc_ids = [doc_id for doc_id, _ in docs] + ["dx"]
    qrels = Qrels(data.draw(st.fixed_dictionaries({(q, d): grades for q in judged for d in doc_ids})))
    selected = data.draw(st.sets(st.sampled_from(qids)))
    # Any phrase weight will do; heavy ones make fd reorder bow's lists often.
    lambda_o = data.draw(st.floats(min_value=0.0, max_value=1.0))
    bow, fd = (
        rank(
            queries,
            index,
            RankingConfig(mu=mu, mode=mode, top_k=top_k, lambda_t=1.0 - lambda_o, lambda_o=lambda_o),
        )
        for mode in ("bow", "fd")
    )
    spliced = splice_reports(evaluate(bow, qrels), evaluate(fd, qrels), selected)
    expected = evaluate(splice_runs(bow, fd, selected), qrels)
    # Dataclass equality: per-query rows, means and diagnostics, floats exact.
    assert spliced == expected
    assert list(spliced.per_query) == list(expected.per_query)


@PROPERTY
@given(corpora(), query_batches(), st.floats(min_value=0.5, max_value=20000.0), st.data())
def test_ranking_ignores_ingestion_order(corpus, queries, mu, data):
    docs, index = corpus
    shuffled = PositionalIndex()
    for doc_id, tokens in data.draw(st.permutations(docs)):
        shuffled.add_document(Document(doc_id, tokens))
    for mode in ("bow", "sd", "fd"):
        config = RankingConfig(mu=mu, mode=mode, top_k=8)
        # Statistics are integer counts and ties break by doc_id: exact equality.
        assert rank(queries, shuffled, config) == rank(queries, index, config)


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


WORDS = tuple("abcdefgh")
count_tables = st.dictionaries(
    st.sampled_from(WORDS), st.integers(min_value=1, max_value=6), min_size=1
)


def outcome(compute):
    """The value computed, or the message of the ValueError raised instead."""
    try:
        return compute()
    except ValueError as exc:
        return f"ValueError: {exc}"


def reference_phrase_kld(q_models, p_models, method, vocab):
    """Combined query distribution and KLD, one word at a time.

    The float operations, in order, that phrase scoring has always
    performed: align each model on the vocabulary and renormalize, combine
    and renormalize, renormalize both combined models again, then sum.
    """

    def normalized(values):
        total = math.fsum(values)
        return [v / total for v in values]

    def aligned(model):
        n_unseen = sum(1 for w in vocab if w not in model.prob)
        if model.method == "sgt" and n_unseen:
            fill = model.unseen_mass / n_unseen
        else:
            fill = model.unseen_prob
        return normalized([model.prob.get(w, fill) for w in vocab])

    def band(col):
        s = sorted(col)
        ends = []
        for q in (0.25, 0.75):
            pos = q * (len(s) - 1)
            lo, hi = math.floor(pos), math.ceil(pos)
            ends.append(s[lo] if lo == hi else s[lo] * (1.0 - (pos - lo)) + s[hi] * (pos - lo))
        return ends

    def combine(models):
        columns = [aligned(m) for m in models]
        bands = [band(col) for col in columns]
        combined = []
        for i in range(len(vocab)):
            vals = [col[i] for col in columns]
            if method == "mult":
                combined.append(math.prod(vals))
            elif method == "median":
                vals.sort()
                mid = len(vals) // 2
                combined.append(vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2.0)
            else:
                contribs = [v for v, (q1, q3) in zip(vals, bands) if q1 <= v <= q3]
                total = math.fsum(contribs)
                if method == "qavg" and contribs:
                    total /= len(contribs)
                combined.append(total)
        if method in ("qsum", "qavg"):
            positive = [v for v in combined if v > 0.0]
            if not positive:
                raise ValueError("quantile combination produced no contributions")
            floor = min(positive)
            combined = [v if v > 0.0 else floor for v in combined]
        return normalized(combined)

    lm_q, lm_p = combine(q_models), combine(p_models)
    pp, qq = normalized(lm_q), normalized(lm_p)
    return lm_q, math.fsum(a * math.log(a / b) for a, b in zip(pp, qq))


@PROPERTY
@given(
    st.lists(count_tables, min_size=1, max_size=4),
    st.lists(count_tables, min_size=1, max_size=4),
    st.sets(st.sampled_from(WORDS + ("x", "y"))),
    st.sampled_from(COMBINATIONS),
    st.sampled_from(("laplace", "sgt")),
)
def test_list_kernels_equal_model_wrappers(q_tables, p_tables, extra, method, smoothing):
    # Scoring's path (columns -> combine_columns -> kld_lists) gives the very
    # floats of combine_term_lms -> kld on SmoothedLMs, and of the reference.
    vocab_set = set(extra).union(*q_tables, *p_tables)
    vocab = sorted(vocab_set)
    if smoothing == "laplace":
        q_models = [laplace_lm(c, vocab_set) for c in q_tables]
        p_models = [laplace_lm(c, vocab_set) for c in p_tables]
        q_cols = [laplace_column(c, vocab) for c in q_tables]
        p_cols = [laplace_column(c, vocab) for c in p_tables]
    else:
        q_models = [sgt_lm(c) for c in q_tables]
        p_models = [sgt_lm(c) for c in p_tables]
        q_cols = [aligned_probs(m, vocab) for m in q_models]
        p_cols = [aligned_probs(m, vocab) for m in p_models]

    def wrappers():
        lm_q = combine_term_lms(q_models, method, vocabulary=vocab_set)
        lm_p = combine_term_lms(p_models, method, vocabulary=vocab_set)
        return [lm_q.prob[w] for w in vocab], kld(lm_q, lm_p, vocabulary=vocab_set)

    def kernels():
        combined_q = combine_columns(q_cols, method)
        return combined_q, kld_lists(combined_q, combine_columns(p_cols, method))

    expected = outcome(lambda: reference_phrase_kld(q_models, p_models, method, vocab))
    assert outcome(kernels) == expected
    assert outcome(wrappers) == expected


positive_lists = st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=1, max_size=8)


@PROPERTY
@given(positive_lists, st.data())
def test_kld_is_never_negative(p, data):
    nudged = [math.nextafter(v, data.draw(st.sampled_from((0.0, 2.0)))) for v in p]
    other = data.draw(st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=len(p), max_size=len(p)))
    for q in (p, nudged, other):
        assert kld_lists(p, q) >= 0.0
        assert kld_lists(q, p) >= 0.0


@PROPERTY
@given(corpora(), query_batches(), st.dictionaries(st.sampled_from(VOCAB), st.sampled_from(VOCAB)))
def test_vector_divergences_stay_in_cosine_range(corpus, queries, synonyms):
    _, index = corpus
    lexicon = SynonymLexicon(entries={h: [s] for h, s in synonyms.items() if s != h})
    for scheme in SCHEMES:
        for score in score_batch(queries, f"vector:{scheme}", index, lexicon):
            assert not score.reason.startswith("error:")
            if score.scoreable:
                assert 0.0 <= score.n_q <= 2.0
                assert all(0.0 <= d <= 2.0 for d in score.divergences)
