"""Property tests: the tokenizer against the regex it replaced, the
feature-table ranking against the per-document loop it replaced, the
mu-grid runs of a drawn mode list against that loop, selective ranking
against its bow and fd lists,
ingestion-order independence of ranking, the index (frequencies, postings
inverted in batches or one term at a time, the phrase matcher, phrase
windows), run-file I/O, the range of metrics on runs read back, a window
set's views (whichever is read first) against the brute-force oracle, the
LM combination kernels and the count-pattern comparison against the
word-by-word references, kld against the word-by-word reference, LM scores
against the model-level path, the sign of KLD, the independence of every
score and ranking from how words are spelled, the independence of every
score from document order, batch membership and documents that hold no
scoring target, of the window-local vector scores from corpus scale and
of cosine distance from zero components, and the range of vector
divergences."""

import dataclasses
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from termdep.corpus import Document, PositionalIndex, Query, phrase_positions, tokenize
from termdep.evaluation import (
    MEASURES,
    CvPlan,
    CvResult,
    Qrels,
    cross_validate_selective,
    evaluate,
)
from termdep.langmodel import COMBINATIONS, SmoothedLM, kld, laplace_lm, phrase_kld, sgt_lm
from termdep.perturb import SynonymLexicon, perturb, targets
from termdep.corpus import phrase_occurrences
from termdep.retrieval import (
    RankedRun,
    RankingConfig,
    rank,
    rank_mu_grid,
    read_run,
    write_run,
)
from termdep.scoring import VARIANTS, score_batch
from termdep.vectors import (
    SCHEMES,
    TermVector,
    build_term_vector,
    compose_query_vector,
    cosine_distance,
    weight,
)
from termdep.windows import extract_windows

from oracles import (
    brute_force_window_stats,
    brute_force_windows,
    ref_aligned_probs,
    ref_aligned_values,
    ref_combine_columns,
    ref_kld,
)
from test_evaluation import single_relevant_run
from test_langmodel import combine

# Derandomized so the suite gives the same verdict on every run.
PROPERTY = settings(deadline=None, derandomize=True)

VOCAB = ("a", "b", "c", "d", "e")
ABSENT = "zz"  # never in a document: exercises the zero-frequency floor


def build_index(docs):
    index = PositionalIndex()
    for doc_id, tokens in docs:
        index.add_document(Document(doc_id, tokens))
    return index


@st.composite
def corpora(draw):
    n_docs = draw(st.integers(min_value=1, max_value=7))
    names = draw(st.permutations([f"d{i}" for i in range(n_docs)]))
    docs = [
        (doc_id, tuple(draw(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=15))))
        for doc_id in names
    ]
    return docs, build_index(docs)


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
    # Selective ranking is, query by query, fd's list if the qid is selected
    # and bow's otherwise; tune splices its per-fold values on that rule.
    _, index = corpus
    selected = data.draw(st.sets(st.sampled_from([q.qid for q in queries])))
    bow, fd = (
        rank(queries, index, RankingConfig(mu=mu, mode=mode, top_k=top_k)) for mode in ("bow", "fd")
    )
    selective = rank(
        queries, index, RankingConfig(mu=mu, mode="selective", top_k=top_k), selected=selected
    )
    assert selective.qids() == bow.qids()
    for qid in selective.qids():
        source = fd if qid in selected else bow
        assert selective.results[qid] == source.results[qid]


def reference_rank(queries, index, config, selected=()):
    """rank as a per-document loop: every feature read per (query, document)."""
    eps = 1.0 / (2.0 * index.total_terms)

    def unigram_ql(query, doc_id):
        doc_len = len(index.doc_tokens[doc_id])
        score = 0.0
        counts = {}
        for t in query.terms:
            counts[t] = counts.get(t, 0) + 1
        for t, c_tq in counts.items():
            cf = index.collection_frequency(t)
            p_c = cf / index.total_terms if cf > 0 else eps
            c_td = index.term_frequency(t, doc_id)
            score += c_tq * math.log((c_td + config.mu * p_c) / (doc_len + config.mu))
        return score

    def phrase_feature(doc_id, per_doc):
        doc_len = len(index.doc_tokens[doc_id])
        collection_count = sum(per_doc.values())
        p_c = collection_count / index.total_terms if collection_count > 0 else eps
        c_pd = per_doc.get(doc_id, 0)
        return math.log((c_pd + config.mu * p_c) / (doc_len + config.mu))

    run = RankedRun()
    for query in queries:
        mode = config.mode
        if mode == "selective":
            mode = "fd" if query.qid in selected else "bow"
        docs = []
        for t in set(query.terms):
            for doc_id in index.positions(t):
                if doc_id not in docs:
                    docs.append(doc_id)
        phrase_maps = []
        if query.m >= 2:
            if mode == "sd":
                for i in range(query.m - 1):
                    phrase_maps.append(phrase_occurrences(index, query.terms[i : i + 2]))
            elif mode == "fd":
                phrase_maps.append(phrase_occurrences(index, query.terms))
        scored = []
        for doc_id in docs:
            unigram = unigram_ql(query, doc_id)
            if query.m < 2 or mode == "bow":
                score = unigram
            else:
                phrase_part = math.fsum(
                    phrase_feature(doc_id, per_doc) for per_doc in phrase_maps
                ) / len(phrase_maps)
                score = config.lambda_t * unigram + config.lambda_o * phrase_part
            scored.append((doc_id, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        run.results[query.qid] = scored[: config.top_k]
    return run


@st.composite
def mixed_batches(draw):
    """A drawn batch plus a single-term query, a query repeating a term and
    a query holding a term absent from every document."""
    queries = draw(query_batches())
    term = draw(st.sampled_from(VOCAB))
    other = draw(st.sampled_from(VOCAB))
    for qid, terms in (
        ("single", (term,)),
        ("repeat", (term, other, term)),
        ("absent", (other, ABSENT, term)),
    ):
        queries.append(Query(qid, " ".join(terms), terms))
    return queries


def drawn_weights(data):
    lambda_o = data.draw(st.floats(min_value=0.0, max_value=1.0))
    return {"lambda_t": 1.0 - lambda_o, "lambda_o": lambda_o}


@PROPERTY
@given(
    corpora(),
    mixed_batches(),
    st.floats(min_value=0.5, max_value=20000.0),
    st.integers(min_value=1, max_value=8),
    st.data(),
)
def test_feature_pass_equals_per_document_loop(corpus, queries, mu, top_k, data):
    _, index = corpus
    weights = drawn_weights(data)
    selected = data.draw(st.sets(st.sampled_from([q.qid for q in queries])))
    for mode in ("bow", "sd", "fd", "selective"):
        config = RankingConfig(mu=mu, mode=mode, top_k=top_k, **weights)
        run = rank(queries, index, config, selected=selected)
        expected = reference_rank(queries, index, config, selected)
        # Same float operations in the same order: exact equality.
        assert run.results == expected.results
        assert run.qids() == expected.qids()


@PROPERTY
@given(
    corpora(),
    mixed_batches(),
    st.lists(st.floats(min_value=0.5, max_value=20000.0), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=8),
    st.data(),
)
def test_mu_grid_runs_equal_rank_at_every_mu(corpus, queries, mus, top_k, data):
    _, index = corpus
    weights = drawn_weights(data)
    # An unsorted grid that repeats at least one mu.
    grid = data.draw(st.permutations(mus + [data.draw(st.sampled_from(mus))]))
    # bow, one phrase mode, or both in either order.
    phrase = data.draw(st.sampled_from(("sd", "fd", "selective")))
    modes = data.draw(st.sampled_from((["bow"], [phrase], ["bow", phrase], [phrase, "bow"])))
    selected = data.draw(st.sets(st.sampled_from([q.qid for q in queries])))
    config = RankingConfig(top_k=top_k, **weights)
    seen = []
    for mu, runs in rank_mu_grid(queries, index, grid, config, modes, selected):
        seen.append(mu)
        assert list(runs) == modes
        for mode, run in runs.items():
            at_mu = RankingConfig(mu=mu, mode=mode, top_k=top_k, **weights)
            expected = reference_rank(queries, index, at_mu, selected)
            # Same float operations in the same order: exact equality.
            assert run.results == expected.results
            assert run.qids() == expected.qids()
    assert seen == grid


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


def reference_tokens(text, stopwords=None):
    """The regex tokenizer tokenize replaced: maximal [a-z0-9] runs of the lowercased text."""
    tokens = re.findall(r"[a-z0-9]+", text.lower())
    return [t for t in tokens if t not in stopwords] if stopwords else tokens


@PROPERTY
@given(
    st.text(),
    st.none() | st.sets(st.text(alphabet="abk0123", min_size=1, max_size=2), max_size=5),
)
@example(text="\u212a", stopwords=None)  # Kelvin sign: lowercases to ASCII "k"
@example(text="\u0130stanbul", stopwords=None)  # lowercases to "i" + combining dot
@example(text="stra\u00dfe", stopwords=None)
@example(text="a\u00a0b\x1cc\x1dd\x1ee\x1ff", stopwords=None)  # str.split whitespace
@example(text="\u0663 \uff41 a\u0663b", stopwords=None)  # isalnum(), yet not [a-z0-9]
@example(text="A-b, 0k K k", stopwords={"k", "0k"})
def test_tokenize_equals_regex_reference(text, stopwords):
    assert tokenize(text, stopwords) == reference_tokens(text, stopwords)


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
        assert list(index.positions(term)) == [
            doc_id for doc_id, tokens in docs if term in tokens
        ]
    assert index.term_frequency("a", "no-such-doc") == 0
    assert index.vocab_size == len({t for _, tokens in docs for t in tokens})
    assert index.total_terms == sum(len(tokens) for _, tokens in docs)
    # Counting an absent term adds nothing to postings.
    assert index.collection_frequency(ABSENT) == 0
    assert ABSENT not in index.postings


def brute_force_starts(docs, phrase):
    """{doc_id: start positions of `phrase`} by slicing every offset, in doc order."""
    span = len(phrase)
    starts = {}
    for doc_id, tokens in docs:
        hits = [p for p in range(len(tokens) - span + 1) if tokens[p : p + span] == phrase]
        if hits:
            starts[doc_id] = hits
    return starts


phrases = st.lists(st.sampled_from(VOCAB + (ABSENT,)), min_size=1, max_size=3).map(tuple)


# A lookup is a term, read through positions(), or a list of terms, which
# one invert call declares together (repeats and inverted terms included).
lookups = st.lists(
    st.one_of(
        st.sampled_from(VOCAB + (ABSENT,)),
        st.lists(st.sampled_from(VOCAB + (ABSENT,)), max_size=4),
    ),
    max_size=6,
)


def look_up(index, lookup):
    """Make one lookup; return the terms it names."""
    if isinstance(lookup, str):
        index.positions(lookup)
        return [lookup]
    index.invert(lookup)
    return lookup


@PROPERTY
@given(corpora(), lookups, st.permutations(VOCAB + (ABSENT,)))
def test_postings_equal_brute_force_in_any_lookup_order(corpus, lookups, order):
    docs, index = corpus
    # Batched and single lookups, mixed, leave every term's positions those
    # of a brute-force scan, documents in ingestion order.
    for lookup in lookups:
        for term in look_up(index, lookup):
            expected = brute_force_starts(docs, (term,))
            assert index.positions(term) == expected
            assert list(index.positions(term)) == list(expected)
    for term in order:
        expected = brute_force_starts(docs, (term,))
        assert index.positions(term) == expected
        assert list(index.positions(term)) == list(expected)
    # A second pass reads the memo and must agree with the first.
    for term in VOCAB + (ABSENT,):
        assert index.positions(term) == brute_force_starts(docs, (term,))
    # Postings hold the corpus terms looked up, and no absent term.
    assert set(index.postings) == {t for _, tokens in docs for t in tokens}


EDGE_DOCS = [("d1", ("a", "b", "a")), ("d0", ("c", "a", "b"))]


@PROPERTY
@given(corpora(), st.integers(min_value=0, max_value=7), lookups)
# Lookups on an empty index memoize every term as absent, which a later
# add_document must drop.
@example(corpus=(EDGE_DOCS, None), cut=0, lookups=["a", ABSENT, "c"])
@example(corpus=(EDGE_DOCS, None), cut=0, lookups=[["a", ABSENT], "c"])
# Lookups after the last document: nothing is added after them.
@example(corpus=(EDGE_DOCS, None), cut=len(EDGE_DOCS), lookups=["a", ABSENT, "c"])
@example(corpus=(EDGE_DOCS, None), cut=1, lookups=[["a", "b", "c", ABSENT]])
def test_add_document_after_lookup_leaves_nothing_stale(corpus, cut, lookups):
    docs, _ = corpus
    cut = min(cut, len(docs))  # a cut past the last document adds none after the lookups
    index = build_index(docs[:cut])
    for lookup in lookups:
        for term in look_up(index, lookup):
            phrase_positions(index, (term, term))
    for doc_id, tokens in docs[cut:]:
        index.add_document(Document(doc_id, tokens))
    fresh = build_index(docs)
    assert index.vocab_size == fresh.vocab_size
    assert index.total_terms == fresh.total_terms
    for term in VOCAB + (ABSENT,):
        assert index.positions(term) == fresh.positions(term)
        assert index.collection_frequency(term) == fresh.collection_frequency(term)
        for doc_id, _ in docs:
            assert index.term_frequency(term, doc_id) == fresh.term_frequency(term, doc_id)


@PROPERTY
@given(corpora(), phrases)
def test_phrase_positions_equal_brute_force_scan(corpus, phrase):
    docs, index = corpus
    expected = brute_force_starts(docs, phrase)
    got = phrase_positions(index, phrase)
    assert got == expected
    assert list(got) == list(expected)


@PROPERTY
@given(
    corpora(),
    phrases.filter(lambda p: len(p) >= 2),
    st.integers(min_value=0, max_value=4),
)
def test_phrase_windows_equal_token_slice_reference(corpus, phrase, n):
    docs, index = corpus
    expected = []
    for doc_id, starts in brute_force_starts(docs, phrase).items():
        tokens = dict(docs)[doc_id]
        for p in starts:
            lo, hi = max(0, p - n), min(len(tokens), p + len(phrase) + n)
            counts = {}
            for t in tokens[lo:hi]:
                counts[t] = counts.get(t, 0) + 1
            expected.append((doc_id, p, counts, hi - lo))
    ws = extract_windows(index, phrase, n=n)
    assert [(w.doc_id, w.position, w.counts, w.size) for w in ws.windows] == expected


# Valid IDs are what ingestion and query loading accept: non-empty, no whitespace,
# and for a qid, which leads score and eval CSV rows, no comma.
ids = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8).filter(
    lambda s: not any(ch.isspace() for ch in s)
)
valid_qids = ids.filter(lambda s: "," not in s)
scores = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


# A run lists each doc_id at most once per qid; read_run rejects repeats.
ranked_lists = st.lists(st.tuples(ids, scores), min_size=1, max_size=5, unique_by=lambda e: e[0])


@PROPERTY
@given(st.dictionaries(valid_qids, ranked_lists, max_size=5))
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


JUDGED_DOCS = ("d0", "d1", "d2", "d3")
judged_entries = st.tuples(st.sampled_from(JUDGED_DOCS), scores)


@PROPERTY
@given(
    st.dictionaries(
        valid_qids,
        # Mostly valid lists; the rest may list a doc_id twice, which counted
        # twice would lift MAP above 1.
        st.one_of(
            st.lists(judged_entries, min_size=1, max_size=4, unique_by=lambda e: e[0]),
            st.lists(judged_entries, min_size=2, max_size=6),
        ),
        min_size=1,
        max_size=4,
    ),
    st.data(),
)
def test_metrics_of_a_run_read_back_lie_in_unit_interval(tmp_path_factory, results, data):
    qids = sorted(results)
    doc_ids = JUDGED_DOCS + ("dx",)
    grades = st.integers(min_value=0, max_value=3)
    qrels = Qrels(data.draw(st.fixed_dictionaries({(q, d): grades for q in qids for d in doc_ids})))
    path = tmp_path_factory.mktemp("run") / "x.run"
    write_run(RankedRun(results=results), str(path), tag="t")
    try:
        back = read_run(str(path))
    except ValueError as exc:
        # Only a doc_id listed twice for one qid may stop the read.
        assert "repeated" in str(exc)
        assert any(len({d for d, _ in entries}) < len(entries) for entries in results.values())
        return
    report = evaluate(back, qrels)
    for row in list(report.per_query.values()) + [report.means]:
        assert set(row) == set(MEASURES)
        assert all(0.0 <= value <= 1.0 for value in row.values())


# Mostly small ranks, so that fold means often tie; 0 leaves the relevant
# document out of the list.
relevant_ranks = st.one_of(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=12)
)


@st.composite
def selective_tuning_cases(draw):
    """qids, a selection order, qrels, per-mu (bow, fd) ranks and a plan.

    Each qid has one judged document, `{qid}-rel`; ranks[mu] gives, per
    mode, the rank of that document in the qid's list at mu.  The order
    holds the scoreable qids.  Some qids are unjudged and some judged with
    no relevant document, so the evaluated queries are a subset.  The grids
    repeat entries and reach theta 0 and thetas past the scoreable count.
    """
    n = draw(st.integers(min_value=3, max_value=10))
    qids = draw(st.permutations([f"q{i}" for i in range(n)]))
    order = draw(st.permutations(qids))[: draw(st.integers(min_value=0, max_value=n))]
    grades = {q: draw(st.sampled_from((None, 0, 1, 1, 1, 1))) for q in qids}
    qrels = Qrels({(q, f"{q}-rel"): grade for q, grade in grades.items() if grade is not None})
    mu_grid = draw(st.lists(st.sampled_from((100.0, 500.0, 2000.0)), min_size=1, max_size=4))
    theta_grid = draw(st.lists(st.integers(min_value=0, max_value=n + 2), min_size=1, max_size=5))
    ranks = {
        mu: tuple({q: draw(relevant_ranks) for q in qids} for _ in ("bow", "fd"))
        for mu in sorted(set(mu_grid))
    }
    plan = CvPlan(tuple(mu_grid), tuple(theta_grid), draw(st.sampled_from(MEASURES)))
    return qids, order, qrels, ranks, plan


def brute_force_selective_cv(qids, order, qrels, ranks, plan):
    """Per held-out fold, the first grid point of best training mean, by brute force.

    The selective run at each grid point ranks the first theta of order as
    fd does and the rest as bow does; it is evaluated whole.
    """
    ranked = sorted(qids)
    folds = [ranked[i::3] for i in range(3)]
    grid = [(mu, theta) for mu in sorted(plan.mu_grid) for theta in sorted(plan.theta_grid)]
    reports = {}
    for mu, theta in grid:
        bow, fd = ranks[mu]
        spliced = {q: fd[q] if q in order[:theta] else bow[q] for q in qids}
        reports[mu, theta] = evaluate(single_relevant_run(spliced), qrels)

    def mean(members, config):
        rows = reports[config].per_query
        picked = [rows[q][plan.measure] for q in members if q in rows]
        return math.fsum(picked) / len(picked) if picked else 0.0

    choices, scores = [], []
    for k in range(3):
        train = [q for i, fold in enumerate(folds) if i != k for q in fold]
        # max keeps the first of equal maxima: the smaller mu, then theta.
        best = max(grid, key=lambda config: mean(train, config))
        choices.append(best)
        scores.append(mean(folds[k], best))
    diagnostics = reports[grid[-1]].diagnostics
    return CvResult(plan.measure, choices, scores, math.fsum(scores) / 3, diagnostics)


@PROPERTY
@given(selective_tuning_cases())
def test_selective_fold_walk_matches_brute_force(case):
    qids, order, qrels, ranks, plan = case
    runs = (
        (mu, {"bow": single_relevant_run(bow), "fd": single_relevant_run(fd)})
        for mu, (bow, fd) in ranks.items()
    )
    expected = brute_force_selective_cv(qids, order, qrels, ranks, plan)
    assert cross_validate_selective(qids, order, runs, qrels, plan) == expected

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


def normalized(values):
    total = math.fsum(values)
    return [v / total for v in values]


def reference_combined(models, method, vocab):
    """One phrase's combined distribution, one word at a time.

    The float operations, in order, that phrase scoring has always
    performed: align each model on the vocabulary and renormalize, then
    combine and renormalize.
    """

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


def reference_phrase_kld(q_models, p_models, method, vocab):
    """KLD of the two phrases' reference_combined distributions, one word at a time.

    Both are renormalized again, then the sum is taken and a sum rounded
    below 0 is clamped to 0.
    """
    lm_q = reference_combined(q_models, method, vocab)
    lm_p = reference_combined(p_models, method, vocab)
    pp, qq = normalized(lm_q), normalized(lm_p)
    return max(0.0, math.fsum(a * math.log(a / b) for a, b in zip(pp, qq)))


@PROPERTY
@given(
    st.lists(count_tables, min_size=1, max_size=4),
    st.lists(count_tables, min_size=1, max_size=4),
    st.sets(st.sampled_from(WORDS + ("x", "y"))),
    st.sampled_from(COMBINATIONS),
    st.sampled_from(("laplace", "sgt")),
)
def test_list_kernels_equal_model_wrappers(q_tables, p_tables, extra, method, smoothing):
    # Scoring's path (phrase_kld over count patterns) and its combination
    # kernels with every word its own pattern (aligned columns -> combine)
    # give the very floats of the one-word-at-a-time reference.  combine
    # takes columns over any vocabulary, extra words included; phrase_kld
    # reads its vocabulary off the tables, so it is checked on their union.
    union = set().union(*q_tables, *p_tables)
    tables = {f"q{i}": c for i, c in enumerate(q_tables)}
    tables.update((f"p{i}", c) for i, c in enumerate(p_tables))
    q_terms = [f"q{i}" for i in range(len(q_tables))]
    p_terms = [f"p{i}" for i in range(len(p_tables))]
    sgt_models = {t: sgt_lm(c) for t, c in tables.items()} if smoothing == "sgt" else None

    def models_over(vocab_set):
        if sgt_models is None:
            models = {t: laplace_lm(c, vocab_set) for t, c in tables.items()}
        else:
            models = sgt_models
        return [models[t] for t in q_terms], [models[t] for t in p_terms]

    vocab = sorted(union | extra)
    for phrase_models in models_over(set(vocab)):
        got = outcome(lambda: combine([ref_aligned_probs(m, vocab) for m in phrase_models], method))
        assert got == outcome(lambda: reference_combined(phrase_models, method, vocab))
    q_models, p_models = models_over(union)
    expected = outcome(lambda: reference_phrase_kld(q_models, p_models, method, sorted(union)))
    assert outcome(lambda: phrase_kld(tables, q_terms, p_terms, method, sgt_models)) == expected


def dense_phrase_kld(tables, query_terms, perturbed_terms, method, models):
    """phrase_kld word by word: ref_aligned_probs of laplace_lm (or models[t])
    per term over the tables' union, ref_combine_columns per phrase, then
    ref_kld."""
    vocabulary = set().union(*tables.values())
    columns = {}
    for t, counts in tables.items():
        model = laplace_lm(counts, vocabulary) if models is None else models[t]
        columns[t] = ref_aligned_probs(model, sorted(vocabulary))
    lm_q = ref_combine_columns([columns[t] for t in query_terms], method)
    lm_p = ref_combine_columns([columns[t] for t in perturbed_terms], method)
    return ref_kld(lm_q, lm_p)


TERMS = ("s", "t", "u", "v")


@st.composite
def comparisons(draw):
    """(tables, query terms, perturbed terms) of one comparison.

    The perturbation replaces one query position with a term that may be a
    query term itself.
    """
    query = draw(st.lists(st.sampled_from(TERMS), min_size=1, max_size=4))
    position = draw(st.integers(min_value=0, max_value=len(query) - 1))
    perturbed = list(query)
    perturbed[position] = draw(st.sampled_from(TERMS))
    tables = {t: draw(count_tables) for t in dict.fromkeys(query + perturbed)}
    return tables, query, perturbed


@PROPERTY
@given(comparisons(), st.sampled_from(COMBINATIONS), st.sampled_from(("laplace", "sgt")))
@example(
    # Six words: Q1 sits between order statistics 1 and 2 of t's column,
    # which are the values of counts 0 and 1.
    comparison=(
        {"t": {"a": 1, "b": 2, "c": 2, "d": 3}, "u": {"e": 1}, "v": {"f": 2}},
        ["t", "u"],
        ["t", "v"],
    ),
    method="qsum",
    smoothing="laplace",
)
@example(
    # Every term has seen every word: no unseen reserve is split.
    comparison=(
        {"t": {"a": 1, "b": 2}, "u": {"a": 2, "b": 1}, "v": {"a": 1, "b": 1}},
        ["t", "u"],
        ["v", "u"],
    ),
    method="qavg",
    smoothing="sgt",
)
@example(
    comparison=({"t": {"a": 1}, "u": {"a": 3}, "v": {"a": 2}}, ["t", "u"], ["t", "v"]),
    method="qsum",
    smoothing="laplace",
)
@example(
    # No hapax in t or v: sgt_lm falls back to Laplace, whose unseen words
    # each take unseen_prob.
    comparison=(
        {"t": {"a": 2, "b": 3}, "u": {"b": 1, "c": 1}, "v": {"d": 2}},
        ["t", "u"],
        ["v", "u"],
    ),
    method="mult",
    smoothing="sgt",
)
@example(
    # A repeated query term contributes its column twice to both phrases.
    comparison=(
        {"t": {"a": 1, "b": 2}, "u": {"c": 1}, "v": {"a": 2, "c": 1}},
        ["t", "t", "u"],
        ["t", "t", "v"],
    ),
    method="qavg",
    smoothing="laplace",
)
@example(
    # The replacement is a query term: the perturbation repeats it.
    comparison=({"t": {"a": 1, "b": 1}, "u": {"c": 2}}, ["t", "u"], ["t", "t"]),
    method="median",
    smoothing="sgt",
)
def test_phrase_kld_equals_dense_path(comparison, method, smoothing):
    # Count patterns change no float and no error of the word-by-word path.
    tables, query, perturbed = comparison
    models = None if smoothing == "laplace" else {t: sgt_lm(c) for t, c in tables.items()}
    expected = outcome(lambda: dense_phrase_kld(tables, query, perturbed, method, models))
    assert outcome(lambda: phrase_kld(tables, query, perturbed, method, models)) == expected


positive_lists = st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=1, max_size=8)


@PROPERTY
@given(positive_lists, st.data())
def test_kld_is_never_negative(p, data):
    nudged = [math.nextafter(v, data.draw(st.sampled_from((0.0, 2.0)))) for v in p]
    other = data.draw(st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=len(p), max_size=len(p)))

    def model(values):
        return SmoothedLM("laplace", {f"w{i}": v for i, v in enumerate(values)}, 0.0, 1e-9)

    for q in (p, nudged, other):
        assert kld(model(p), model(q)) >= 0.0
        assert kld(model(q), model(p)) >= 0.0


@PROPERTY
@given(
    count_tables,
    count_tables,
    st.sampled_from(("laplace", "sgt")),
    st.one_of(st.none(), st.sets(st.sampled_from(WORDS + ("x", "y")))),
)
# No hapax in p: sgt_lm falls back to Laplace, whose unseen word takes unseen_prob.
@example(p_table={"a": 2, "b": 2}, q_table={"a": 1, "c": 3}, smoothing="sgt", vocabulary=None)
# Wider than the union: both Good-Turing reserves are split over x and y.
@example(p_table={"a": 1, "b": 2}, q_table={"b": 1}, smoothing="sgt", vocabulary=set("abxy"))
@example(p_table={"a": 1}, q_table={"b": 1}, smoothing="laplace", vocabulary=set())
def test_kld_equals_word_by_word_reference(p_table, q_table, smoothing, vocabulary):
    # kld over distinct (p, q) value pairs gives the float, or the error, of
    # aligning both models word by word and summing one word at a time.
    # ref_kld renormalizes each side once, as kld does, so it reads the
    # values before renormalization.
    if smoothing == "laplace":
        # Each model over its own words: the other's words take unseen_prob.
        p, q = laplace_lm(p_table, p_table), laplace_lm(q_table, q_table)
    else:
        p, q = sgt_lm(p_table), sgt_lm(q_table)
    words = sorted(p.vocabulary | q.vocabulary if vocabulary is None else vocabulary)
    expected = outcome(lambda: ref_kld(ref_aligned_values(p, words), ref_aligned_values(q, words)))
    assert outcome(lambda: kld(p, q, vocabulary)) == expected


# Repeated tokens give a context term counts above 1 that differ between
# windows; clipping at document edges gives windows of different sizes.
REPEATS = [("d0", ("a", "b", "a", "a", "c", "b")), ("d1", ("b", "a", "a")), ("d2", ("c", "c", "a"))]


LM_VARIANTS = tuple(f"lm:{sm}:{cm}" for sm in ("laplace", "sgt") for cm in COMBINATIONS)


def reference_lm_score(query, variant, index, lexicon, n, order):
    """(n_q, divergences) of one query from the smoothers and the word-by-word references.

    Each comparison smooths a model per term (laplace_lm over the union
    vocabulary, or sgt_lm), aligns every model on that vocabulary in
    `order`, combines each phrase's columns with the one-row-at-a-time
    ref_combine_columns and compares the two with ref_kld.  None where
    the query is unscoreable.
    """
    _, smoothing, combination = variant.split(":")

    def cf(term):
        return extract_windows(index, (term,), n=n).window_cf

    if query.m < 2:
        return None
    perturbations = perturb(query, lexicon)
    if not perturbations or not all(cf(t) for t in query.terms):
        return None
    divergences = []
    for p in perturbations:
        if not cf(p.replacement):
            continue
        counts = {t: cf(t) for t in {*query.terms, p.replacement}}
        vocab = order(set().union(*counts.values()))
        if smoothing == "laplace":
            models = {t: laplace_lm(c, vocab) for t, c in counts.items()}
        else:
            models = {t: sgt_lm(c) for t, c in counts.items()}
        columns = {t: ref_aligned_probs(m, vocab) for t, m in models.items()}
        lm_q = ref_combine_columns([columns[t] for t in query.terms], combination)
        lm_p = ref_combine_columns([columns[t] for t in p.terms], combination)
        divergences.append(ref_kld(lm_q, lm_p))
    if not divergences:
        return None
    return math.fsum(divergences) / len(divergences), divergences


def lm_query(qid, *terms):
    return Query(qid, " ".join(terms), terms)


# Every window of "a" spans the whole document, so its counts are all 4:
# no hapax, and sgt_lm falls back to Laplace.
NO_HAPAX = [("d0", ("a", "b", "a", "b", "c", "c"))]


@PROPERTY
@given(
    corpora(),
    query_batches(),
    st.dictionaries(st.sampled_from(VOCAB), st.sampled_from(VOCAB)),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(
    corpus=(NO_HAPAX, build_index(NO_HAPAX)),
    # A repeated query term, and synonyms that are other query terms.
    queries=[lm_query("q0", "a", "a", "b"), lm_query("q1", "b", "c")],
    synonyms={"a": "b", "c": "a"},
    n=5,
    shuffle_seed=1,
)
@example(
    corpus=(REPEATS, build_index(REPEATS)),
    queries=[lm_query("q0", "a", "b", "c"), lm_query("q1", "c", "c")],
    synonyms={"a": "c", "b": "a", "c": "b"},
    n=1,
    shuffle_seed=7,
)
def test_lm_scores_equal_model_level_reference(corpus, queries, synonyms, n, shuffle_seed):
    # Scoring builds each column from its term's seen words on a slot map in
    # set order and masks each column once per comparison.  Every divergence
    # and n_q must still be the very float of the model-level path, over the
    # sorted vocabulary or a shuffled one.
    _, index = corpus
    lexicon = SynonymLexicon(entries={h: [s] for h, s in synonyms.items() if s != h})

    def shuffled(words):
        words = sorted(words)
        random.Random(shuffle_seed).shuffle(words)
        return words

    for variant in LM_VARIANTS:
        for query, score in zip(queries, score_batch(queries, variant, index, lexicon, n=n)):
            if score.reason.startswith("error: "):
                got = "ValueError: " + score.reason[len("error: ") :]
            else:
                got = (score.n_q, score.divergences) if score.scoreable else None
            for order in (sorted, shuffled):
                assert got == outcome(
                    lambda: reference_lm_score(query, variant, index, lexicon, n, order)
                )


# One-to-one renamings of every word, to tokens the tokenizer could give:
# some swap the words among themselves, some spell them anew.
respellings = st.permutations(VOCAB + (ABSENT, "e9", "0", "ab", "ba", "zzz", "q1", "x")).map(
    lambda names: dict(zip(VOCAB + (ABSENT,), names))
)


@PROPERTY
@given(
    corpora(),
    query_batches(),
    st.dictionaries(st.sampled_from(VOCAB), st.sampled_from(VOCAB), min_size=3),
    respellings,
)
@example(
    corpus=(REPEATS, build_index(REPEATS)),
    queries=[lm_query("q0", "a", "b", "c"), lm_query("q1", "c", "c"), lm_query("q2", "b", "a")],
    synonyms={"a": "c", "b": "a", "c": "b"},
    spelling={"a": "b", "b": "ab", "c": "a", "d": "d", "e": "e", ABSENT: ABSENT},
)
def test_outputs_ignore_how_words_are_spelled(corpus, queries, synonyms, spelling):
    # Renaming every corpus, query and lexicon word one to one changes the
    # order in which each vocabulary iterates, and nothing else: every
    # variant's scores and every mode's ranked lists stay equal under ==
    # once the words quoted in reasons and diagnostics are spelled back.
    docs, index = corpus
    back = {new: old for old, new in spelling.items()}

    def renamed(terms):
        return tuple(spelling[t] for t in terms)

    def spelled_back(score):
        def fix(text):
            return re.sub(r"'([a-z0-9]+)'", lambda m: repr(back.get(m[1], m[1])), text)

        return dataclasses.replace(
            score, reason=fix(score.reason), diagnostics=list(map(fix, score.diagnostics))
        )

    lexicon = SynonymLexicon(entries={h: [s] for h, s in synonyms.items() if s != h})
    renamed_queries = [Query(q.qid, " ".join(renamed(q.terms)), renamed(q.terms)) for q in queries]
    renamed_index = build_index([(doc_id, renamed(tokens)) for doc_id, tokens in docs])
    renamed_lexicon = SynonymLexicon(
        entries={spelling[h]: list(renamed(s)) for h, s in lexicon.entries.items()}
    )
    for variant in VARIANTS:
        scores = score_batch(queries, variant, index, lexicon)
        again = score_batch(renamed_queries, variant, renamed_index, renamed_lexicon)
        assert list(map(spelled_back, again)) == scores
    selected = {q.qid for q in queries[::2]}
    for mode in ("bow", "sd", "fd", "selective"):
        config = RankingConfig(mode=mode)
        run = rank(queries, index, config, selected=selected)
        assert rank(renamed_queries, renamed_index, config, selected=selected).results == run.results


# "a" and "b" have disjoint windows at n=0.
SPLIT = [("d0", ("a",)), ("d1", ("b", "c"))]


@PROPERTY
@given(
    corpora(),
    query_batches(),
    st.dictionaries(st.sampled_from(VOCAB), st.sampled_from(VOCAB)),
    st.integers(min_value=0, max_value=6),
    # Orders of at most 7 documents and 5 queries, as corpora() and
    # query_batches() draw them.
    st.permutations(range(7)),
    st.permutations(range(5)),
    st.integers(min_value=1, max_value=5),
)
@example(
    # A query-side vocabulary memoized by a query's first term would carry
    # the words of q0's windows into q1's batch of one.
    corpus=(SPLIT, build_index(SPLIT)),
    queries=[lm_query("q0", "a", "b"), lm_query("q1", "a", "a")],
    synonyms={"a": "c"},
    n=0,
    doc_order=[1, 0, 2, 3, 4, 5, 6],
    query_order=[1, 0, 2, 3, 4],
    size=1,
)
def test_scores_ignore_document_order_and_batch_membership(
    corpus, queries, synonyms, n, doc_order, query_order, size
):
    # The measures read corpus-level counts, and a batch's memos are keyed
    # by term: reordering the documents, or scoring any sub-batch of the
    # queries in any order (one query alone among them), gives each query
    # the record it gets in the full batch in file order.
    docs, index = corpus
    lexicon = SynonymLexicon(entries={h: [s] for h, s in synonyms.items() if s != h})
    reordered = build_index([docs[i] for i in doc_order if i < len(docs)])
    sub_batch = [queries[i] for i in query_order if i < len(queries)][:size]
    for variant in VARIANTS:
        full = {s.qid: s for s in score_batch(queries, variant, index, lexicon, n=n)}
        got = score_batch(sub_batch, variant, reordered, lexicon, n=n)
        assert got == [full[q.qid] for q in sub_batch]


# Words no query or synonym draws, so never a scoring target.
STRANGERS = ("x", "y")


# Half the default examples keeps the pair near one batch-membership run.
@settings(PROPERTY, max_examples=50)
@given(
    corpora(),
    query_batches(),
    st.dictionaries(st.sampled_from(VOCAB), st.sampled_from(VOCAB)),
    st.integers(min_value=0, max_value=6),
    st.data(),
)
def test_scores_read_only_documents_holding_a_target(corpus, queries, synonyms, n, data):
    # Kiela & Clark's measures read a target's context windows and nothing
    # else: documents that hold no scoring target change no record.
    docs, index = corpus
    lexicon = SynonymLexicon(entries={h: [s] for h, s in synonyms.items() if s != h})
    words = [w for w in VOCAB if w not in targets(queries, lexicon)] + list(STRANGERS)
    extra = data.draw(
        st.lists(st.lists(st.sampled_from(words), min_size=1, max_size=15), min_size=1, max_size=3)
    )
    grown = build_index(docs + [(f"e{i}", tuple(tokens)) for i, tokens in enumerate(extra)])
    for variant in VARIANTS:
        want = score_batch(queries, variant, index, lexicon, n=n)
        assert score_batch(queries, variant, grown, lexicon, n=n) == want, variant


# Half the default examples keeps the pair near one batch-membership run.
@settings(PROPERTY, max_examples=50)
@given(
    corpora(),
    query_batches(),
    st.dictionaries(st.sampled_from(VOCAB), st.sampled_from(VOCAB)),
    st.integers(min_value=0, max_value=6),
    st.sampled_from((2, 3, 4)),
)
def test_window_local_scores_ignore_corpus_scale(corpus, queries, synonyms, n, k):
    # Repeating every document k times multiplies N, n(t), cf_t and G by k
    # and leaves each window's size and counts as they were.  tfidf, ltu and
    # mi read only ratios of those, so each per-window weight keeps its bits
    # and a component, the fsum of k copies divided by k * n(t), keeps its
    # value; its bits too when k is a power of two, else it may move by
    # one rounding.  atc's normalized weights shrink by sqrt(k), which
    # cosine cancels up to rounding.  A distance near 0 is 1 - cos, so a
    # rounding in cos is an absolute, not a relative, error there.  okapi
    # reads N - n(t) + 0.5, Laplace adds one to every count and SGT loses
    # its hapaxes to Laplace, so those variants are left out.
    docs, index = corpus
    lexicon = SynonymLexicon(entries={h: [s] for h, s in synonyms.items() if s != h})
    copies = [(f"{doc_id}c{r}", tokens) for r in range(1, k) for doc_id, tokens in docs]
    scaled = build_index(docs + copies)
    exact = ("tfidf", "ltu", "mi") if k in (2, 4) else ()
    for scheme in ("atc", "ltu", "mi", "tfidf"):
        want = score_batch(queries, f"vector:{scheme}", index, lexicon, n=n)
        got = score_batch(queries, f"vector:{scheme}", scaled, lexicon, n=n)
        if scheme in exact:
            assert got == want, scheme
            continue
        assert [dataclasses.replace(s, n_q=None, divergences=[]) for s in got] == [
            dataclasses.replace(s, n_q=None, divergences=[]) for s in want
        ]
        for g, w in zip(got, want):
            if w.scoreable:
                assert g.n_q == pytest.approx(w.n_q, rel=1e-12, abs=1e-12), scheme


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


VIEWS = ("window_cf", "stats", "windows")


@PROPERTY
@given(corpora(), phrases, st.integers(min_value=0, max_value=6), st.permutations(VIEWS))
@example(corpus=(REPEATS, build_index(REPEATS)), target=("a",), n=2, order=VIEWS)
@example(corpus=(REPEATS, build_index(REPEATS)), target=("a",), n=2, order=VIEWS[::-1])
def test_window_stats_equal_brute_force(corpus, target, n, order):
    # Each view is derived from the spans on first use; whichever is read
    # first, every view equals the oracle.
    docs, index = corpus
    ws = extract_windows(index, target, n=n)
    views = {name: getattr(ws, name) for name in order}
    ref_windows = brute_force_windows(docs, target, n)
    ref = brute_force_window_stats(ref_windows)
    assert ws.n_windows == len(ref_windows)
    got = [(w.doc_id, w.position, list(w.counts.items()), w.size) for w in views["windows"]]
    assert got == [(d, p, list(counts.items()), size) for d, p, counts, size in ref_windows]
    stats = views["stats"]
    assert stats.n_windows == ref["n_windows"]
    assert stats.av_m == ref["av_m"]
    assert stats.max_f == ref["max_f"]
    assert stats.total_mass == sum(size for *_, size in ref_windows)
    # Both statistics keep the order in which the terms first appear.
    containing = [(t, len(ids)) for t, ids in stats.ids.items()]
    assert containing == list(ref["windows_containing"].items())
    cf = {}
    for _, _, counts, _ in ref_windows:
        for t, c in counts.items():
            cf[t] = cf.get(t, 0) + c
    assert list(views["window_cf"].items()) == list(cf.items())
    for term in VOCAB + (ABSENT,):
        ids = [i for i, (_, _, counts, _) in enumerate(ref_windows) if term in counts]
        assert ws.windows_for(term) == ids  # ascending, each window once
    # A view read again is the one first derived.
    assert all(getattr(ws, name) is views[name] for name in VIEWS)


def reference_term_vector(ws, scheme):
    """The loop build_term_vector replaced: one weight() call per (window, term)."""
    windows = ws.windows
    total = sum(w.size for w in windows)
    vec = {}
    for term in dict.fromkeys(t for w in windows for t in w.counts):
        ids = [i for i, w in enumerate(windows) if term in w.counts]
        raw = [
            weight(
                scheme,
                f_it=windows[i].counts[term],
                n_t=len(ids),
                n_windows=len(windows),
                m_i=windows[i].size,
                av_m=total / len(windows),
                max_f=max(windows[i].counts.values()),
                cf_t=sum(windows[j].counts[term] for j in ids),
                total_mass=total,
            )
            for i in ids
        ]
        if scheme == "atc":
            norm = math.sqrt(math.fsum(v * v for v in raw))
            raw = [v / norm for v in raw] if norm > 0.0 else [0.0 for _ in raw]
        vec[term] = math.fsum(raw) / len(ids)
    return vec


@PROPERTY
@given(corpora(), phrases, st.integers(min_value=0, max_value=6))
@example(corpus=(REPEATS, build_index(REPEATS)), target=("a",), n=2)
@example(corpus=(REPEATS, build_index(REPEATS)), target=("a",), n=0)
def test_term_vector_equals_per_pair_weight_loop(corpus, target, n):
    _, index = corpus
    ws = extract_windows(index, target, n=n)
    for scheme in SCHEMES:
        if not ws.windows:
            with pytest.raises(ValueError, match="no context windows"):
                build_term_vector(ws, scheme)
            continue
        got = build_term_vector(ws, scheme).weights
        # The vector keeps the reference's nonzero components, in its order.
        want = {t: w for t, w in reference_term_vector(ws, scheme).items() if w != 0.0}
        assert got == want
        assert list(got) == list(want)
        if len(target) == 1 and scheme == "atc":
            # The target is in every window: idf 0, a zero atc norm, no component.
            assert target[0] not in got


# Components that may be zero of either sign, or negative, as okapi's are.
components = st.dictionaries(
    st.sampled_from("abcde"),
    st.one_of(st.sampled_from((0.0, -0.0)), st.floats(min_value=-8.0, max_value=8.0)),
    max_size=5,
)


@PROPERTY
@given(st.lists(components, min_size=1, max_size=3), st.lists(components, min_size=1, max_size=3))
# Every component zero: the zero-norm fallback, with or without the zeros.
@example(u=[{"a": 0.0, "b": -0.0}], v=[{"a": 1.0}])
# Zero products of either sign beside a nonzero one, on both sides.
@example(
    u=[{"a": -1.0, "b": 0.0, "c": 2.0}, {"a": 0.0, "b": 3.0, "c": 1.0}],
    v=[{"a": 0.0, "b": -1.0, "c": 1.0}],
)
def test_zero_components_change_no_distance(u, v):
    # build_term_vector keeps only nonzero components: cosine_distance, of
    # the vectors or of their compose_query_vector products, must give the
    # same (distance, degenerate) whichever side keeps its zeros.
    def forms(weights):
        sparse = [{t: w for t, w in ws.items() if w != 0.0} for ws in weights]
        return [
            [TermVector(f"t{i}", ws) for i, ws in enumerate(side)] for side in (weights, sparse)
        ]

    pairs = [(a, b) for a in forms(u) for b in forms(v)]
    direct = {cosine_distance(a[0], b[0]) for a, b in pairs}
    composed = {
        cosine_distance(compose_query_vector(a), compose_query_vector(b)) for a, b in pairs
    }
    assert len(direct) == 1 and len(composed) == 1
    if not any(w != 0.0 for w in u[0].values()):
        assert direct == {(1.0, True)}
