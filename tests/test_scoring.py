"""Tests for batch divergence scoring and dependent-query selection."""

import functools
import gc
import math
import weakref

import numpy as np
import pytest

from termdep import scoring
from termdep.corpus import Document, PositionalIndex, Query, tokenize
from termdep.fixtures import planted_pair, retrieval_fixture
from termdep.perturb import SynonymLexicon
from termdep.scoring import (
    VARIANTS,
    NcdScore,
    parse_variant,
    score_batch,
    select_dependent,
)
from termdep.vectors import cosine_distance
from termdep.windows import extract_windows


def build_state(fixture):
    index = PositionalIndex()
    for doc_id, text in fixture.docs:
        index.add_document(Document(doc_id, tuple(tokenize(text))))
    queries = [Query(qid, text, tuple(tokenize(text))) for qid, text in fixture.queries]
    lexicon = SynonymLexicon(entries={h: list(s) for h, s in fixture.lexicon.items()})
    return index, queries, lexicon


def make_query(qid, text):
    return Query(qid, text, tuple(tokenize(text)))


def score_one(query, variant, index, lexicon):
    """The score of a query scored as a batch of its own."""
    return score_batch([query], variant, index, lexicon)[0]


@pytest.fixture(scope="module")
def planted_state():
    return build_state(planted_pair())


class TestVariantRegistry:
    def test_thirteen_variants(self):
        assert len(VARIANTS) == 13
        assert len(set(VARIANTS)) == 13
        assert sum(1 for v in VARIANTS if v.startswith("vector:")) == 5
        assert sum(1 for v in VARIANTS if v.startswith("lm:")) == 8
        assert VARIANTS[5:] == (
            "lm:laplace:qsum",
            "lm:laplace:qavg",
            "lm:laplace:mult",
            "lm:laplace:median",
            "lm:sgt:qsum",
            "lm:sgt:qavg",
            "lm:sgt:mult",
            "lm:sgt:median",
        )

    def test_parse_roundtrip(self):
        assert parse_variant("vector:tfidf") == ("vector", "tfidf")
        assert parse_variant("lm:sgt:qsum") == ("lm", "sgt", "qsum")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            parse_variant("vector:bm25f")
        with pytest.raises(ValueError, match="unknown variant"):
            parse_variant("lm:laplace")


class TestNcdScore:
    def test_reciprocal_compositionality(self):
        s = NcdScore("q1", "vector:tfidf", 0.25, [0.2, 0.3])
        assert s.scoreable
        np.testing.assert_allclose(s.c_q, 4.0, atol=1e-12)

    def test_c_q_undefined_when_unscoreable_or_zero(self):
        with pytest.raises(ValueError, match="undefined"):
            NcdScore("q1", "vector:tfidf", None).c_q
        with pytest.raises(ValueError, match="undefined"):
            NcdScore("q1", "vector:tfidf", 0.0, [0.0]).c_q


class TestScoreQueryPlanted:
    # The planted corpus pins the two divergence regimes: disjoint
    # perturbation contexts versus mirror-image ones.

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_idiom_scores_above_literal(self, planted_state, variant):
        index, queries, lexicon = planted_state
        by_qid = {q.qid: q for q in queries}
        nc = score_one(by_qid["nc1"], variant, index, lexicon)
        c = score_one(by_qid["c1"], variant, index, lexicon)
        assert nc.scoreable and c.scoreable
        assert nc.n_q > c.n_q

    @pytest.mark.parametrize("scheme", ["atc", "ltu", "mi", "okapi", "tfidf"])
    def test_disjoint_contexts_hit_degenerate_ceiling(self, planted_state, scheme):
        # scarlet's windows share no words with tape's, so the product
        # vector is empty and the distance pegs at 1.0.
        index, _, lexicon = planted_state
        score = score_one(make_query("nc1", "red tape"), f"vector:{scheme}", index, lexicon)
        np.testing.assert_allclose(score.n_q, 1.0, atol=1e-12)
        assert any("zero-norm" in d for d in score.diagnostics)

    def test_mean_over_two_perturbations(self, planted_state):
        index, _, _ = planted_state
        lexicon = SynonymLexicon(entries={"red": ["scarlet"], "office": ["bureau"]})
        score = score_one(make_query("x1", "red office"), "vector:tfidf", index, lexicon)
        assert len(score.divergences) == 2
        np.testing.assert_allclose(
            score.n_q, sum(score.divergences) / 2.0, atol=1e-12
        )

    def test_single_term_query_unscoreable(self, planted_state):
        index, _, lexicon = planted_state
        score = score_one(make_query("s1", "tax"), "vector:tfidf", index, lexicon)
        assert not score.scoreable
        assert "single-term" in score.reason

    def test_no_synonym_coverage_unscoreable(self, planted_state):
        index, _, lexicon = planted_state
        score = score_one(make_query("s2", "tax clerk"), "lm:sgt:mult", index, lexicon)
        assert not score.scoreable
        assert "coverage" in score.reason

    def test_query_term_absent_from_corpus_unscoreable(self, planted_state):
        index, _, lexicon = planted_state
        score = score_one(make_query("s3", "red zeppelin"), "vector:tfidf", index, lexicon)
        assert not score.scoreable
        assert "zeppelin" in score.reason

    def test_absent_synonym_skipped_then_exhausted(self, planted_state):
        index, _, _ = planted_state
        lexicon = SynonymLexicon(entries={"red": ["vermillion"]})
        score = score_one(make_query("s4", "red tape"), "lm:laplace:mult", index, lexicon)
        assert not score.scoreable
        assert "no usable perturbations" in score.reason
        assert any("vermillion" in d for d in score.diagnostics)

    def test_partial_synonym_absence_keeps_going(self, planted_state):
        index, _, _ = planted_state
        lexicon = SynonymLexicon(entries={"red": ["vermillion"], "office": ["bureau"]})
        score = score_one(make_query("s5", "red office"), "vector:tfidf", index, lexicon)
        assert score.scoreable
        assert len(score.divergences) == 1
        assert any("vermillion" in d for d in score.diagnostics)

    @pytest.mark.parametrize("variant", ["lm:sgt:qsum", "lm:sgt:mult"])
    def test_sgt_fallback_reported_once(self, variant):
        # "tape" co-occurs only with words seen twice in its windows, so its
        # Good-Turing model falls back to Laplace in both perturbations.
        index = PositionalIndex()
        texts = ["red tape desk", "crimson tape desk"] * 2 + ["red ink pen"]
        for k, text in enumerate(texts):
            index.add_document(Document(f"d{k}", tuple(tokenize(text))))
        lexicon = SynonymLexicon(entries={"red": ["crimson"], "tape": ["ink"]})
        score = score_one(make_query("q", "red tape"), variant, index, lexicon)
        assert len(score.divergences) == 2
        assert score.diagnostics == ["sgt: no hapax legomena; fell back to laplace"]


class TestScoreQueryRetrievalFixture:
    def test_dependent_and_compositional_extremes(self):
        index, queries, lexicon = build_state(retrieval_fixture())
        by_qid = {q.qid: q for q in queries}
        dep = score_one(by_qid["q01"], "vector:tfidf", index, lexicon)
        comp = score_one(by_qid["q02"], "vector:tfidf", index, lexicon)
        # Dependent synonyms live in disjoint contexts (distance 1.0);
        # compositional synonyms mirror their headwords (parallel vectors).
        np.testing.assert_allclose(dep.n_q, 1.0, atol=1e-12)
        np.testing.assert_allclose(comp.n_q, 0.0, atol=1e-9)


class TestScoreBatch:
    def test_one_score_per_query_in_order(self, planted_state):
        index, _, lexicon = planted_state
        batch = [
            make_query("b1", "red tape"),
            make_query("b2", "tax"),
            make_query("b3", "tax office"),
            make_query("b4", "quartz vein"),
        ]
        scores = score_batch(batch, "vector:okapi", index, lexicon)
        assert [s.qid for s in scores] == ["b1", "b2", "b3", "b4"]
        assert [s.scoreable for s in scores] == [True, False, True, False]
        assert all(s.variant == "vector:okapi" for s in scores)

    @staticmethod
    def poison_red(monkeypatch, error):
        # The divergence kernel raises `error` for queries holding "red".
        def cosine(u, v):
            if "red" in u.term.split():
                raise error("poisoned kernel")
            return cosine_distance(u, v)

        monkeypatch.setattr(scoring, "cosine_distance", cosine)

    def test_per_query_errors_isolated(self, planted_state, monkeypatch):
        # A ValueError raised inside one query's scoring is absorbed as an
        # unscoreable record and the batch keeps going.
        index, _, lexicon = planted_state
        self.poison_red(monkeypatch, ValueError)
        batch = [make_query("b1", "red tape"), make_query("b2", "tax office")]
        scores = score_batch(batch, "vector:tfidf", index, lexicon)
        assert not scores[0].scoreable
        assert scores[0].reason == "error: poisoned kernel"
        assert scores[1].scoreable

    def test_faults_propagate(self, planted_state, monkeypatch):
        # Any other exception is a fault, not an unscoreable query.
        index, _, lexicon = planted_state
        self.poison_red(monkeypatch, TypeError)
        batch = [make_query("b1", "tax office"), make_query("b2", "red tape")]
        with pytest.raises(TypeError, match="poisoned kernel"):
            score_batch(batch, "vector:tfidf", index, lexicon)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batch_memos_match_fresh_per_query_scoring(self, planted_state, variant):
        # score_batch shares windows, term vectors and SGT models across the
        # batch; each one-query batch here starts from empty memos.
        index, queries, lexicon = planted_state
        batch = queries + [
            make_query("x1", "red office"),
            make_query("x2", "tax"),
            make_query("x3", "tape red tape"),
            make_query("x4", "red zeppelin"),
        ]
        scores = score_batch(batch, variant, index, lexicon)
        for query, got in zip(batch, scores):
            # Dataclass equality: qid, variant, n_q, divergences, reason and
            # diagnostics, floats compared exactly.
            assert got == score_one(query, variant, index, lexicon)
        assert [s.scoreable for s in scores] == [True, True, True, False, True, False]

    @staticmethod
    def record_window_sets(monkeypatch):
        """Weak references to every WindowSet score_batch extracts."""
        made = []

        def recording(*args, **kwargs):
            ws = extract_windows(*args, **kwargs)
            made.append(weakref.ref(ws))
            return ws

        monkeypatch.setattr("termdep.scoring.extract_windows", recording)
        return made

    @staticmethod
    def record_memos(monkeypatch):
        """Weak references to every memo score_batch makes and every value they keep.

        The memos are the functools caches of scoring; their values are the
        window_cf tables, term vectors, composed query vectors and
        Good-Turing models the batch builds.
        """
        made = []

        def recording(make):
            def wrapper(*args, **kwargs):
                value = make(*args, **kwargs)
                made.append(weakref.ref(value))
                return value

            return wrapper

        def recording_windows(*args, **kwargs):
            ws = extract_windows(*args, **kwargs)
            made.append(weakref.ref(ws.window_cf))
            return ws

        def recording_lru_cache(*args, **kwargs):
            return recording(functools.lru_cache(*args, **kwargs))

        monkeypatch.setattr(scoring, "extract_windows", recording_windows)
        for name in ("cache", "build_term_vector", "compose_query_vector", "sgt_lm"):
            monkeypatch.setattr(scoring, name, recording(getattr(scoring, name)))
        monkeypatch.setattr(scoring, "lru_cache", recording_lru_cache)
        return made

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_window_memo_freed_when_batch_returns(self, planted_state, variant, monkeypatch):
        # The batch's memos must not sit in a reference cycle: they and all
        # they keep are freed when score_batch returns, with the cyclic
        # collector switched off.
        index, queries, lexicon = planted_state
        made = self.record_memos(monkeypatch)
        gc.collect()
        gc.disable()
        try:
            score_batch(queries, variant, index, lexicon)
            alive = [ref() for ref in made if ref() is not None]
        finally:
            gc.enable()
        assert made and alive == []

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_window_sets_dropped_before_comparing(self, planted_state, variant, monkeypatch):
        # The memo keeps each term's view (its TermVector or window_cf), not
        # its WindowSet, so no window set outlives the building of its view:
        # by the first comparison every one extracted so far is gone, with
        # the cyclic collector switched off.
        index, queries, lexicon = planted_state
        made = self.record_window_sets(monkeypatch)
        compared = []

        def check(compare):
            def checked(*args, **kwargs):
                compared.append([ref for ref in made if ref() is not None])
                return compare(*args, **kwargs)

            return checked

        monkeypatch.setattr(scoring, "cosine_distance", check(scoring.cosine_distance))
        monkeypatch.setattr(scoring, "phrase_kld", check(scoring.phrase_kld))
        gc.collect()
        gc.disable()
        try:
            score_batch(queries, variant, index, lexicon)
        finally:
            gc.enable()
        assert made and compared
        assert all(alive == [] for alive in compared)

    @pytest.mark.parametrize("variant", ["vector:atc", "lm:sgt:median"])
    def test_thread_count_does_not_change_results(self, planted_state, variant):
        index, queries, lexicon = planted_state
        batch = queries + [make_query("x1", "red office"), make_query("x2", "tax")]
        serial = score_batch(batch, variant, index, lexicon, threads=1)
        threaded = score_batch(batch, variant, index, lexicon, threads=4)
        assert [s.qid for s in threaded] == [s.qid for s in serial]
        for a, b in zip(serial, threaded):
            assert a.scoreable == b.scoreable
            if a.scoreable:
                np.testing.assert_allclose(b.n_q, a.n_q, atol=1e-12)
                np.testing.assert_allclose(b.divergences, a.divergences, atol=1e-12)


def scores_from(n_q_values):
    out = []
    for k, value in enumerate(n_q_values):
        out.append(NcdScore(f"q{k:02d}", "vector:tfidf", value))
    return out


class TestSelectDependent:
    def test_zero_theta_selects_nothing(self):
        selected, notes = select_dependent(scores_from([0.5, 0.9]), 0)
        assert selected == []
        assert notes == []

    def test_picks_highest_first(self):
        selected, _ = select_dependent(scores_from([0.1, 0.9, 0.5]), 2)
        assert selected == ["q01", "q02"]

    def test_ties_break_by_qid(self):
        scores = [
            NcdScore("qb", "vector:tfidf", 0.7),
            NcdScore("qa", "vector:tfidf", 0.7),
            NcdScore("qc", "vector:tfidf", 0.2),
        ]
        selected, _ = select_dependent(scores, 2)
        assert selected == ["qa", "qb"]

    def test_unscoreable_never_selected(self):
        scores = scores_from([0.4, 0.8]) + [NcdScore("qz", "vector:tfidf", None)]
        selected, notes = select_dependent(scores, 5)
        assert selected == ["q01", "q00"]
        assert len(notes) == 1
        assert "scoreable" in notes[0]

    def test_invalid_theta_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            select_dependent(scores_from([0.5]), -1)

    def test_monotone_transforms_preserve_selection(self):
        rng = np.random.default_rng(77)
        base = list(rng.uniform(0.01, 2.0, size=12))
        for transform in (lambda x: 10.0 * x, lambda x: x + 3.0, math.exp):
            mapped = [transform(x) for x in base]
            for theta in range(1, len(base)):
                original, _ = select_dependent(scores_from(base), theta)
                shifted, _ = select_dependent(scores_from(mapped), theta)
                assert shifted == original
