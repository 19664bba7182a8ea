"""Tests for Dirichlet query-likelihood ranking and the phrase-feature modes."""

import dataclasses
import math
import weakref

import numpy as np
import pytest

from termdep.corpus import Document, PositionalIndex, Query, tokenize
from termdep.fixtures import retrieval_fixture
from termdep.retrieval import (
    MODES,
    RankedRun,
    RankingConfig,
    rank,
    rank_mu_grid,
    read_run,
    write_run,
)

from oracles import ref_dirichlet_score


def build_index(docs):
    index = PositionalIndex()
    for doc_id, text in docs:
        index.add_document(Document(doc_id, tuple(tokenize(text))))
    return index


def make_query(qid, text):
    return Query(qid, text, tuple(tokenize(text)))


@pytest.fixture(scope="module")
def small_index():
    docs = [
        ("doc-a", "red tape slows permits"),
        ("doc-b", "red tape red tape everywhere"),
        ("doc-c", "tape measures and rulers"),
        ("doc-d", "green fields far away"),
    ]
    return build_index(docs)


@pytest.fixture(scope="module")
def fixture_state():
    fx = retrieval_fixture()
    index = build_index(fx.docs)
    queries = [make_query(qid, text) for qid, text in fx.queries]
    return index, queries


class TestRankingConfig:
    def test_defaults(self):
        config = RankingConfig()
        assert config.mu == 1000.0
        assert config.lambda_t == 0.85
        assert config.lambda_o == 0.15
        assert config.mode == "bow"
        assert config.top_k == 1000

    def test_modes_registry(self):
        assert MODES == ("bow", "sd", "fd", "selective")

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"mu": 0.0}, "mu"),
            ({"mu": -5.0}, "mu"),
            ({"mode": "phrase"}, "mode"),
            ({"lambda_t": -0.1, "lambda_o": 1.1}, "non-negative"),
            ({"lambda_t": 0.6, "lambda_o": 0.6}, "sum to 1"),
            ({"top_k": 0}, "top_k"),
            ({"mu": float("nan")}, "mu"),
            ({"mu": float("inf")}, "mu"),
        ],
    )
    def test_invalid_config_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RankingConfig(**kwargs)

    def test_frozen(self):
        config = RankingConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.mu = 2000.0


def bow_scores(query, index, mu):
    """rank's bow score of every candidate document, by doc_id."""
    return dict(rank([query], index, RankingConfig(mu=mu)).results[query.qid])


def phrase_scores(query, index, mu):
    """rank's fd score of every candidate with all weight on the phrase
    feature: for a two-term query, exactly its phrase log-probability."""
    config = RankingConfig(mu=mu, mode="fd", lambda_t=0.0, lambda_o=1.0)
    return dict(rank([query], index, config).results[query.qid])


class TestUnigramScore:
    def test_hand_value(self):
        # c(t,D)=2, |D|=10, P(t|C)=2/200=0.01, mu=100 -> log(3/110).
        filler = " ".join(f"f{k}" for k in range(190))
        index = build_index([("d1", "t t a b c d e f g h"), ("dx", filler)])
        assert index.total_terms == 200
        got = bow_scores(make_query("q1", "t"), index, mu=100.0)
        assert list(got) == ["d1"]
        np.testing.assert_allclose(got["d1"], math.log(3.0 / 110.0), atol=1e-12)

    def test_repeated_term_counts_twice(self):
        index = build_index([("d1", "t t a b c d e f g h"), ("d2", "a b t c d")])
        one = bow_scores(make_query("q1", "t"), index, mu=50.0)
        two = bow_scores(make_query("q2", "t t"), index, mu=50.0)
        np.testing.assert_allclose(two["d1"], 2.0 * one["d1"], atol=1e-12)

    def test_absent_term_uses_floor(self):
        # "zz" is in no document, so it adds log(eps*mu/(|D|+mu)) to the
        # score of d1, a candidate through "a": c(a,d1)=1, P(a|C)=3/10.
        index = build_index([("d1", "a b c d e"), ("d2", "a a b c d")])
        eps = 1.0 / (2.0 * index.total_terms)
        got = bow_scores(make_query("q1", "a zz"), index, mu=100.0)
        want = math.log((1.0 + 100.0 * 0.3) / 105.0) + math.log(eps * 100.0 / 105.0)
        np.testing.assert_allclose(got["d1"], want, atol=1e-12)

    def test_random_corpora_match_reference(self):
        rng = np.random.default_rng(404)
        vocab = [f"w{k}" for k in range(12)]
        for trial in range(30):
            docs = []
            for d in range(int(rng.integers(3, 8))):
                length = int(rng.integers(2, 15))
                docs.append((f"d{d}", " ".join(rng.choice(vocab, size=length))))
            index = build_index(docs)
            raw = [(doc_id, tokenize(text)) for doc_id, text in docs]
            terms = list(rng.choice(vocab + ["zz"], size=int(rng.integers(1, 4))))
            mu = float(rng.uniform(10.0, 3000.0))
            got = bow_scores(make_query("q", " ".join(terms)), index, mu)
            candidates = [doc_id for doc_id, tokens in raw if set(terms) & set(tokens)]
            assert sorted(got) == sorted(candidates)
            for doc_id, doc_tokens in raw:
                if doc_id in got:
                    want = ref_dirichlet_score(terms, doc_tokens, [t for _, t in raw], mu)
                    np.testing.assert_allclose(got[doc_id], want, atol=1e-9)


class TestPhraseFeature:
    def test_hand_value(self):
        # Phrase once in a 10-token doc, background 2/2000=0.001, mu=1000
        # -> log(2/1010).
        filler = " ".join(f"f{k}" for k in range(1988))
        index = build_index(
            [("d1", "red tape a b c d e f g h"), ("d2", f"red tape {filler}")]
        )
        assert index.total_terms == 2000
        got = phrase_scores(make_query("q1", "red tape"), index, mu=1000.0)
        np.testing.assert_allclose(got["d1"], math.log(2.0 / 1010.0), atol=1e-12)

    def test_absent_phrase_uses_floor(self):
        index = build_index([("d1", "red a tape b c"), ("d2", "tape red x y z")])
        eps = 1.0 / (2.0 * index.total_terms)
        got = phrase_scores(make_query("q1", "red tape"), index, mu=100.0)
        np.testing.assert_allclose(got["d1"], math.log(eps * 100.0 / 105.0), atol=1e-12)

    def test_more_occurrences_score_higher(self):
        index = build_index(
            [
                ("d1", "red tape red tape red tape x y"),
                ("d2", "red tape red tape x y z w"),
                ("d3", "red tape x y z w v u"),
            ]
        )
        got = phrase_scores(make_query("q1", "red tape"), index, mu=500.0)
        assert got["d1"] > got["d2"] > got["d3"]


class TestRank:
    def test_candidates_share_a_term(self, small_index):
        run = rank([make_query("q1", "red tape")], small_index, RankingConfig())
        ranked_ids = [d for d, _ in run.results["q1"]]
        assert set(ranked_ids) == {"doc-a", "doc-b", "doc-c"}

    def test_results_sorted_score_then_doc_id(self, small_index):
        run = rank([make_query("q1", "red tape")], small_index, RankingConfig(mode="fd"))
        entries = run.results["q1"]
        assert entries == sorted(entries, key=lambda pair: (-pair[1], pair[0]))

    def test_identical_docs_tie_break_by_doc_id(self):
        index = build_index(
            [("z-doc", "red tape here"), ("a-doc", "red tape here"), ("m", "other words")]
        )
        run = rank([make_query("q1", "red tape")], index, RankingConfig(mode="fd"))
        assert [d for d, _ in run.results["q1"]] == ["a-doc", "z-doc"]

    def test_top_k_truncates(self, small_index):
        run = rank([make_query("q1", "red tape")], small_index, RankingConfig(top_k=2))
        assert len(run.results["q1"]) == 2

    def test_selective_requires_selection(self, small_index):
        with pytest.raises(ValueError, match="selected"):
            rank([make_query("q1", "red tape")], small_index, RankingConfig(mode="selective"))

    def test_unknown_selected_qid_rejected(self, small_index):
        with pytest.raises(ValueError, match="q9"):
            rank(
                [make_query("q1", "red tape")],
                small_index,
                RankingConfig(mode="selective"),
                selected=["q9"],
            )

    def test_empty_selection_allowed_outside_selective(self, small_index):
        run = rank([make_query("q1", "red tape")], small_index, RankingConfig(), selected=[])
        assert run.results["q1"]

    def test_random_bow_matches_reference(self):
        rng = np.random.default_rng(505)
        vocab = [f"w{k}" for k in range(15)]
        for trial in range(10):
            docs = []
            for d in range(int(rng.integers(5, 12))):
                length = int(rng.integers(3, 20))
                docs.append((f"d{d:02d}", " ".join(rng.choice(vocab, size=length))))
            index = build_index(docs)
            raw = {doc_id: tokenize(text) for doc_id, text in docs}
            mu = float(rng.uniform(50.0, 2000.0))
            terms = list(rng.choice(vocab, size=2))
            query = make_query("q", " ".join(terms))
            run = rank([query], index, RankingConfig(mu=mu))
            for doc_id, score in run.results["q"]:
                want = ref_dirichlet_score(terms, raw[doc_id], list(raw.values()), mu)
                np.testing.assert_allclose(score, want, atol=1e-9)
            entries = run.results["q"]
            assert entries == sorted(entries, key=lambda pair: (-pair[1], pair[0]))
            assert {d for d, _ in entries} == {
                doc_id for doc_id, toks in raw.items() if set(terms) & set(toks)
            }


class TestRankMuGrid:
    def test_previous_runs_dropped_before_next_mu(self, small_index):
        runs = rank_mu_grid(
            [make_query("q1", "red tape")], small_index, [100.0, 200.0], RankingConfig()
        )
        _, bow, fd = next(runs)
        refs = [weakref.ref(bow), weakref.ref(fd)]
        del bow, fd
        next(runs)
        assert [ref() for ref in refs] == [None, None]

    def test_invalid_mu_rejected(self, small_index):
        runs = rank_mu_grid(
            [make_query("q1", "red tape")], small_index, [float("nan")], RankingConfig()
        )
        with pytest.raises(ValueError, match="mu"):
            next(runs)


class TestModeIdentities:
    def run_bytes(self, tmp_path, name, queries, index, config, selected=None):
        run = rank(queries, index, config, selected=selected)
        path = tmp_path / name
        write_run(run, str(path), tag="t")
        return path.read_bytes()

    def test_single_term_queries_identical_across_modes(self, tmp_path):
        index = build_index(
            [("d1", "tax office forms"), ("d2", "tax bureau desk"), ("d3", "fishing boats")]
        )
        queries = [make_query("q1", "tax"), make_query("q2", "office")]
        outs = []
        for mode in ("bow", "sd", "fd"):
            outs.append(
                self.run_bytes(tmp_path, f"m-{mode}.run", queries, index, RankingConfig(mode=mode))
            )
        outs.append(
            self.run_bytes(
                tmp_path,
                "m-selective.run",
                queries,
                index,
                RankingConfig(mode="selective"),
                selected=["q1", "q2"],
            )
        )
        assert outs[0] == outs[1] == outs[2] == outs[3]

    def test_sd_equals_fd_on_two_term_queries(self, tmp_path, fixture_state):
        index, queries = fixture_state
        sd = self.run_bytes(tmp_path, "sd.run", queries, index, RankingConfig(mode="sd"))
        fd = self.run_bytes(tmp_path, "fd.run", queries, index, RankingConfig(mode="fd"))
        assert sd == fd

    def test_selective_none_is_bow(self, tmp_path, fixture_state):
        index, queries = fixture_state
        bow = self.run_bytes(tmp_path, "bow.run", queries, index, RankingConfig(mode="bow"))
        sel = self.run_bytes(
            tmp_path, "sel0.run", queries, index, RankingConfig(mode="selective"), selected=[]
        )
        assert sel == bow

    def test_selective_all_is_fd(self, tmp_path, fixture_state):
        index, queries = fixture_state
        fd = self.run_bytes(tmp_path, "fd-all.run", queries, index, RankingConfig(mode="fd"))
        sel = self.run_bytes(
            tmp_path,
            "sel-all.run",
            queries,
            index,
            RankingConfig(mode="selective"),
            selected=[q.qid for q in queries],
        )
        assert sel == fd

    def test_selective_mixes_per_query(self, fixture_state):
        index, queries = fixture_state
        bow = rank(queries, index, RankingConfig(mode="bow"))
        fd = rank(queries, index, RankingConfig(mode="fd"))
        sel = rank(queries, index, RankingConfig(mode="selective"), selected=["q01"])
        assert sel.results["q01"] == fd.results["q01"]
        assert sel.results["q02"] == bow.results["q02"]


class TestPlantedPhraseBehavior:
    # The fixture's judged docs share unigram profiles, so bag-of-words
    # falls back to doc_id order while phrase features read the content.

    def test_bow_ties_resolve_by_doc_id(self, fixture_state):
        index, queries = fixture_state
        by_qid = {q.qid: q for q in queries}
        run = rank([by_qid["q01"]], index, RankingConfig(mode="bow"))
        judged = [d for d, _ in run.results["q01"] if d.startswith("d01-")]
        assert judged == ["d01-a1", "d01-a2", "d01-a3", "d01-z1", "d01-z2"]

    def test_fd_lifts_phrase_bearing_docs(self, fixture_state):
        index, queries = fixture_state
        by_qid = {q.qid: q for q in queries}
        run = rank([by_qid["q01"]], index, RankingConfig(mode="fd"))
        judged = [d for d, _ in run.results["q01"] if d.startswith("d01-")]
        assert judged[:2] == ["d01-z1", "d01-z2"]

    def test_fd_demotes_scattered_relevants_on_compositional_query(self, fixture_state):
        index, queries = fixture_state
        by_qid = {q.qid: q for q in queries}
        bow = rank([by_qid["q02"]], index, RankingConfig(mode="bow"))
        fd = rank([by_qid["q02"]], index, RankingConfig(mode="fd"))
        bow_judged = [d for d, _ in bow.results["q02"] if d.startswith("d02-")]
        fd_judged = [d for d, _ in fd.results["q02"] if d.startswith("d02-")]
        assert bow_judged[:2] == ["d02-a1", "d02-a2"]
        assert fd_judged[:3] == ["d02-z1", "d02-z2", "d02-z3"]


class TestRunIO:
    def test_write_format(self, tmp_path):
        run = RankedRun(results={"q1": [("docB", -1.25), ("docA", -2.0)]})
        path = tmp_path / "out.run"
        write_run(run, str(path), tag="mytag")
        lines = path.read_text().splitlines()
        assert lines == [
            "q1 Q0 docB 1 -1.250000 mytag",
            "q1 Q0 docA 2 -2.000000 mytag",
        ]

    def test_round_trip(self, tmp_path):
        fx = retrieval_fixture()
        index = build_index(fx.docs)
        queries = [make_query(qid, text) for qid, text in fx.queries]
        run = rank(queries, index, RankingConfig(mode="fd"))
        path = tmp_path / "fd.run"
        write_run(run, str(path), tag="fd")
        back = read_run(str(path))
        assert back.qids() == run.qids()
        for qid in run.qids():
            assert [d for d, _ in back.results[qid]] == [d for d, _ in run.results[qid]]
            np.testing.assert_allclose(
                [s for _, s in back.results[qid]],
                [s for _, s in run.results[qid]],
                atol=5e-7,
            )

    def test_read_rejects_malformed_rows(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 doc 1 -1.0\n")
        with pytest.raises(ValueError, match=r":1:"):
            read_run(str(path))

    def test_read_rejects_repeated_doc_id(self, tmp_path):
        # Counted twice, d1 would give MAP 2.0 when it is the only relevant doc.
        path = tmp_path / "dup.run"
        path.write_text("q1 Q0 d1 1 -1.0 t\nq2 Q0 d1 1 -1.0 t\nq1 Q0 d1 2 -2.0 t\n")
        with pytest.raises(ValueError, match=r"dup\.run:3: doc_id 'd1' repeated for qid 'q1'"):
            read_run(str(path))

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "Infinity", "NaN"])
    def test_read_rejects_non_finite_score(self, tmp_path, score):
        path = tmp_path / "nan.run"
        path.write_text(f"q1 Q0 d1 1 -1.0 t\nq1 Q0 d2 2 {score} t\n")
        with pytest.raises(ValueError, match=rf"nan\.run:2: score '{score}' is not finite"):
            read_run(str(path))

    def test_read_rejects_unparsable_score(self, tmp_path):
        path = tmp_path / "abc.run"
        path.write_text("q1 Q0 d1 1 abc t\n")
        with pytest.raises(ValueError, match=r"abc\.run:1: score 'abc' is not a number"):
            read_run(str(path))

    @pytest.mark.parametrize("score", ["1_0.5", "-1_000", "\u0661.\u0665", "\uff11.5"])
    def test_read_rejects_underscore_and_non_ascii_scores(self, tmp_path, score):
        # float() itself takes each of these: digit separators, Arabic-Indic
        # and fullwidth digits.
        assert math.isfinite(float(score))
        path = tmp_path / "lax.run"
        path.write_text(f"q1 Q0 d1 1 -1.0 t\nq1 Q0 d2 2 {score} t\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"lax\.run:2: score .* is not a number$"):
            read_run(str(path))

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "ok.run"
        path.write_text("q1 Q0 doc 1 -1.000000 tag\n\n")
        run = read_run(str(path))
        assert run.results == {"q1": [("doc", -1.0)]}
