"""Acceptance suite: ten end-to-end checks, one printed PASS/FAIL line each.

Every criterion verifies observable behavior against an independent
reference, a hand computation, or an engineered fixture; tolerances are
1e-9 for formulas, metrics, and probability sums, 1e-6 for the
Good-Turing reference, and exact byte equality for run-file identities.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from termdep.cli import DEFAULT_MU_GRID, DEFAULT_THETA_GRID, build_parser
from termdep.corpus import Document, PositionalIndex, Query, tokenize
from termdep.evaluation import CvPlan, Qrels, cross_validate, evaluate
from termdep.fixtures import planted_pair, retrieval_fixture
from termdep.langmodel import SmoothedLM, kld, laplace_lm, sgt_lm
from termdep.perturb import SynonymLexicon
from termdep.retrieval import RankedRun, RankingConfig, rank, write_run
from termdep.scoring import VARIANTS, NcdScore, score_batch, select_dependent
from termdep.vectors import SCHEMES, TermVector, build_term_vector, cosine_distance, weight
from termdep.windows import extract_windows

from oracles import (
    brute_force_window_stats,
    brute_force_windows,
    ref_metrics,
    ref_simple_good_turing,
    ref_weight,
)


@contextmanager
def criterion(capsys, num, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"[C{num}] {label}: {'PASS' if ok else 'FAIL'}")


def build_index(docs):
    index = PositionalIndex()
    for doc_id, text in docs:
        index.add_document(Document(doc_id, tuple(tokenize(text))))
    return index


def make_query(qid, text):
    return Query(qid, text, tuple(tokenize(text)))


@pytest.fixture(scope="module")
def retrieval_state():
    fx = retrieval_fixture()
    index = build_index(fx.docs)
    queries = [make_query(qid, text) for qid, text in fx.queries]
    lexicon = SynonymLexicon(entries={h: list(s) for h, s in fx.lexicon.items()})
    qrels = Qrels(judgments=dict(fx.qrels))
    return index, queries, lexicon, qrels


def random_corpus(rng, max_total=10_000):
    vocab = [f"w{k}" for k in range(int(rng.integers(6, 16)))]
    docs = []
    total = 0
    for d in range(int(rng.integers(3, 25))):
        length = int(rng.integers(1, 420))
        if total + length > max_total:
            break
        total += length
        docs.append((f"d{d:02d}", [str(t) for t in rng.choice(vocab, size=length)]))
    if not docs:
        docs = [("d00", ["w0", "w1", "w0"])]
    return docs


def test_c1_window_extraction_oracle(capsys):
    label = "window extraction equals quadratic reference on 20 random corpora"
    with criterion(capsys, 1, label):
        start = time.monotonic()
        rng = np.random.default_rng(1001)
        for trial in range(20):
            docs = random_corpus(rng)
            index = PositionalIndex()
            for doc_id, tokens in docs:
                index.add_document(Document(doc_id, tuple(tokens)))
            vocab = sorted({t for _, toks in docs for t in toks})
            n = int(rng.integers(0, 7))
            targets = [(str(rng.choice(vocab)),) for _ in range(3)]
            targets += [
                (str(rng.choice(vocab)), str(rng.choice(vocab))) for _ in range(2)
            ]
            for target in targets:
                ws = extract_windows(index, target, n=n)
                ref = brute_force_windows(docs, target, n=n)
                assert len(ws.windows) == len(ref)
                for got, (doc_id, pos, counts, size) in zip(ws.windows, ref):
                    assert got.doc_id == doc_id
                    assert got.position == pos
                    assert got.counts == counts
                    assert got.size == size
                stats = brute_force_window_stats(ref)
                assert ws.stats.n_windows == stats["n_windows"]
                assert ws.stats.av_m == stats["av_m"]
                assert ws.stats.max_f == stats["max_f"]
                containing = {t: len(ids) for t, ids in ws.stats.ids.items()}
                assert containing == stats["windows_containing"]
        assert time.monotonic() - start < 10.0


def test_c2_weighting_formula_oracle(capsys):
    label = "five weighting formulas match direct evaluation to 1e-9; atc unit-norm"
    with criterion(capsys, 2, label):
        rng = np.random.default_rng(1002)
        for trial in range(200):
            n_windows = int(rng.integers(1, 200))
            n_t = int(rng.integers(1, n_windows + 1))
            max_f = int(rng.integers(1, 12))
            f_it = int(rng.integers(1, max_f + 1))
            m_i = int(rng.integers(max(1, max_f), 40))
            av_m = float(rng.uniform(1.0, 40.0))
            cf_t = f_it + int(rng.integers(0, 50))
            total_mass = m_i + int(rng.integers(1, 500))
            for scheme in SCHEMES:
                got = weight(
                    scheme,
                    f_it=f_it,
                    n_t=n_t,
                    n_windows=n_windows,
                    m_i=m_i,
                    av_m=av_m,
                    max_f=max_f,
                    cf_t=cf_t,
                    total_mass=total_mass,
                )
                want = ref_weight(
                    scheme, f_it, n_t, n_windows, m_i, av_m, max_f, cf_t, total_mass
                )
                np.testing.assert_allclose(got, want, atol=1e-9)

        # ATC normalization happens inside the vector build: each context
        # term's per-window weights form a unit-norm vector before the
        # mean, reproduced here from the raw formula alone.
        for trial in range(10):
            docs = random_corpus(rng, max_total=800)
            index = PositionalIndex()
            for doc_id, tokens in docs:
                index.add_document(Document(doc_id, tuple(tokens)))
            term = docs[0][1][0]
            ws = extract_windows(index, (term,), n=3)
            tv = build_term_vector(ws, "atc")
            for t, containing in ws.stats.ids.items():
                ids = ws.windows_for(t)
                raw = [
                    ref_weight(
                        "atc",
                        ws.windows[i].counts[t],
                        len(containing),
                        ws.stats.n_windows,
                        ws.windows[i].size,
                        ws.stats.av_m,
                        ws.stats.max_f[i],
                    )
                    for i in ids
                ]
                norm = math.sqrt(sum(v * v for v in raw))
                if norm > 0.0:
                    normed = [v / norm for v in raw]
                    np.testing.assert_allclose(
                        sum(v * v for v in normed), 1.0, atol=1e-9
                    )
                    np.testing.assert_allclose(
                        tv.weights[t], sum(normed) / len(ids), atol=1e-9
                    )


def test_c3_smoothing_contracts(capsys):
    label = "smoothed models sum to 1; good-turing matches reference; kld positive"
    with criterion(capsys, 3, label):
        rng = np.random.default_rng(1003)
        words = [f"v{k}" for k in range(40)]

        for trial in range(100):
            support = rng.choice(words, size=int(rng.integers(2, 20)), replace=False)
            counts = {str(w): int(rng.integers(1, 9)) for w in support}
            if trial % 2 == 0:
                counts[str(support[0])] = 1
            extra = {str(w) for w in rng.choice(words, size=5)}
            lap = laplace_lm(counts, set(counts) | extra)
            np.testing.assert_allclose(sum(lap.prob.values()), 1.0, atol=1e-9)
            sgt = sgt_lm(counts)
            np.testing.assert_allclose(
                sum(sgt.prob.values()) + sgt.unseen_mass, 1.0, atol=1e-9
            )

        for trial in range(50):
            support = rng.choice(words, size=int(rng.integers(2, 20)), replace=False)
            counts = {str(w): int(rng.integers(1, 9)) for w in support}
            counts[str(support[0])] = 1
            sgt = sgt_lm(counts)
            ref_prob, ref_unseen = ref_simple_good_turing(counts)
            np.testing.assert_allclose(sgt.unseen_mass, ref_unseen, atol=1e-6)
            for w, p in ref_prob.items():
                np.testing.assert_allclose(sgt.prob[w], p, atol=1e-6)

        vocab = [f"k{j}" for j in range(12)]
        for trial in range(500):
            counts_p = {w: int(rng.integers(0, 9)) for w in vocab}
            counts_q = {w: int(rng.integers(0, 9)) for w in vocab}
            p = laplace_lm({w: c for w, c in counts_p.items() if c}, set(vocab))
            q = laplace_lm({w: c for w, c in counts_q.items() if c}, set(vocab))
            np.testing.assert_allclose(kld(p, p, vocabulary=vocab), 0.0, atol=1e-12)
            assert kld(p, q, vocabulary=vocab) >= -1e-12


def test_c4_divergence_geometry(capsys):
    label = "cosine distance: self 0, symmetric, scale-invariant, within [0,2]"
    with criterion(capsys, 4, label):
        rng = np.random.default_rng(1004)
        keys = [f"k{j}" for j in range(20)]
        for trial in range(500):
            support_u = rng.choice(keys, size=int(rng.integers(1, 12)), replace=False)
            support_v = rng.choice(keys, size=int(rng.integers(1, 12)), replace=False)
            u = TermVector("u", {str(k): float(rng.normal()) for k in support_u})
            v = TermVector("v", {str(k): float(rng.normal()) for k in support_v})

            d_uu, _ = cosine_distance(u, u)
            np.testing.assert_allclose(d_uu, 0.0, atol=1e-9)

            d_uv, deg_uv = cosine_distance(u, v)
            d_vu, deg_vu = cosine_distance(v, u)
            np.testing.assert_allclose(d_uv, d_vu, atol=1e-12)
            assert deg_uv == deg_vu
            assert -1e-12 <= d_uv <= 2.0 + 1e-12

            alpha = float(rng.uniform(0.1, 50.0))
            scaled = TermVector("u", {k: alpha * w for k, w in u.weights.items()})
            d_scaled, _ = cosine_distance(scaled, v)
            np.testing.assert_allclose(d_scaled, d_uv, atol=1e-9)

        zero = TermVector("z", {})
        other = TermVector("o", {"k0": 1.0})
        assert cosine_distance(zero, other) == (1.0, True)


def test_c5_mode_identities(capsys, tmp_path, retrieval_state):
    label = "selective(0)=bow, selective(all)=fd, single-term modes coincide (bytes)"
    with criterion(capsys, 5, label):
        index, queries, _, _ = retrieval_state

        def run_bytes(name, config, batch, selected=None):
            run = rank(batch, index, config, selected=selected)
            path = tmp_path / name
            write_run(run, str(path), tag="t")
            return path.read_bytes()

        bow = run_bytes("bow.run", RankingConfig(mode="bow"), queries)
        sel_none = run_bytes(
            "sel-none.run", RankingConfig(mode="selective"), queries, selected=[]
        )
        assert sel_none == bow

        fd = run_bytes("fd.run", RankingConfig(mode="fd"), queries)
        sel_all = run_bytes(
            "sel-all.run",
            RankingConfig(mode="selective"),
            queries,
            selected=[q.qid for q in queries],
        )
        assert sel_all == fd

        # A batch with a single-term tail query: selecting all scoreable
        # multi-term queries reproduces fd on exactly those queries.
        extended = queries + [make_query("q21", "term01a")]
        multi = [q.qid for q in queries]
        sel_ext = run_bytes(
            "sel-ext.run", RankingConfig(mode="selective"), extended, selected=multi
        )
        fd_ext = run_bytes("fd-ext.run", RankingConfig(mode="fd"), extended)
        by_qid_sel = {}
        by_qid_fd = {}
        for blob, into in ((sel_ext, by_qid_sel), (fd_ext, by_qid_fd)):
            for line in blob.decode().splitlines():
                into.setdefault(line.split()[0], []).append(line)
        for qid in multi:
            assert by_qid_sel[qid] == by_qid_fd[qid]

        single = [make_query("q21", "term01a")]
        outs = [
            run_bytes(f"single-{mode}.run", RankingConfig(mode=mode), single)
            for mode in ("bow", "sd", "fd")
        ]
        assert outs[0] == outs[1] == outs[2]


def test_c6_planted_compositionality_ordering(capsys):
    label = "all 13 variants rank the idiomatic query above the literal one"
    with criterion(capsys, 6, label):
        start = time.monotonic()
        fx = planted_pair()
        index = build_index(fx.docs)
        queries = [make_query(qid, text) for qid, text in fx.queries]
        lexicon = SynonymLexicon(entries={h: list(s) for h, s in fx.lexicon.items()})
        for variant in VARIANTS:
            scores = {s.qid: s for s in score_batch(queries, variant, index, lexicon)}
            assert scores["nc1"].scoreable, variant
            assert scores["c1"].scoreable, variant
            assert scores["nc1"].n_q > scores["c1"].n_q, variant
        assert time.monotonic() - start < 30.0


def test_c7_selection_invariance(capsys, retrieval_state):
    label = "monotone transforms of n_q never change the selected set"
    with criterion(capsys, 7, label):
        index, queries, lexicon, _ = retrieval_state
        scores = score_batch(queries, "vector:tfidf", index, lexicon)
        assert all(s.scoreable for s in scores)
        transforms = (lambda x: 10.0 * x, lambda x: x + 3.0, math.exp)
        for theta in range(1, len(scores)):
            base, _ = select_dependent(scores, theta)
            for transform in transforms:
                mapped = [
                    NcdScore(s.qid, s.variant, transform(s.n_q), list(s.divergences))
                    for s in scores
                ]
                shifted, _ = select_dependent(mapped, theta)
                assert shifted == base


def test_c8_metric_oracle(capsys):
    label = "map/ndcg@10/p@10 match the reference walker and hand values"
    with criterion(capsys, 8, label):
        rng = np.random.default_rng(1008)
        for trial in range(20):
            n_docs = int(rng.integers(5, 30))
            docs = [f"d{k:02d}" for k in range(n_docs)]
            depth = int(rng.integers(1, n_docs + 1))
            ranking = [str(d) for d in rng.permutation(docs)[:depth]]
            grades = {d: int(rng.integers(0, 4)) for d in docs if rng.random() < 0.6}
            if not any(g > 0 for g in grades.values()):
                grades[docs[0]] = 2
            run = RankedRun(results={"q": [(d, -float(i)) for i, d in enumerate(ranking)]})
            qrels = Qrels(judgments={("q", d): g for d, g in grades.items()})
            row = evaluate(run, qrels).per_query["q"]
            ap, ndcg, p10 = ref_metrics(ranking, grades)
            np.testing.assert_allclose(row["map"], ap, atol=1e-9)
            np.testing.assert_allclose(row["ndcg10"], ndcg, atol=1e-9)
            np.testing.assert_allclose(row["p10"], p10, atol=1e-9)

        run = RankedRun(results={"q": [("d1", -1.0), ("d2", -2.0), ("d3", -3.0)]})
        qrels = Qrels(judgments={("q", d): 1 for d in ("d1", "d2", "d3")})
        row = evaluate(run, qrels).per_query["q"]
        assert row["map"] == 1.0
        assert row["p10"] == 0.3

        run = RankedRun(results={"q": [("miss", -1.0), ("hit", -2.0)]})
        qrels = Qrels(judgments={("q", "hit"): 1})
        row = evaluate(run, qrels).per_query["q"]
        assert row["ndcg10"] == 1.0 / math.log2(3.0)
        np.testing.assert_allclose(row["ndcg10"], 0.6309, atol=5e-5)

        run = RankedRun(results={"q": []})
        qrels = Qrels(judgments={("q", "d1"): 2})
        assert evaluate(run, qrels).per_query["q"] == {
            "map": 0.0,
            "p10": 0.0,
            "ndcg10": 0.0,
        }


def test_c9_selective_retrieval_sanity(capsys, tmp_path, retrieval_state):
    label = "selective mode with oracle theta attains MAP >= fd and >= bow"
    with criterion(capsys, 9, label):
        start = time.monotonic()
        index, queries, lexicon, qrels = retrieval_state

        def pipeline(name):
            scores = score_batch(queries, "vector:tfidf", index, lexicon)
            selected, _ = select_dependent(scores, 10)
            runs = {
                "bow": rank(queries, index, RankingConfig(mode="bow")),
                "fd": rank(queries, index, RankingConfig(mode="fd")),
                "selective": rank(
                    queries,
                    index,
                    RankingConfig(mode="selective"),
                    selected=selected,
                ),
            }
            blobs = {}
            for mode, run in runs.items():
                path = tmp_path / f"{name}-{mode}.run"
                write_run(run, str(path), tag="t")
                blobs[mode] = path.read_bytes()
            means = {mode: evaluate(run, qrels).means["map"] for mode, run in runs.items()}
            return means, blobs

        means, first = pipeline("a")
        assert means["selective"] >= means["fd"]
        assert means["selective"] >= means["bow"]
        _, second = pipeline("b")
        assert first == second
        assert time.monotonic() - start < 60.0


def test_c10_grid_fidelity(capsys):
    label = "mu grid of 10, theta 1..45, and fold averaging match hand results"
    with criterion(capsys, 10, label):
        assert DEFAULT_MU_GRID == (
            100.0,
            500.0,
            800.0,
            1000.0,
            2000.0,
            3000.0,
            4000.0,
            5000.0,
            8000.0,
            10000.0,
        )
        assert len(DEFAULT_MU_GRID) == 10
        assert DEFAULT_THETA_GRID == tuple(range(1, 46))

        parser = build_parser()
        args = parser.parse_args(
            [
                "tune",
                "--corpus", "c", "--queries", "q", "--lexicon", "l",
                "--qrels", "r", "--out", "o",
            ]
        )
        assert tuple(args.mu_grid) == DEFAULT_MU_GRID
        assert tuple(args.theta_grid) == DEFAULT_THETA_GRID

        # Hand-checked 3-fold averaging over six queries and two configs:
        # theta=1 scores [1,1,1,1,0,0], theta=2 scores [.5,.5,.5,.5,1,1].
        # Fold 0 trains on 0.5 vs 0.75 -> theta 2, tests 0.5; folds 1-2
        # train on 0.75 vs 0.625 -> theta 1, test 0.5 each; mean 0.5.
        qids = ["q1", "q2", "q3", "q4", "q5", "q6"]
        table = {
            1: {"q1": 1, "q2": 1, "q3": 1, "q4": 1, "q5": 0, "q6": 0},
            2: {"q1": 2, "q2": 2, "q3": 2, "q4": 2, "q5": 1, "q6": 1},
        }
        qrels = Qrels(judgments={(q, f"{q}-rel"): 1 for q in qids})

        def run_for(mu, theta):
            results = {}
            for qid, placement in table[theta].items():
                rel = f"{qid}-rel"
                if placement == 1:
                    docs = [rel, f"{qid}-x1"]
                elif placement == 2:
                    docs = [f"{qid}-x1", rel]
                else:
                    docs = [f"{qid}-x1", f"{qid}-x2"]
                results[qid] = [(d, -float(i)) for i, d in enumerate(docs)]
            return RankedRun(results=results)

        plan = CvPlan(mu_grid=(100.0,), theta_grid=(1, 2))
        result = cross_validate(qids, run_for, qrels, plan)
        assert [theta for _, theta in result.fold_choices] == [2, 1, 1]
        np.testing.assert_allclose(result.fold_scores, [0.5, 0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(result.mean_score, 0.5, atol=1e-12)
