import math

import numpy as np
import pytest

from termdep.corpus import Document, PositionalIndex
from termdep.vectors import (
    SCHEMES,
    TermVector,
    build_term_vector,
    compose_query_vector,
    cosine_distance,
    weight,
)
from termdep.windows import extract_windows

from oracles import ref_cosine_distance, ref_weight


def windows_for(docs, term, n=5):
    index = PositionalIndex()
    for doc_id, tokens in docs:
        index.add_document(Document(doc_id, tuple(tokens)))
    return extract_windows(index, [term], n=n)


def random_stat_tuple(rng):
    n_windows = int(rng.integers(1, 200))
    n_t = int(rng.integers(1, n_windows + 1))
    max_f = int(rng.integers(1, 12))
    f_it = int(rng.integers(1, max_f + 1))
    m_i = int(rng.integers(max(1, max_f), 40))
    av_m = float(rng.uniform(1.0, 40.0))
    cf_t = f_it + int(rng.integers(0, 50))
    total_mass = m_i + int(rng.integers(1, 500))
    return dict(
        f_it=f_it, n_t=n_t, n_windows=n_windows, m_i=m_i,
        av_m=av_m, max_f=max_f, cf_t=cf_t, total_mass=total_mass,
    )


class TestWeightFormulas:
    def test_tfidf_hand_value(self):
        np.testing.assert_allclose(
            weight("tfidf", f_it=2, n_t=2, n_windows=4, m_i=5, av_m=5.0),
            math.log(2) * math.log(2),
        )

    def test_tfidf_single_occurrence_is_zero(self):
        assert weight("tfidf", f_it=1, n_t=3, n_windows=9, m_i=4, av_m=4.0) == 0.0

    def test_ltu_hand_value(self):
        got = weight("ltu", f_it=1, n_t=2, n_windows=4, m_i=6, av_m=6.0)
        np.testing.assert_allclose(got, math.log(2))

    def test_okapi_can_go_negative(self):
        # Common term: n_t almost N and f_it large makes the log negative.
        got = weight("okapi", f_it=5, n_t=9, n_windows=9, m_i=10, av_m=10.0, max_f=5)
        assert got < 0.0

    def test_mi_needs_mass_arguments(self):
        with pytest.raises(ValueError, match="cf_t"):
            weight("mi", f_it=1, n_t=1, n_windows=2, m_i=3, av_m=3.0)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            weight("bm25", f_it=1, n_t=1, n_windows=1, m_i=1, av_m=1.0)

    # Each row names its scheme among the keyword arguments.  The last six
    # are statistics no window set can produce: mi would divide by zero on
    # m_i=0 or cf_t=0, and atc would give a negative idf for n_t > N.
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(scheme="tfidf", f_it=0, n_t=1, n_windows=1, m_i=1, av_m=1.0), "f_it"),
            (dict(scheme="tfidf", f_it=1, n_t=0, n_windows=1, m_i=1, av_m=1.0), "n_t"),
            (dict(scheme="tfidf", f_it=1, n_t=1, n_windows=0, m_i=1, av_m=1.0), "n_windows"),
            (dict(scheme="tfidf", f_it=1, n_t=1, n_windows=1, m_i=1, av_m=0.0), "av_m"),
            (dict(scheme="atc", f_it=1, n_t=1, n_windows=1, m_i=1, av_m=1.0, max_f=0), "max_f"),
            (dict(scheme="atc", f_it=1, n_t=3, n_windows=2, m_i=1, av_m=1.0), "n_t"),
            (dict(scheme="tfidf", f_it=2, n_t=1, n_windows=1, m_i=1, av_m=1.0), "m_i"),
            (dict(scheme="atc", f_it=2, n_t=1, n_windows=1, m_i=2, av_m=1.0, max_f=1), "max_f"),
            (
                dict(scheme="mi", f_it=1, n_t=1, n_windows=1, m_i=0, av_m=1.0, cf_t=1, total_mass=1),
                "m_i",
            ),
            (
                dict(scheme="mi", f_it=1, n_t=1, n_windows=1, m_i=1, av_m=1.0, cf_t=0, total_mass=1),
                "cf_t",
            ),
            (
                dict(scheme="mi", f_it=1, n_t=1, n_windows=1, m_i=2, av_m=1.0, cf_t=1, total_mass=1),
                "total_mass",
            ),
        ],
    )
    def test_precondition_errors_name_the_statistic(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            weight(**kwargs)

    def test_matches_reference_on_random_tuples(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            stats = random_stat_tuple(rng)
            for scheme in SCHEMES:
                np.testing.assert_allclose(
                    weight(scheme, **stats),
                    ref_weight(scheme, **stats),
                    rtol=0,
                    atol=1e-9,
                )


class TestBuildTermVector:
    def test_single_window_equals_window_weights(self):
        ws = windows_for([("d1", ["a", "b", "b", "c"])], "a", n=3)
        tv = build_term_vector(ws, "mi")
        assert set(tv.weights) == {"a", "b", "c"}
        # One window: the mean is the raw weight itself.
        np.testing.assert_allclose(tv.weights["b"], math.log(2 * 4 / (2 * 4)))

    def test_mean_over_windows_containing_term(self):
        # "b" appears in one of two windows; mean over containing windows only.
        docs = [("d1", ["a", "b"]), ("d2", ["a", "c"])]
        ws = windows_for(docs, "a", n=1)
        tv = build_term_vector(ws, "mi")
        ref = math.log(1 * 4 / (1 * 2))
        np.testing.assert_allclose(tv.weights["b"], ref)

    def test_atc_weights_unit_norm_per_term(self):
        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(6)]
        for _ in range(10):
            docs = [
                (f"d{d}", [vocab[i] for i in rng.integers(0, 6, rng.integers(2, 30))])
                for d in range(4)
            ]
            term = vocab[int(rng.integers(0, 6))]
            ws = windows_for(docs, term, n=3)
            if not ws.n_windows:
                continue
            s = ws.stats
            for t, ids in s.ids.items():
                raw = [
                    weight(
                        "atc",
                        f_it=f,
                        n_t=len(ids),
                        n_windows=s.n_windows,
                        m_i=s.sizes[i],
                        av_m=s.av_m,
                        max_f=s.max_f[i],
                    )
                    for i, f in zip(ids, s.freqs(t))
                ]
                norm = math.sqrt(sum(v * v for v in raw))
                if norm > 0:
                    normed = [v / norm for v in raw]
                    np.testing.assert_allclose(
                        sum(v * v for v in normed), 1.0, atol=1e-9
                    )

    def test_zero_window_target_rejected(self):
        ws = windows_for([("d1", ["a"])], "zzz")
        with pytest.raises(ValueError, match="no context windows"):
            build_term_vector(ws, "tfidf")


class TestComposeQueryVector:
    def test_sparse_product_drops_unshared_keys(self):
        u = TermVector("t1", {"a": 2.0, "b": 3.0})
        v = TermVector("t2", {"a": 4.0, "c": 5.0})
        qv = compose_query_vector([u, v])
        assert qv.weights == {"a": 8.0}
        assert qv.term == "t1 t2"

    def test_single_vector_identity(self):
        u = TermVector("t1", {"a": 2.0})
        assert compose_query_vector([u]).weights == {"a": 2.0}

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            compose_query_vector([])

    def test_permutation_and_fold_invariance(self):
        rng = np.random.default_rng(13)
        keys = [f"k{i}" for i in range(8)]
        for _ in range(25):
            vectors = []
            for t in range(3):
                support = rng.choice(keys, size=rng.integers(2, 8), replace=False)
                vectors.append(
                    TermVector(f"t{t}", {k: float(rng.normal()) for k in support})
                )
            direct = compose_query_vector(vectors)
            shuffled = compose_query_vector(vectors[::-1])
            assert set(direct.weights) == set(shuffled.weights)
            for k in direct.weights:
                np.testing.assert_allclose(
                    direct.weights[k], shuffled.weights[k], rtol=1e-12
                )
            pairwise = compose_query_vector(vectors[:2])
            left = compose_query_vector(
                [TermVector("partial", pairwise.weights), vectors[2]]
            )
            for k in direct.weights:
                np.testing.assert_allclose(direct.weights[k], left.weights[k], rtol=1e-12)


class TestCosineDistance:
    def test_self_distance_zero(self):
        u = TermVector("t", {"a": 1.0, "b": 2.0})
        d, degenerate = cosine_distance(u, u)
        np.testing.assert_allclose(d, 0.0, atol=1e-12)
        assert not degenerate

    def test_rounding_clamped_at_zero(self):
        # Unclamped, 1 - dot/(|u||v|) for this vector against itself is
        # -2.2e-16: the rounded norm product falls just short of the dot.
        u = TermVector("t", {"a": 0.5, "b": 0.3})
        assert cosine_distance(u, u) == (0.0, False)

    def test_disjoint_supports_orthogonal(self):
        u = TermVector("t", {"a": 1.0})
        v = TermVector("t", {"b": 1.0})
        assert cosine_distance(u, v) == (1.0, False)

    def test_hand_value(self):
        u = TermVector("t", {"a": 1.0, "b": 1.0})
        v = TermVector("t", {"a": 1.0})
        d, _ = cosine_distance(u, v)
        np.testing.assert_allclose(d, 1.0 - 1.0 / math.sqrt(2))

    def test_zero_norm_falls_back_to_one(self):
        u = TermVector("t", {})
        v = TermVector("t", {"a": 1.0})
        assert cosine_distance(u, v) == (1.0, True)
        assert cosine_distance(v, TermVector("t", {"a": 0.0})) == (1.0, True)

    def test_random_pairs_match_reference_and_stay_in_range(self):
        rng = np.random.default_rng(17)
        keys = [f"k{i}" for i in range(10)]
        for _ in range(500):
            u = TermVector(
                "t",
                {k: float(rng.normal()) for k in rng.choice(keys, 4, replace=False)},
            )
            v = TermVector(
                "t",
                {k: float(rng.normal()) for k in rng.choice(keys, 4, replace=False)},
            )
            d_uv, _ = cosine_distance(u, v)
            d_vu, _ = cosine_distance(v, u)
            np.testing.assert_allclose(d_uv, ref_cosine_distance(u.weights, v.weights), atol=1e-9)
            np.testing.assert_allclose(d_uv, d_vu, atol=1e-12)
            assert 0.0 <= d_uv <= 2.0 + 1e-12
            scaled = TermVector("t", {k: 3.5 * w for k, w in u.weights.items()})
            d_scaled, _ = cosine_distance(scaled, v)
            np.testing.assert_allclose(d_scaled, d_uv, atol=1e-9)
