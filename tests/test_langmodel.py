import math

import numpy as np
import pytest

from termdep.langmodel import (
    SmoothedLM,
    _check_method,
    _combined,
    _masked,
    kld,
    laplace_lm,
    phrase_kld,
    sgt_lm,
)

from oracles import (
    ref_aligned_probs,
    ref_aligned_values,
    ref_combine_columns,
    ref_kld,
    ref_simple_good_turing,
)


def combine(columns, method):
    """Hand-made columns masked and merged as phrase_kld does, each value one word's."""
    _check_method(method)
    masked = [_masked(c, [1] * len(c), method) for c in columns]
    return _combined(masked, [1] * len(masked[0]) if masked else [], method)


def uniform(vocab):
    """A model giving every word of vocab the same probability."""
    return SmoothedLM("laplace", dict.fromkeys(vocab, 1.0 / len(vocab)), 0.0, 1.0 / len(vocab))


def random_counts(rng, max_vocab=30, max_count=12):
    vocab = [f"w{i}" for i in range(int(rng.integers(2, max_vocab)))]
    counts = {w: int(rng.integers(1, max_count)) for w in vocab}
    # Keep at least one hapax so simple Good-Turing stays applicable.
    counts[vocab[0]] = 1
    return counts


class TestLaplace:
    def test_uniform_on_zero_counts(self):
        lm = laplace_lm({}, {"a", "b", "c", "d"})
        for w in "abcd":
            np.testing.assert_allclose(lm.prob[w], 0.25)

    def test_hand_example(self):
        lm = laplace_lm({"a": 1}, {"a", "b"})
        np.testing.assert_allclose(lm.prob["a"], 2 / 3)
        np.testing.assert_allclose(lm.prob["b"], 1 / 3)
        np.testing.assert_allclose(lm.unseen_prob, 1 / 3)

    def test_sums_to_one(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            counts = random_counts(rng)
            extra = {f"x{i}" for i in range(int(rng.integers(0, 5)))}
            lm = laplace_lm(counts, set(counts) | extra)
            np.testing.assert_allclose(sum(lm.prob.values()), 1.0, atol=1e-9)

    def test_monotone_in_count(self):
        lm = laplace_lm({"a": 5, "b": 2, "c": 2}, {"a", "b", "c"})
        assert lm.prob["a"] > lm.prob["b"]
        np.testing.assert_allclose(lm.prob["b"], lm.prob["c"])

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            laplace_lm({}, set())

    def test_vocabulary_must_cover_counts(self):
        with pytest.raises(ValueError, match="cover"):
            laplace_lm({"a": 1}, {"b"})

    def test_column_is_the_aligned_model(self):
        # These add-one values do not fsum to exactly 1, so the comparison
        # keeps the renormalization that aligning the model applies: without
        # it, the divergence would come out different.
        counts = {"b": 2, "c": 5, "d": 5, "e": 5}
        vocab = ["a", "b", "c", "d", "e"]
        column = ref_aligned_probs(laplace_lm(counts, vocab), vocab)
        raw = [(counts.get(w, 0) + 1) / (17 + 5) for w in vocab]
        assert column != raw
        other = ref_aligned_probs(laplace_lm({"a": 1}, vocab), vocab)
        got = phrase_kld({"t": counts, "u": {"a": 1}}, ["t"], ["u"], "mult")
        assert got == ref_kld(
            ref_combine_columns([column], "mult"), ref_combine_columns([other], "mult")
        )
        assert got != ref_kld(
            ref_combine_columns([raw], "mult"), ref_combine_columns([other], "mult")
        )


class TestSimpleGoodTuring:
    def test_matches_reference_on_random_multisets(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            counts = random_counts(rng)
            lm = sgt_lm(counts)
            ref_probs, ref_unseen = ref_simple_good_turing(counts)
            for w, p in ref_probs.items():
                np.testing.assert_allclose(lm.prob[w], p, atol=1e-6)
            np.testing.assert_allclose(lm.unseen_mass, ref_unseen, atol=1e-6)

    def test_model_plus_unseen_sums_to_one(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            lm = sgt_lm(random_counts(rng))
            np.testing.assert_allclose(
                sum(lm.prob.values()) + lm.unseen_mass, 1.0, atol=1e-9
            )

    def test_all_hapax_splits_mass_between_seen_and_unseen(self):
        # Every term once: raw unseen mass ff_1/C = 1 matches raw seen mass
        # (r* = 2 per term, so 2 in total); renormalizing gives 1/3 unseen.
        lm = sgt_lm({"a": 1, "b": 1, "c": 1})
        np.testing.assert_allclose(lm.unseen_mass, 1 / 3, atol=1e-9)
        for w in "abc":
            np.testing.assert_allclose(lm.prob[w], 2 / 9, atol=1e-9)

    def test_hand_ff_pre_normalization_mass(self):
        # counts {a:3,b:1,c:1}: ff = {1:2, 3:1}, C = 5, so the raw unseen
        # reserve is ff_1/C = 2/5.  The common renormalization scales the
        # reserve and every seen value by the same factor, which the
        # reference reproduces; the two hapaxes must also stay equal.
        counts = {"a": 3, "b": 1, "c": 1}
        lm = sgt_lm(counts)
        ref_probs, ref_unseen = ref_simple_good_turing(counts)
        np.testing.assert_allclose(lm.unseen_mass, ref_unseen, atol=1e-12)
        np.testing.assert_allclose(lm.prob["b"], lm.prob["c"], atol=1e-12)
        np.testing.assert_allclose(
            lm.prob["b"] / lm.unseen_mass, ref_probs["b"] / ref_unseen, atol=1e-12
        )

    def test_no_hapax_falls_back_to_laplace(self):
        lm = sgt_lm({"a": 2, "b": 2})
        assert lm.method == "laplace"
        assert any("hapax" in d for d in lm.diagnostics)
        np.testing.assert_allclose(lm.prob["a"], 3 / 6)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            sgt_lm({})

    def test_zero_count_rejected(self):
        # With or without a hapax beside it, a zero count is not a count.
        for counts in ({"a": 0}, {"a": 1, "b": 0, "c": 2}):
            with pytest.raises(ValueError, match="counts must be >= 1, got 0"):
                sgt_lm(counts)


class TestAlignedProbs:
    def test_slot_order_leaves_each_words_value(self):
        # A vocabulary iterates in set order, so neither a word's value nor a
        # divergence may depend on the order it comes in.
        lm = sgt_lm({"a": 1, "b": 1, "c": 2})
        vocab = ["y", "c", "a", "x", "b"]
        for other in (sorted(vocab), vocab[::-1]):
            assert kld(lm, uniform(vocab), vocab) == kld(lm, uniform(vocab), other)

    def test_table_order_leaves_the_comparison(self):
        # phrase_kld reads its vocabulary off the tables in set order: neither
        # the order of a table's words nor the order of the terms may move it.
        tables = {"t": {"a": 2, "x": 1}, "u": {"a": 1, "b": 1, "c": 2}, "v": {"y": 3, "b": 1}}
        reordered = [
            {t: dict(reversed(c.items())) for t, c in tables.items()},
            dict(reversed(tables.items())),
            {t: dict(sorted(tables[t].items())) for t in ("u", "v", "t")},
        ]

        def compare(tabs, method, smoothing):
            models = {t: sgt_lm(c) for t, c in tabs.items()} if smoothing == "sgt" else None
            return phrase_kld(tabs, ["t", "u"], ["t", "v"], method, models)

        for smoothing in ("laplace", "sgt"):
            for method in ("qsum", "qavg", "mult", "median"):
                got = compare(tables, method, smoothing)
                assert all(compare(other, method, smoothing) == got for other in reordered)

    def test_seen_words_outside_the_vocabulary_ignored(self):
        # Two of the three seen words are left out; the one unseen word takes
        # the whole reserve before the column is renormalized.
        lm = sgt_lm({"a": 1, "b": 1, "c": 2})
        expected = ref_kld([lm.prob["a"], lm.unseen_mass], [0.5, 0.5])
        assert kld(lm, uniform("ax"), ["a", "x"]) == expected

    def test_laplace_fallback_fills_with_unseen_prob(self):
        lm = sgt_lm({"a": 2, "b": 2})
        assert lm.method == "laplace"
        raw = [lm.prob["a"], lm.prob["b"], lm.unseen_prob, lm.unseen_prob]
        assert kld(lm, uniform("abxy"), "abxy") == ref_kld(raw, [0.25] * 4)

    def test_covers_union_vocabulary_and_sums_to_one(self):
        lm = sgt_lm({"a": 1, "b": 1, "c": 2})
        vocab = ["a", "b", "c", "x", "y"]
        # The two unseen words split the reserve evenly.
        raw = [lm.prob["a"], lm.prob["b"], lm.prob["c"]] + [lm.unseen_mass / 2] * 2
        assert kld(lm, uniform(vocab), vocab) == ref_kld(raw, [0.2] * 5)
        # The union of the two models' vocabularies is the default.
        assert kld(lm, uniform(vocab)) == kld(lm, uniform(vocab), vocab)

    def test_no_unseen_words_renormalizes_seen(self):
        # Without the reserve the seen values sum to less than 1.
        lm = sgt_lm({"a": 1, "b": 1, "c": 2})
        raw = [lm.prob[w] for w in "abc"]
        assert math.fsum(raw) < 1.0
        assert kld(lm, uniform("abc"), "abc") == ref_kld(raw, [1 / 3] * 3)


class TestCombination:
    """combine over per-term models aligned on the sorted vocabulary."""

    def make_columns(self, *count_maps, smoothing="laplace"):
        vocab = set()
        for counts in count_maps:
            vocab |= set(counts)
        if smoothing == "laplace":
            models = [laplace_lm(c, vocab) for c in count_maps]
        else:
            models = [sgt_lm(c) for c in count_maps]
        vocab = sorted(vocab)
        return [ref_aligned_probs(m, vocab) for m in models], vocab

    def test_multiply_is_product_renormalized(self):
        cols, vocab = self.make_columns({"a": 2, "b": 1}, {"a": 1, "b": 2})
        combined = combine(cols, "mult")
        raw = [cols[0][i] * cols[1][i] for i in range(len(vocab))]
        total = sum(raw)
        for got, r in zip(combined, raw):
            np.testing.assert_allclose(got, r / total, atol=1e-12)

    def test_multiply_permutation_invariant(self):
        cols, _ = self.make_columns({"a": 3, "b": 1}, {"b": 4}, {"a": 1, "c": 2})
        fwd = combine(cols, "mult")
        rev = combine(cols[::-1], "mult")
        np.testing.assert_allclose(fwd, rev, rtol=1e-12)

    def test_median_hand_value(self):
        # Three aligned models with per-word columns (0.1, 0.2, 0.6) etc.
        models = [
            SmoothedLM("laplace", {"a": 0.1, "b": 0.9}, 0.0, 1e-6),
            SmoothedLM("laplace", {"a": 0.2, "b": 0.8}, 0.0, 1e-6),
            SmoothedLM("laplace", {"a": 0.6, "b": 0.4}, 0.0, 1e-6),
        ]
        combined = combine([ref_aligned_probs(m, "ab") for m in models], "median")
        np.testing.assert_allclose(combined[0], 0.2 / (0.2 + 0.8))

    def test_single_model_identity_for_mult_and_median(self):
        lm = laplace_lm({"a": 2, "b": 1}, {"a", "b", "c"})
        vocab = sorted(lm.vocabulary)
        for method in ("mult", "median"):
            combined = combine([ref_aligned_probs(lm, vocab)], method)
            for w, got in zip(vocab, combined):
                np.testing.assert_allclose(got, lm.prob[w], atol=1e-12)

    def test_quantile_band_suppresses_outliers(self):
        # "spike" sits above both models' interquartile bands, so it takes
        # the floor (the smallest contributed value) instead of its own mass.
        models = [
            SmoothedLM(
                "laplace",
                {"spike": 0.56, "a": 0.12, "b": 0.12, "c": 0.10, "d": 0.10},
                0.0,
                1e-6,
            ),
            SmoothedLM(
                "laplace",
                {"spike": 0.60, "a": 0.11, "b": 0.11, "c": 0.09, "d": 0.09},
                0.0,
                1e-6,
            ),
        ]
        vocab = sorted({"spike", "a", "b", "c", "d"})
        cols = [ref_aligned_probs(m, vocab) for m in models]
        combined = dict(zip(vocab, combine(cols, "qsum")))
        assert combined["spike"] < combined["a"]
        np.testing.assert_allclose(combined["spike"], combined["c"], atol=1e-12)
        np.testing.assert_allclose(sum(combined.values()), 1.0, atol=1e-9)

    def test_qavg_divides_by_contributor_count(self):
        models = [
            SmoothedLM("laplace", {"a": 0.5, "b": 0.3, "c": 0.2}, 0.0, 1e-6),
            SmoothedLM("laplace", {"a": 0.5, "b": 0.3, "c": 0.2}, 0.0, 1e-6),
        ]
        cols = [ref_aligned_probs(m, "abc") for m in models]
        np.testing.assert_allclose(
            combine(cols, "qsum"), combine(cols, "qavg"), atol=1e-12
        )

    def test_combined_model_sums_to_one(self):
        rng = np.random.default_rng(43)
        for method in ("qsum", "qavg", "mult", "median"):
            for smoothing in ("laplace", "sgt"):
                count_maps = [random_counts(rng) for _ in range(3)]
                cols, _ = self.make_columns(*count_maps, smoothing=smoothing)
                combined = combine(cols, method)
                np.testing.assert_allclose(sum(combined), 1.0, atol=1e-9)
                assert all(p > 0 for p in combined)

    def test_empty_model_list_rejected(self):
        with pytest.raises(ValueError):
            combine([], "mult")
        # An empty vocabulary gives empty columns; the quartiles would index
        # into them.
        for method in ("qsum", "qavg", "mult", "median"):
            for columns in ([[]], [[0.5, 0.5], []]):
                with pytest.raises(ValueError, match="vocabulary"):
                    combine(columns, method)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            combine([[1.0]], "geometric")
        with pytest.raises(ValueError, match="method"):
            phrase_kld({"t": {"a": 1}}, ["t"], ["t"], "geometric")

    def test_unequal_column_lengths_rejected(self):
        # zip would otherwise pair the words of misaligned columns silently.
        for method in ("qsum", "qavg", "mult", "median"):
            with pytest.raises(ValueError, match="differ in length"):
                combine([[0.5, 0.5], [0.2, 0.3, 0.5]], method)
            with pytest.raises(ValueError, match="differ in length"):
                combine([[0.5, 0.5], [0.5, 0.0, 0.5]], method)

    def test_quantile_methods_reject_a_band_reaching_zero(self):
        # A left-out value is marked 0.0, so a 0.0 inside the band could not be
        # told apart from it.  A 0.0 below the band is left out either way.
        for method in ("qsum", "qavg"):
            with pytest.raises(ValueError, match="positive band"):
                combine([[0.0, 0.0, 0.5, 0.5], [0.1, 0.2, 0.3, 0.4]], method)
            # The 0.0 below the band and the 0.5 above it both take the floor.
            combined = combine([[0.0, 0.2, 0.3, 0.5]], method)
            assert combined == ref_combine_columns([[0.0, 0.2, 0.3, 0.5]], method)
            assert combined[0] == combined[1] == combined[3] < combined[2]

    def test_shared_inputs_equal_reference_combination(self):
        # A comparison masks each term's column once and combines the masks
        # of both phrases; a repeated term contributes its mask twice.  Rows
        # of one, two and three columns must give the very floats of the
        # one-row-at-a-time reference, and so must the divergence.
        rng = np.random.default_rng(53)
        cases = [([{"a": 3, "b": 1}, {"b": 4, "c": 1}, {"a": 1, "c": 2}], "laplace")]
        for smoothing in ("laplace", "sgt"):
            cases += [([random_counts(rng) for _ in range(3)], smoothing) for _ in range(5)]
        picks = ([0, 1], [0, 0, 2], [2, 1, 0], [1], [1, 1])
        for count_maps, smoothing in cases:
            cols, vocab = self.make_columns(*count_maps, smoothing=smoothing)
            tables = dict(enumerate(count_maps))
            models = None
            if smoothing == "sgt":
                models = {i: sgt_lm(c) for i, c in tables.items()}
            for method in ("qsum", "qavg", "mult", "median"):
                for q_pick, p_pick in zip(picks, picks[1:] + picks[:1]):
                    expected = ref_combine_columns([cols[i] for i in q_pick], method)
                    assert combine([cols[i] for i in q_pick], method) == expected
                    lm_p = ref_combine_columns([cols[i] for i in p_pick], method)
                    got = phrase_kld(tables, q_pick, p_pick, method, models)
                    assert got == ref_kld(expected, lm_p)


class TestKld:
    def test_self_divergence_zero(self):
        lm = laplace_lm({"a": 2, "b": 1}, {"a", "b", "c"})
        np.testing.assert_allclose(kld(lm, lm), 0.0, atol=1e-12)

    def test_hand_value(self):
        p = SmoothedLM("laplace", {"a": 0.5, "b": 0.5}, 0.0, 1e-9)
        q = SmoothedLM("laplace", {"a": 0.9, "b": 0.1}, 0.0, 1e-9)
        expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        np.testing.assert_allclose(kld(p, q), expected)
        np.testing.assert_allclose(expected, 0.5108, atol=5e-5)

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(47)
        for _ in range(500):
            counts_p = random_counts(rng, max_vocab=10)
            counts_q = random_counts(rng, max_vocab=10)
            vocab = set(counts_p) | set(counts_q)
            p = laplace_lm(counts_p, vocab)
            q = laplace_lm(counts_q, vocab)
            d = kld(p, q, vocabulary=vocab)
            words = sorted(vocab)
            assert d >= 0.0
            assert d == ref_kld(ref_aligned_values(p, words), ref_aligned_values(q, words))

    def test_near_equal_lists_clamp_to_zero(self):
        # Unclamped, rounding makes this sum -2.47e-17.
        p = SmoothedLM("laplace", {"a": 0.2, "b": 0.1, "c": 0.15}, 0.0, 1e-9)
        q = SmoothedLM(
            "laplace", {"a": 0.19999999999999998, "b": 0.1, "c": 0.14999999999999997}, 0.0, 1e-9
        )
        assert kld(p, q) == 0.0

    def test_non_positive_probability_rejected(self):
        p = SmoothedLM("laplace", {"a": 0.0, "b": 1.0}, 0.0, 1e-9)
        q = SmoothedLM("laplace", {"a": 0.5, "b": 0.5}, 0.0, 1e-9)
        for first, second, name in ((p, q, "p"), (q, p, "q")):
            with pytest.raises(ValueError, match=f"^{name} assigns non-positive probability$"):
                kld(first, second)
        with pytest.raises(ValueError, match="no probability mass"):
            kld(q, q, [])

    def test_asymmetric_in_general(self):
        vocab = {"a", "b"}
        p = laplace_lm({"a": 5}, vocab)
        q = laplace_lm({"b": 5}, vocab)
        assert kld(p, q) != kld(q, p) or kld(p, q) > 0
