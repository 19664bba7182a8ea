import numpy as np
import pytest

from termdep.corpus import Document, PositionalIndex
from termdep.windows import extract_windows

from oracles import brute_force_window_stats, brute_force_windows


def make_index(docs):
    index = PositionalIndex()
    for doc_id, tokens in docs:
        index.add_document(Document(doc_id, tuple(tokens)))
    return index


def random_corpus(rng, n_docs=5, vocab_size=8, max_len=60):
    vocab = [f"w{i}" for i in range(vocab_size)]
    docs = []
    for d in range(n_docs):
        length = int(rng.integers(1, max_len))
        docs.append((f"d{d}", [vocab[i] for i in rng.integers(0, vocab_size, length)]))
    return docs


class TestExtractWindows:
    def test_one_window_per_occurrence_with_clipping(self):
        # "a" at positions 0 and 3 of a 5-token doc; n=1 clips at the start.
        docs = [("d1", ["a", "b", "c", "a", "b"])]
        ws = extract_windows(make_index(docs), ["a"], n=1)
        assert len(ws.windows) == 2
        assert ws.windows[0].counts == {"a": 1, "b": 1}
        assert ws.windows[0].size == 2
        assert ws.windows[1].counts == {"a": 1, "b": 1, "c": 1}
        assert ws.windows[1].size == 3

    def test_center_counts_toward_content(self):
        ws = extract_windows(make_index([("d1", ["x"])]), ["x"], n=5)
        assert ws.windows[0].counts == {"x": 1}
        assert ws.windows[0].size == 1

    def test_duplicate_windows_kept(self):
        # Adjacent occurrences yield overlapping but separate windows.
        ws = extract_windows(make_index([("d1", ["a", "a"])]), ["a"], n=5)
        assert len(ws.windows) == 2
        assert ws.windows[0].counts == ws.windows[1].counts

    def test_phrase_window_spans_occurrence(self):
        docs = [("d1", ["x", "red", "tape", "y", "z"])]
        ws = extract_windows(make_index(docs), ["red", "tape"], n=1)
        assert len(ws.windows) == 1
        # n + len(phrase) + n tokens, clipped: x red tape y
        assert ws.windows[0].counts == {"x": 1, "red": 1, "tape": 1, "y": 1}
        assert ws.windows[0].position == 1

    def test_absent_target_gives_empty_set(self):
        ws = extract_windows(make_index([("d1", ["a"])]), ["zzz"], n=2)
        assert ws.windows == []
        assert ws.stats.n_windows == 0

    def test_rejects_bad_arguments(self):
        index = make_index([("d1", ["a"])])
        with pytest.raises(ValueError):
            extract_windows(index, [], n=5)
        with pytest.raises(ValueError):
            extract_windows(index, ["a"], n=-1)


class TestWindowStats:
    def test_stats_on_hand_example(self):
        # "a" centered in d1 keeps its full 3-token window; the d2
        # occurrence clips to 2 tokens at the document edge.
        docs = [("d1", ["b", "a", "b"]), ("d2", ["b", "a"])]
        ws = extract_windows(make_index(docs), ["a"], n=1)
        s = ws.stats
        assert s.n_windows == 2
        assert len(s.ids["a"]) == 2
        assert len(s.ids["b"]) == 2
        assert s.max_f == [2, 1]
        np.testing.assert_allclose(s.av_m, (3 + 2) / 2)
        assert s.total_mass == 5
        assert ws.window_cf == {"a": 2, "b": 3}

    def test_counts_sum_to_size_always(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            docs = random_corpus(rng)
            index = make_index(docs)
            term = f"w{int(rng.integers(0, 8))}"
            ws = extract_windows(index, [term], n=int(rng.integers(0, 7)))
            for w in ws.windows:
                assert sum(w.counts.values()) == w.size

    def test_windows_for_lists_containing_windows(self):
        docs = [("d1", ["a", "b"]), ("d2", ["a", "c"])]
        ws = extract_windows(make_index(docs), ["a"], n=1)
        assert ws.windows_for("b") == [0]
        assert ws.windows_for("c") == [1]
        assert ws.windows_for("a") == [0, 1]
        assert ws.windows_for("zzz") == []


class TestAgainstBruteForce:
    def test_random_corpora_match_quadratic_reference(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            docs = random_corpus(
                rng,
                n_docs=int(rng.integers(2, 10)),
                vocab_size=int(rng.integers(3, 12)),
            )
            index = make_index(docs)
            n = int(rng.integers(0, 8))
            span = int(rng.integers(1, 3))
            vocab = sorted({t for _, toks in docs for t in toks})
            target = [vocab[i] for i in rng.integers(0, len(vocab), span)]
            ws = extract_windows(index, target, n=n)
            ref = brute_force_windows(docs, target, n)
            assert len(ws.windows) == len(ref)
            for got, (doc_id, pos, counts, size) in zip(ws.windows, ref):
                assert (got.doc_id, got.position) == (doc_id, pos)
                assert got.counts == counts
                assert got.size == size
            ref_stats = brute_force_window_stats(ref)
            assert ws.stats.n_windows == ref_stats["n_windows"]
            assert ws.stats.max_f == ref_stats["max_f"]
            containing = {t: len(ids) for t, ids in ws.stats.ids.items()}
            assert containing == ref_stats["windows_containing"]
            np.testing.assert_allclose(ws.stats.av_m, ref_stats["av_m"])
