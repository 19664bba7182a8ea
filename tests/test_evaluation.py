"""Tests for MAP/NDCG@10/P@10 evaluation and 3-fold (mu, theta) tuning."""

import math

import numpy as np
import pytest

from termdep.evaluation import (
    CvPlan,
    MetricReport,
    Qrels,
    assign_folds,
    cross_validate,
    cross_validate_selective,
    evaluate,
    load_qrels,
    write_metric_report,
)
from termdep.retrieval import RankedRun

from oracles import ref_metrics


def run_of(rankings):
    return RankedRun(
        results={qid: [(doc, -float(i)) for i, doc in enumerate(docs)] for qid, docs in rankings.items()}
    )


def qrels_of(judgments):
    return Qrels(judgments=dict(judgments))


class TestQrelsLoading:
    def test_basic_rows(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 docA 2\nq1 0 docB 0\nq2 0 docC 1\n")
        qrels = load_qrels(str(path))
        assert qrels.judgments == {("q1", "docA"): 2, ("q1", "docB"): 0, ("q2", "docC"): 1}
        assert qrels.relevant_docs("q1") == {"docA": 2}

    def test_negative_grades_clamped(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 docA -2\n")
        qrels = load_qrels(str(path))
        assert qrels.judgments == {("q1", "docA"): 0}

    def test_later_duplicates_overwrite(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 docA 1\nq1 0 docA 3\n")
        qrels = load_qrels(str(path))
        assert qrels.judgments == {("q1", "docA"): 3}

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 docA\n")
        with pytest.raises(ValueError, match=r":1:"):
            load_qrels(str(path))

    def test_non_integer_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 docA high\n")
        with pytest.raises(ValueError, match="integer"):
            load_qrels(str(path))

    @pytest.mark.parametrize("grade", ["1_0", "\u0663", "\uff13", "1.0", "0x3", "+-1"])
    def test_lenient_integer_grades_rejected(self, tmp_path, grade):
        # int() takes the first three: a digit separator, an Arabic-Indic
        # and a fullwidth digit.  Only ASCII [+-]?[0-9]+ is a grade.
        path = tmp_path / "qrels.txt"
        path.write_text(f"q1 0 docA 1\nq1 0 docB {grade}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"qrels\.txt:2: grade .* must be an ASCII integer$"):
            load_qrels(str(path))

    def test_signed_and_zero_padded_grades_accepted(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 docA +3\nq1 0 docB -07\nq1 0 docC 0002\n")
        assert load_qrels(str(path)).judgments == {
            ("q1", "docA"): 3,
            ("q1", "docB"): 0,
            ("q1", "docC"): 2,
        }

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("\nq1 0 docA 1\n\n")
        assert load_qrels(str(path)).judgments == {("q1", "docA"): 1}

    def test_grade_above_ceiling_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 docA 1000\nq1 0 docB 1001\n")
        with pytest.raises(ValueError, match=r"qrels.txt:2: grade 1001 exceeds 1000$"):
            load_qrels(str(path))

    def test_ceiling_grade_keeps_ndcg_finite(self, tmp_path):
        path = tmp_path / "qrels.txt"
        docs = [f"d{i}" for i in range(12)]
        path.write_text("".join(f"q1 0 {doc} 1000\n" for doc in docs))
        report = evaluate(run_of({"q1": docs[::-1]}), load_qrels(str(path)))
        assert report.per_query["q1"]["ndcg10"] == 1.0


class TestIdealDcg:
    def test_hand_value_and_no_relevant_documents(self):
        qrels = qrels_of({("q1", "a"): 1, ("q1", "b"): 2, ("q1", "c"): 0, ("q2", "d"): 0})
        assert qrels.ideal_dcg("q1") == 3.0 + 1.0 / math.log2(3.0)
        assert qrels.ideal_dcg("q2") == 0.0
        assert qrels.ideal_dcg("unjudged") == 0.0

    def test_computed_once_per_qid_not_per_evaluation(self, monkeypatch):
        run = run_of({"q1": ["b", "a"]})
        qrels = qrels_of({("q1", "a"): 1, ("q1", "b"): 2})
        first = evaluate(run, qrels).per_query["q1"]["ndcg10"]

        def refuse(relevant):
            raise AssertionError("ideal DCG recomputed")

        monkeypatch.setattr("termdep.evaluation._ideal_dcg", refuse)
        assert evaluate(run, qrels).per_query["q1"]["ndcg10"] == first == 1.0


class TestHandMetrics:
    def test_perfect_prefix(self):
        run = run_of({"q1": ["d1", "d2", "d3", "d4"]})
        qrels = qrels_of({("q1", "d1"): 1, ("q1", "d2"): 1, ("q1", "d3"): 1})
        row = evaluate(run, qrels).per_query["q1"]
        np.testing.assert_allclose(row["map"], 1.0, atol=1e-12)
        np.testing.assert_allclose(row["p10"], 0.3, atol=1e-12)
        np.testing.assert_allclose(row["ndcg10"], 1.0, atol=1e-12)

    def test_single_relevant_at_rank_two(self):
        run = run_of({"q1": ["miss", "hit"]})
        qrels = qrels_of({("q1", "hit"): 1})
        row = evaluate(run, qrels).per_query["q1"]
        np.testing.assert_allclose(row["ndcg10"], 1.0 / math.log2(3.0), atol=1e-12)
        np.testing.assert_allclose(row["ndcg10"], 0.6309, atol=5e-5)
        np.testing.assert_allclose(row["map"], 0.5, atol=1e-12)
        np.testing.assert_allclose(row["p10"], 0.1, atol=1e-12)

    def test_empty_run_scores_zero(self):
        run = run_of({"q1": []})
        qrels = qrels_of({("q1", "docA"): 2})
        row = evaluate(run, qrels).per_query["q1"]
        assert row == {"map": 0.0, "p10": 0.0, "ndcg10": 0.0}

    def test_unretrieved_relevant_counts_against_recall(self):
        run = run_of({"q1": ["d1"]})
        qrels = qrels_of({("q1", "d1"): 1, ("q1", "d9"): 1})
        row = evaluate(run, qrels).per_query["q1"]
        np.testing.assert_allclose(row["map"], 0.5, atol=1e-12)

    def test_graded_ideal_ordering(self):
        # Run puts grade 1 first and grade 2 second; the ideal swaps them.
        run = run_of({"q1": ["low", "high"]})
        qrels = qrels_of({("q1", "low"): 1, ("q1", "high"): 2})
        row = evaluate(run, qrels).per_query["q1"]
        dcg = 1.0 / math.log2(2.0) + 3.0 / math.log2(3.0)
        idcg = 3.0 / math.log2(2.0) + 1.0 / math.log2(3.0)
        np.testing.assert_allclose(row["ndcg10"], dcg / idcg, atol=1e-12)

    def test_map_at_run_depth(self):
        # Relevant doc at rank 11 still contributes to MAP but not to the
        # top-10 measures.
        docs = [f"x{i}" for i in range(10)] + ["rel"]
        run = run_of({"q1": docs})
        qrels = qrels_of({("q1", "rel"): 1})
        row = evaluate(run, qrels).per_query["q1"]
        np.testing.assert_allclose(row["map"], 1.0 / 11.0, atol=1e-12)
        assert row["p10"] == 0.0
        assert row["ndcg10"] == 0.0


class TestEvaluateBatch:
    def test_unjudged_qid_dropped_with_diagnostic(self):
        run = run_of({"q1": ["d1"], "q9": ["d1"]})
        qrels = qrels_of({("q1", "d1"): 1})
        report = evaluate(run, qrels)
        assert "q9" not in report.per_query
        assert any("q9" in d for d in report.diagnostics)
        np.testing.assert_allclose(report.means["map"], 1.0, atol=1e-12)

    def test_zero_relevant_excluded_from_means(self):
        run = run_of({"q1": ["d1"], "q2": ["d2"]})
        qrels = qrels_of({("q1", "d1"): 1, ("q2", "d2"): 0})
        report = evaluate(run, qrels)
        assert list(report.per_query) == ["q1"]
        assert any("no relevant" in d for d in report.diagnostics)

    def test_all_dropped_means_zero(self):
        run = run_of({"q9": ["d1"]})
        report = evaluate(run, qrels_of({("q1", "d1"): 1}))
        assert report.per_query == {}
        assert report.means == {"map": 0.0, "ndcg10": 0.0, "p10": 0.0}

    def test_means_average_per_query_rows(self):
        run = run_of({"q1": ["a", "b"], "q2": ["x", "rel"]})
        qrels = qrels_of({("q1", "a"): 1, ("q2", "rel"): 1})
        report = evaluate(run, qrels)
        np.testing.assert_allclose(report.means["map"], (1.0 + 0.5) / 2.0, atol=1e-12)

    def test_means_are_exactly_rounded(self):
        # P@10 of 0.1, 0.2 and 0.3.  Adding them left to right rounds
        # differently from the exact sum, so only a mean taken with
        # math.fsum is the same on every Python version.
        run = run_of({f"q{k}": [f"q{k}-{i}" for i in range(k)] for k in (1, 2, 3)})
        qrels = qrels_of({(f"q{k}", f"q{k}-{i}"): 1 for k in (1, 2, 3) for i in range(k)})
        report = evaluate(run, qrels)
        assert [row["p10"] for row in report.per_query.values()] == [0.1, 0.2, 0.3]
        assert (0.1 + 0.2 + 0.3) / 3 != math.fsum([0.1, 0.2, 0.3]) / 3
        assert report.means["p10"] == math.fsum([0.1, 0.2, 0.3]) / 3


class TestRandomAgainstReference:
    def test_twenty_random_fixtures(self):
        rng = np.random.default_rng(808)
        for trial in range(20):
            n_docs = int(rng.integers(5, 30))
            docs = [f"d{k:02d}" for k in range(n_docs)]
            ranking = list(rng.permutation(docs))[: int(rng.integers(1, n_docs + 1))]
            grades = {d: int(rng.integers(0, 4)) for d in docs if rng.random() < 0.6}
            if not any(g > 0 for g in grades.values()):
                grades[docs[0]] = 2
            run = run_of({"q1": ranking})
            qrels = qrels_of({("q1", d): g for d, g in grades.items()})
            row = evaluate(run, qrels).per_query["q1"]
            ap, ndcg, p10 = ref_metrics(ranking, {d: g for d, g in grades.items()})
            np.testing.assert_allclose(row["map"], ap, atol=1e-9)
            np.testing.assert_allclose(row["ndcg10"], ndcg, atol=1e-9)
            np.testing.assert_allclose(row["p10"], p10, atol=1e-9)
            for value in row.values():
                assert 0.0 <= value <= 1.0


class TestMetricReportFile:
    def test_csv_layout(self, tmp_path):
        report = MetricReport(
            per_query={
                "q2": {"map": 0.5, "ndcg10": 0.25, "p10": 0.1},
                "q1": {"map": 1.0, "ndcg10": 1.0, "p10": 0.3},
            },
            means={"map": 0.75, "ndcg10": 0.625, "p10": 0.2},
        )
        path = tmp_path / "report.csv"
        write_metric_report(report, str(path))
        assert path.read_text() == (
            "qid,map,ndcg10,p10\n"
            "q1,1.000000,1.000000,0.300000\n"
            "q2,0.500000,0.250000,0.100000\n"
            "all,0.750000,0.625000,0.200000\n"
        )


class TestFoldAssignment:
    def test_round_robin_over_sorted_qids(self):
        folds = assign_folds(["q3", "q1", "q2", "q6", "q5", "q4"])
        assert folds == [["q1", "q4"], ["q2", "q5"], ["q3", "q6"]]

    def test_partition_properties(self):
        rng = np.random.default_rng(909)
        for trial in range(20):
            qids = [f"q{k:03d}" for k in rng.choice(1000, size=int(rng.integers(3, 40)), replace=False)]
            folds = assign_folds(qids)
            flat = [q for fold in folds for q in fold]
            assert sorted(flat) == sorted(qids)
            assert len(flat) == len(set(flat))
            sizes = [len(f) for f in folds]
            assert max(sizes) - min(sizes) <= 1


class TestCvPlan:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            CvPlan(mu_grid=(), theta_grid=(1,))
        with pytest.raises(ValueError, match="non-empty"):
            CvPlan(mu_grid=(100.0,), theta_grid=())

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError, match="measure"):
            CvPlan(mu_grid=(100.0,), theta_grid=(1,), measure="recall")

    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), -float("inf"), 0.0, -5.0])
    def test_invalid_mu_entry_rejected(self, mu):
        with pytest.raises(ValueError, match="mu grid"):
            CvPlan(mu_grid=(100.0, mu), theta_grid=(1,))

    def test_negative_theta_entry_rejected(self):
        with pytest.raises(ValueError, match="theta grid"):
            CvPlan(mu_grid=(100.0,), theta_grid=(3, -1))


def single_relevant_run(placements):
    """Rank each qid's relevant doc at its placement (1-based), or absent (0).

    Every list holds at least two documents: 1 gives [rel, x1], 2 gives
    [x1, rel] and 0 gives [x1, x2].
    """
    rankings = {}
    for qid, placement in placements.items():
        ranking = [f"{qid}-x{i}" for i in range(1, max(placement, 2))]
        if placement:
            ranking.insert(placement - 1, f"{qid}-rel")
        else:
            ranking.append(f"{qid}-x2")
        rankings[qid] = ranking
    return run_of(rankings)


class TestCrossValidate:
    QIDS = ["q1", "q2", "q3", "q4", "q5", "q6"]

    def qrels(self):
        return qrels_of({(q, f"{q}-rel"): 1 for q in self.QIDS})

    def test_degenerate_grid_equals_plain_evaluation(self):
        placements = {"q1": 1, "q2": 2, "q3": 1, "q4": 2, "q5": 1, "q6": 2}
        run = single_relevant_run(placements)
        plan = CvPlan(mu_grid=(500.0,), theta_grid=(3,))
        result = cross_validate(self.QIDS, lambda mu, theta: run, self.qrels(), plan)
        expected = evaluate(run, self.qrels()).means["map"]
        np.testing.assert_allclose(result.mean_score, expected, atol=1e-12)
        assert result.fold_choices == [(500.0, 3)] * 3

    def test_dominant_theta_chosen_on_every_fold(self):
        # theta=2 places every relevant doc first; theta=1 places it second.
        def run_for(mu, theta):
            placement = 1 if theta == 2 else 2
            return single_relevant_run({q: placement for q in self.QIDS})

        plan = CvPlan(mu_grid=(100.0,), theta_grid=(1, 2))
        result = cross_validate(self.QIDS, run_for, self.qrels(), plan)
        assert [theta for _, theta in result.fold_choices] == [2, 2, 2]
        np.testing.assert_allclose(result.mean_score, 1.0, atol=1e-12)

    def test_ties_pick_smaller_mu_then_smaller_theta(self):
        run = single_relevant_run({q: 1 for q in self.QIDS})
        plan = CvPlan(mu_grid=(800.0, 100.0), theta_grid=(4, 2))
        result = cross_validate(self.QIDS, lambda mu, theta: run, self.qrels(), plan)
        assert result.fold_choices == [(100.0, 2)] * 3

    def test_hand_computed_fold_averaging(self):
        # AP table: theta=1 -> [1,1,1,1,0,0]; theta=2 -> [.5,.5,.5,.5,1,1].
        # Folds (sorted round-robin): [q1,q4], [q2,q5], [q3,q6].
        # Held-out fold 0 trains on q2,q3,q5,q6: theta=1 mean 0.5, theta=2
        # mean 0.75 -> pick theta=2, test (q1,q4) = 0.5.  Folds 1 and 2
        # train at 0.75 vs 0.625 -> pick theta=1, test 0.5 each.
        table = {
            1: {"q1": 1, "q2": 1, "q3": 1, "q4": 1, "q5": 0, "q6": 0},
            2: {"q1": 2, "q2": 2, "q3": 2, "q4": 2, "q5": 1, "q6": 1},
        }

        def run_for(mu, theta):
            return single_relevant_run(table[theta])

        plan = CvPlan(mu_grid=(100.0,), theta_grid=(1, 2))
        result = cross_validate(self.QIDS, run_for, self.qrels(), plan)
        assert [theta for _, theta in result.fold_choices] == [2, 1, 1]
        np.testing.assert_allclose(result.fold_scores, [0.5, 0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(result.mean_score, 0.5, atol=1e-12)

    def test_deterministic(self):
        placements = {"q1": 1, "q2": 2, "q3": 0, "q4": 1, "q5": 2, "q6": 1}
        run = single_relevant_run(placements)
        plan = CvPlan(mu_grid=(100.0, 500.0), theta_grid=(1, 2, 3))
        first = cross_validate(self.QIDS, lambda mu, theta: run, self.qrels(), plan)
        second = cross_validate(self.QIDS, lambda mu, theta: run, self.qrels(), plan)
        assert first == second

    def test_measure_selection_respected(self):
        placements = {q: 1 for q in self.QIDS}
        run = single_relevant_run(placements)
        plan = CvPlan(mu_grid=(100.0,), theta_grid=(1,), measure="p10")
        result = cross_validate(self.QIDS, lambda mu, theta: run, self.qrels(), plan)
        assert result.measure == "p10"
        np.testing.assert_allclose(result.mean_score, 0.1, atol=1e-12)

    def test_too_few_queries_rejected(self):
        plan = CvPlan(mu_grid=(100.0,), theta_grid=(1,))
        with pytest.raises(ValueError, match="at least 3"):
            cross_validate(["q1", "q2"], lambda mu, theta: RankedRun(), qrels_of({}), plan)

    def test_unjudged_queries_surface_in_diagnostics(self):
        placements = {q: 1 for q in self.QIDS}
        run = single_relevant_run(placements)
        qrels = qrels_of({(q, f"{q}-rel"): 1 for q in self.QIDS[:4]})
        plan = CvPlan(mu_grid=(100.0,), theta_grid=(1,))
        result = cross_validate(self.QIDS, lambda mu, theta: run, qrels, plan)
        assert any("q5" in d for d in result.diagnostics)
        assert any("q6" in d for d in result.diagnostics)

    def test_selective_variant_equals_run_variant(self):
        # cross_validate evaluates run_for once per grid point, mu-major.
        # Here fd places every relevant doc first and bow places it per
        # bow_at[mu]; the run at (mu, theta) is fd for the first theta of
        # order.  cross_validate_selective, given each mu's bow and fd
        # runs, gives an equal result, diagnostics included.
        order = ["q3", "q1", "q5"]
        bow_at = {
            100.0: {"q1": 2, "q2": 1, "q3": 0, "q4": 2, "q5": 2, "q6": 1},
            500.0: {"q1": 0, "q2": 2, "q3": 2, "q4": 1, "q5": 0, "q6": 2},
        }
        calls = []

        def run_for(mu, theta):
            calls.append((mu, theta))
            return single_relevant_run(
                {q: 1 if q in order[:theta] else p for q, p in bow_at[mu].items()}
            )

        qrels = qrels_of({(q, f"{q}-rel"): 1 for q in self.QIDS[:5]})
        plan = CvPlan(mu_grid=(500.0, 100.0), theta_grid=(2, 0))
        result = cross_validate(self.QIDS, run_for, qrels, plan)
        assert calls == [(100.0, 0), (100.0, 2), (500.0, 0), (500.0, 2)]
        fd = single_relevant_run({q: 1 for q in self.QIDS})
        runs = [(mu, single_relevant_run(bow_at[mu]), fd) for mu in sorted(bow_at)]
        assert result.diagnostics == ["qid q6 has no judgments; dropped"]
        assert cross_validate_selective(self.QIDS, order, runs, qrels, plan) == result

    def test_fold_means_are_exactly_rounded(self):
        # As for evaluate's means: average precisions 1/2, 1/3 and 1/7
        # (the relevant doc at ranks 2, 3 and 7) average to math.fsum's
        # mean, within a fold and across the folds; the builtin sum's
        # mean differs.
        plan = CvPlan(mu_grid=(100.0,), theta_grid=(0,))
        ranks = (2, 3, 7)
        values = [1 / r for r in ranks]
        mean = math.fsum(values) / 3
        assert sum(values) / 3 != mean
        # Folds [q1, q4, q7], [q2, q5, q8] and [q3, q6, q9] each hold all three values.
        qids = [f"q{k}" for k in range(1, 10)]
        run = single_relevant_run({q: ranks[(k - 1) // 3] for k, q in enumerate(qids, start=1)})
        qrels = qrels_of({(q, f"{q}-rel"): 1 for q in qids})
        result = cross_validate_selective(qids, [], [(100.0, run, run)], qrels, plan)
        assert result.fold_scores == [mean] * 3
        # One query per fold: the fold scores are the three values.
        run = single_relevant_run(dict(zip(["q1", "q2", "q3"], ranks)))
        result = cross_validate_selective(["q1", "q2", "q3"], [], [(100.0, run, run)], qrels, plan)
        assert result.fold_scores == values
        assert result.mean_score == mean

    def test_selective_too_few_queries_rejected(self):
        plan = CvPlan(mu_grid=(100.0,), theta_grid=(1,))
        runs = [(100.0, RankedRun(), RankedRun())]
        with pytest.raises(ValueError, match="at least 3"):
            cross_validate_selective(["q1", "q2"], [], runs, qrels_of({}), plan)
