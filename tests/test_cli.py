"""End-to-end tests of the command-line surface."""

import errno
import hashlib
import json
import os

import numpy as np
import pytest

from termdep.cli import COMMANDS, DEFAULT_MU_GRID, DEFAULT_THETA_GRID, build_parser, main
from termdep.corpus import ingest_corpus, load_queries, tokenize
from termdep.evaluation import MEASURES, CvPlan, cross_validate, load_qrels
from termdep.perturb import load_lexicon, perturb, targets
from termdep.retrieval import RankingConfig, rank, rank_mu_grid
from termdep.scoring import VARIANTS, score_batch, select_dependent

from oracles import brute_force_window_stats, brute_force_windows
from test_corpus import record_passes


def read_report_map(path):
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        qid, map_s, ndcg_s, p10_s = line.split(",")
        rows[qid] = float(map_s)
    return rows


@pytest.fixture(scope="module")
def planted_paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("planted")
    assert main(["fixture", "--kind", "planted", "--out", str(out)]) == 0
    return {
        "dir": out,
        "corpus": str(out / "corpus.jsonl"),
        "queries": str(out / "queries.tsv"),
        "lexicon": str(out / "lexicon.tsv"),
    }


@pytest.fixture(scope="module")
def retrieval_paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("retrieval")
    assert main(["fixture", "--kind", "retrieval", "--out", str(out)]) == 0
    return {
        "dir": out,
        "corpus": str(out / "corpus.jsonl"),
        "queries": str(out / "queries.tsv"),
        "lexicon": str(out / "lexicon.tsv"),
        "qrels": str(out / "qrels.txt"),
    }


def base_flags(paths):
    return ["--corpus", paths["corpus"], "--queries", paths["queries"]]


def assert_one_error_for_directory(capsys, path):
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(path)!r}"]


def forbid_loading_and_scoring(monkeypatch):
    """Make reading the inputs or scoring a query fail the test."""

    def no_load(args):
        raise AssertionError("inputs loaded before the arguments were checked")

    def no_scoring(*args, **kwargs):
        raise AssertionError("queries scored before the arguments were checked")

    monkeypatch.setattr("termdep.cli._load_inputs", no_load)
    monkeypatch.setattr("termdep.cli.score_batch", no_scoring)


def tune_reference(paths, plan):
    """The tune.json bytes of cross_validate over selective rank at every grid point."""
    index = ingest_corpus(paths["corpus"])
    queries = load_queries(paths["queries"])
    scores = score_batch(queries, "vector:tfidf", index, load_lexicon(paths["lexicon"]), n=5)

    def run_for(mu, theta):
        selected, _ = select_dependent(scores, theta)
        return rank(queries, index, RankingConfig(mu=mu, mode="selective"), selected=selected)

    result = cross_validate([q.qid for q in queries], run_for, load_qrels(paths["qrels"]), plan)
    payload = {
        "measure": result.measure,
        "folds": [
            {"mu": mu, "theta": theta, "score": score}
            for (mu, theta), score in zip(result.fold_choices, result.fold_scores)
        ],
        "mean_score": result.mean_score,
        "diagnostics": result.diagnostics,
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def assert_tune_matches_reference(paths, mu_grid, theta_grid, tmp_path):
    """Tune on the grids for every measure; each tune.json must equal tune_reference's.

    Each measure is scored on its own in tune, so each is checked.  Returns
    the payloads, keyed by measure.
    """
    payloads = {}
    for measure in MEASURES:
        out = tmp_path / f"tune-{measure}.json"
        code = main(
            [
                "tune",
                *base_flags(paths),
                "--lexicon",
                paths["lexicon"],
                "--qrels",
                paths["qrels"],
                "--measure",
                measure,
                "--mu-grid",
                *map(str, mu_grid),
                "--theta-grid",
                *map(str, theta_grid),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        plan = CvPlan(mu_grid=mu_grid, theta_grid=theta_grid, measure=measure)
        assert out.read_bytes() == tune_reference(paths, plan), measure
        payloads[measure] = json.loads(out.read_text())
    return payloads


class TestParser:
    """main builds only the named command's parser; what it prints must not show it."""

    @staticmethod
    def printed(parse, capsys):
        with pytest.raises(SystemExit) as exc:
            parse()
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    @pytest.mark.parametrize(
        "argv",
        [[command, "-h"] for command in COMMANDS]
        + [
            ["-h"],
            [],
            ["nope"],
            ["-x", "score"],
            ["score"],
            ["score", "--corpus"],
            ["score", "--variant", "lm:nope", "--corpus", "c"],
            ["score", "--bogus", "x"],
            ["index", "--corpus", "c", "--out", "o", "extra"],
            ["tune", "--theta-grid", "x"],
        ],
    )
    def test_help_and_usage_errors_match_the_full_parser(self, argv, capsys):
        expected = self.printed(lambda: build_parser().parse_args(argv), capsys)
        assert self.printed(lambda: main(argv), capsys) == expected
        assert expected[1] or expected[2]

    def test_one_command_parser_parses_as_the_full_one(self):
        argv = ["run", "--corpus", "c", "--queries", "q", "--mode", "fd", "--out", "o"]
        assert vars(build_parser("run").parse_args(argv)) == vars(build_parser().parse_args(argv))


class TestFixtureCommand:
    def test_planted_files_written(self, planted_paths, capsys):
        out = planted_paths["dir"]
        for name in ("corpus.jsonl", "queries.tsv", "lexicon.tsv", "qrels.txt"):
            assert (out / name).exists()

    def test_retrieval_corpus_size(self, retrieval_paths):
        lines = (retrieval_paths["dir"] / "corpus.jsonl").read_text().splitlines()
        assert len(lines) == 200

    def test_idempotent(self, tmp_path):
        first = tmp_path / "one"
        main(["fixture", "--kind", "planted", "--out", str(first)])
        before = (first / "corpus.jsonl").read_bytes()
        main(["fixture", "--kind", "planted", "--out", str(first)])
        assert (first / "corpus.jsonl").read_bytes() == before

    def test_prints_paths(self, tmp_path, capsys):
        main(["fixture", "--kind", "planted", "--out", str(tmp_path / "p")])
        out = capsys.readouterr().out
        assert "corpus:" in out and "qrels:" in out

    def test_directory_at_last_output_leaves_every_other_output(self, tmp_path, capsys):
        # A failed call writes nothing: not a new file, nor over an old one.
        (tmp_path / "corpus.jsonl").write_bytes(b"an older corpus\n")
        (tmp_path / "qrels.txt").mkdir()
        code = main(["fixture", "--kind", "planted", "--out", str(tmp_path)])
        assert code == 2
        assert_one_error_for_directory(capsys, tmp_path / "qrels.txt")
        assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl", "qrels.txt"]
        assert (tmp_path / "corpus.jsonl").read_bytes() == b"an older corpus\n"


class TestIndexCommand:
    def test_summary_contents(self, planted_paths, tmp_path):
        out = tmp_path / "stats.json"
        code = main(["index", "--corpus", planted_paths["corpus"], "--out", str(out)])
        assert code == 0
        stats = json.loads(out.read_text())
        assert stats["doc_count"] == 24
        assert stats["total_terms"] == 24 * 6
        lines = (planted_paths["dir"] / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        texts = [json.loads(line)["text"] for line in lines]
        assert stats["vocab_size"] == len({t for text in texts for t in tokenize(text)})

    def test_missing_corpus_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "stats.json"
        code = main(["index", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestWindowsCommand:
    def test_targets_include_synonyms(self, planted_paths, tmp_path):
        out = tmp_path / "windows.json"
        code = main(
            ["windows", *base_flags(planted_paths), "--lexicon", planted_paths["lexicon"], "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["format"] == 1
        assert payload["half_width"] == 5
        for term in ("red", "tape", "scarlet", "tax", "office", "bureau"):
            assert payload["targets"][term]["n_windows"] > 0

    def test_stats_equal_brute_force(self, planted_paths, tmp_path):
        out = tmp_path / "windows.json"
        code = main(
            ["windows", *base_flags(planted_paths), "--lexicon", planted_paths["lexicon"], "--out", str(out)]
        )
        assert code == 0
        targets = json.loads(out.read_text())["targets"]
        docs = list(ingest_corpus(planted_paths["corpus"]).doc_tokens.items())
        assert targets
        for term, got in targets.items():
            ref_windows = brute_force_windows(docs, (term,), 5)
            ref = brute_force_window_stats(ref_windows)
            assert got == {
                "n_windows": ref["n_windows"],
                "av_m": ref["av_m"],
                "total_mass": sum(size for *_, size in ref_windows),
                "vocab_size": len(ref["windows_containing"]),
            }, term

    def test_exports_exactly_the_perturbation_targets(self, retrieval_paths, tmp_path):
        out = tmp_path / "windows.json"
        argv = ["windows", *base_flags(retrieval_paths), "--lexicon", retrieval_paths["lexicon"]]
        assert main([*argv, "--out", str(out)]) == 0
        queries = load_queries(retrieval_paths["queries"])
        lexicon = load_lexicon(retrieval_paths["lexicon"])
        exported = set(json.loads(out.read_text())["targets"])
        assert exported == targets(queries, lexicon)
        replacements = {p.replacement for q in queries if q.m > 1 for p in perturb(q, lexicon)}
        assert replacements
        assert exported >= {t for q in queries for t in q.terms} | replacements


class TestScoreCommand:
    def test_scores_csv_and_selection(self, planted_paths, tmp_path):
        out = tmp_path / "scores.csv"
        code = main(
            [
                "score",
                *base_flags(planted_paths),
                "--lexicon",
                planted_paths["lexicon"],
                "--variant",
                "vector:tfidf",
                "--theta",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "qid,variant,n_q,scoreable,divergences"
        assert len(lines) == 3
        assert lines[1].startswith("nc1,vector:tfidf,1,true,")
        selected = (tmp_path / "selected.txt").read_text().split()
        assert selected == ["nc1"]

    def test_directory_at_selected_txt_leaves_scores_csv(self, planted_paths, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        out.write_bytes(b"older scores\n")
        (tmp_path / "selected.txt").mkdir()
        code = main(
            [
                "score",
                *base_flags(planted_paths),
                "--lexicon",
                planted_paths["lexicon"],
                "--variant",
                "vector:tfidf",
                "--theta",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert_one_error_for_directory(capsys, tmp_path / "selected.txt")
        assert sorted(os.listdir(tmp_path)) == ["scores.csv", "selected.txt"]
        assert out.read_bytes() == b"older scores\n"

    def test_unscoreable_rows_have_blank_score(self, planted_paths, tmp_path):
        queries = tmp_path / "queries.tsv"
        queries.write_text("nc1\tred tape\ns1\ttax\n")
        out = tmp_path / "scores.csv"
        main(
            [
                "score",
                "--corpus",
                planted_paths["corpus"],
                "--queries",
                str(queries),
                "--lexicon",
                planted_paths["lexicon"],
                "--variant",
                "lm:sgt:qsum",
                "--out",
                str(out),
            ]
        )
        rows = out.read_text().splitlines()
        assert rows[2] == "s1,lm:sgt:qsum,,false,"

    def test_deterministic_across_threads(self, planted_paths, tmp_path):
        outs = []
        for k, threads in enumerate(("1", "4", "4")):
            out = tmp_path / f"scores{k}.csv"
            main(
                [
                    "score",
                    *base_flags(planted_paths),
                    "--lexicon",
                    planted_paths["lexicon"],
                    "--variant",
                    "lm:laplace:median",
                    "--threads",
                    threads,
                    "--out",
                    str(out),
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_negative_window_fails_the_call(self, planted_paths, tmp_path, capsys):
        # Rejected once for the batch, not absorbed as unscoreable rows.
        out = tmp_path / "scores.csv"
        code = main(
            [
                "score",
                *base_flags(planted_paths),
                "--lexicon",
                planted_paths["lexicon"],
                "--variant",
                "vector:tfidf",
                "--window",
                "-1",
                "--theta",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "half-width" in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_negative_theta_rejected_before_scoring(
        self, planted_paths, tmp_path, capsys, monkeypatch
    ):
        forbid_loading_and_scoring(monkeypatch)
        code = main(
            [
                "score",
                *base_flags(planted_paths),
                "--lexicon",
                planted_paths["lexicon"],
                "--variant",
                "vector:tfidf",
                "--theta",
                "-1",
                "--out",
                str(tmp_path / "scores.csv"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: theta must be non-negative, got -1"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", [False, True])
    def test_out_at_selected_txt_rejected_before_reading(
        self, retrieval_paths, tmp_path, capsys, monkeypatch, existing
    ):
        # The selection would be written over the scores at the same path.
        forbid_loading_and_scoring(monkeypatch)
        out = tmp_path / "selected.txt"
        if existing:
            out.write_bytes(b"q02\nq04\n")
        code = main(
            [
                "score",
                *base_flags(retrieval_paths),
                "--lexicon",
                retrieval_paths["lexicon"],
                "--variant",
                "vector:tfidf",
                "--theta",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --out {out} is the selected.txt that --theta writes"]
        assert list(tmp_path.iterdir()) == ([out] if existing else [])
        if existing:
            assert out.read_bytes() == b"q02\nq04\n"

    def test_out_hard_linked_to_selected_txt_rejected_before_reading(
        self, retrieval_paths, tmp_path, capsys, monkeypatch
    ):
        # write_lines writes a hard-linked file in place, so the selection
        # would land in the scores' inode; realpath does not see the link.
        forbid_loading_and_scoring(monkeypatch)
        out, selected = tmp_path / "scores.csv", tmp_path / "selected.txt"
        selected.write_bytes(b"q02\nq04\n")
        os.link(selected, out)
        code = main(
            [
                "score",
                *base_flags(retrieval_paths),
                "--lexicon",
                retrieval_paths["lexicon"],
                "--variant",
                "vector:tfidf",
                "--theta",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --out {out} is the selected.txt that --theta writes"]
        assert sorted(tmp_path.iterdir()) == [out, selected]
        assert out.read_bytes() == selected.read_bytes() == b"q02\nq04\n"

    def test_empty_lexicon_rejected_before_reading(
        self, planted_paths, tmp_path, capsys, monkeypatch
    ):
        forbid_loading_and_scoring(monkeypatch)
        code = main(
            [
                "score",
                *base_flags(planted_paths),
                "--lexicon",
                "",
                "--variant",
                "vector:tfidf",
                "--out",
                str(tmp_path / "scores.csv"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: score requires --lexicon"]
        assert list(tmp_path.iterdir()) == []

    def test_unknown_variant_rejected_by_parser(self, planted_paths, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "score",
                    *base_flags(planted_paths),
                    "--lexicon",
                    planted_paths["lexicon"],
                    "--variant",
                    "vector:bm25",
                    "--out",
                    str(tmp_path / "x.csv"),
                ]
            )


class TestRunCommand:
    def test_default_tag_is_mode(self, planted_paths, tmp_path):
        out = tmp_path / "bow.run"
        code = main(["run", *base_flags(planted_paths), "--mode", "bow", "--out", str(out)])
        assert code == 0
        fields = out.read_text().splitlines()[0].split()
        assert len(fields) == 6
        assert fields[1] == "Q0"
        assert fields[5] == "bow"

    def test_custom_tag(self, planted_paths, tmp_path):
        out = tmp_path / "tagged.run"
        main(["run", *base_flags(planted_paths), "--mode", "fd", "--tag", "mytag", "--out", str(out)])
        assert all(line.split()[5] == "mytag" for line in out.read_text().splitlines())

    @pytest.mark.parametrize("tag", ["my tag", "", "a\tb", "a\x1cb", "a\u00a0b"])
    def test_unreadable_tag_rejected_before_loading(
        self, planted_paths, tmp_path, capsys, monkeypatch, tag
    ):
        # read_run splits rows on str.split() whitespace, so such a tag would
        # give a run file that eval rejects.
        forbid_loading_and_scoring(monkeypatch)
        out = tmp_path / "tagged.run"
        code = main(["run", *base_flags(planted_paths), "--mode", "bow", "--tag", tag, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --tag must be non-empty and hold no whitespace, got {tag!r}"]
        assert list(tmp_path.iterdir()) == []

    def test_selective_from_file_matches_on_the_fly(self, planted_paths, tmp_path):
        selected = tmp_path / "sel.txt"
        selected.write_text("nc1\n")
        a = tmp_path / "a.run"
        main(
            [
                "run",
                *base_flags(planted_paths),
                "--mode",
                "selective",
                "--selected",
                str(selected),
                "--tag",
                "t",
                "--out",
                str(a),
            ]
        )
        b = tmp_path / "b.run"
        main(
            [
                "run",
                *base_flags(planted_paths),
                "--mode",
                "selective",
                "--lexicon",
                planted_paths["lexicon"],
                "--variant",
                "vector:tfidf",
                "--theta",
                "1",
                "--tag",
                "t",
                "--out",
                str(b),
            ]
        )
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("q01\nq99\n", "2: qid 'q99' is not in the query batch"),
            ("q01 extra\n", "1: expected one qid, got 'q01 extra'"),
        ],
    )
    def test_bad_selected_line_rejected_before_ranking(
        self, retrieval_paths, tmp_path, capsys, monkeypatch, lines, message
    ):
        def no_rank(*args, **kwargs):
            raise AssertionError("queries ranked before the selected file was checked")

        monkeypatch.setattr("termdep.cli.rank", no_rank)
        selected = tmp_path / "sel.txt"
        selected.write_text(lines)
        out = tmp_path / "sel.run"
        code = main(
            [
                "run",
                *base_flags(retrieval_paths),
                "--mode",
                "selective",
                "--selected",
                str(selected),
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {selected}:{message}"]
        assert not out.exists()

    def test_selective_needs_selection_source(self, planted_paths, tmp_path, capsys, monkeypatch):
        forbid_loading_and_scoring(monkeypatch)
        code = main(
            [
                "run",
                *base_flags(planted_paths),
                "--mode",
                "selective",
                "--out",
                str(tmp_path / "x.run"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: selective mode requires --theta or --selected"]
        assert list(tmp_path.iterdir()) == []

    def test_selective_theta_needs_lexicon_before_reading(
        self, planted_paths, tmp_path, capsys, monkeypatch
    ):
        forbid_loading_and_scoring(monkeypatch)
        code = main(
            [
                "run",
                *base_flags(planted_paths),
                "--mode",
                "selective",
                "--theta",
                "1",
                "--out",
                str(tmp_path / "x.run"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: selective mode with --theta requires --lexicon"]
        assert list(tmp_path.iterdir()) == []

    def test_selective_theta_zero_equals_bow(self, retrieval_paths, tmp_path):
        bow = tmp_path / "bow.run"
        main(["run", *base_flags(retrieval_paths), "--mode", "bow", "--tag", "t", "--out", str(bow)])
        sel = tmp_path / "sel.run"
        main(
            [
                "run",
                *base_flags(retrieval_paths),
                "--mode",
                "selective",
                "--lexicon",
                retrieval_paths["lexicon"],
                "--variant",
                "vector:tfidf",
                "--theta",
                "0",
                "--tag",
                "t",
                "--out",
                str(sel),
            ]
        )
        assert sel.read_bytes() == bow.read_bytes()

    def test_negative_theta_rejected_before_scoring(
        self, planted_paths, tmp_path, capsys, monkeypatch
    ):
        forbid_loading_and_scoring(monkeypatch)
        code = main(
            [
                "run",
                *base_flags(planted_paths),
                "--mode",
                "selective",
                "--lexicon",
                planted_paths["lexicon"],
                "--theta",
                "-1",
                "--out",
                str(tmp_path / "sel.run"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: theta must be non-negative, got -1"]
        assert list(tmp_path.iterdir()) == []

    def test_corpus_without_tokens_fails_at_load(self, retrieval_paths, tmp_path, capsys):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text(json.dumps({"doc_id": "d1", "text": "!!!"}) + "\n")
        out = tmp_path / "bow.run"
        code = main(
            [
                "run",
                "--corpus",
                str(corpus),
                "--queries",
                retrieval_paths["queries"],
                "--mode",
                "bow",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {corpus}: corpus holds no tokens"]
        assert not out.exists()

    def test_stopword_that_is_not_one_token_fails_at_load(self, retrieval_paths, tmp_path, capsys):
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("the\ndon't\n")
        out = tmp_path / "bow.run"
        code = main(
            [
                "run",
                *base_flags(retrieval_paths),
                "--stopwords",
                str(stopwords),
                "--mode",
                "bow",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {stopwords}:2: stopword \"don't\" is not exactly one token"]
        assert not out.exists()

    @pytest.mark.parametrize("mu", ["nan", "inf"])
    def test_non_finite_mu_rejected(self, retrieval_paths, tmp_path, capsys, mu):
        out = tmp_path / "x.run"
        code = main(["run", *base_flags(retrieval_paths), "--mode", "bow", "--mu", mu, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "mu" in err[0]
        assert not out.exists()


@pytest.fixture(scope="module")
def mode_runs(retrieval_paths, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    paths = {}
    for mode in ("bow", "fd"):
        path = out / f"{mode}.run"
        main(["run", *base_flags(retrieval_paths), "--mode", mode, "--out", str(path)])
        paths[mode] = path
    sel = out / "selective.run"
    main(
        [
            "run",
            *base_flags(retrieval_paths),
            "--mode",
            "selective",
            "--lexicon",
            retrieval_paths["lexicon"],
            "--variant",
            "vector:tfidf",
            "--theta",
            "10",
            "--out",
            str(sel),
        ]
    )
    paths["selective"] = sel
    return paths


class TestEvalFlow:
    def test_bow_and_fd_tie_overall(self, retrieval_paths, mode_runs, tmp_path):
        # Phrase treatment helps the dependent half exactly as much as it
        # hurts the compositional half.
        means = {}
        for mode in ("bow", "fd"):
            report = tmp_path / f"{mode}.csv"
            code = main(
                ["eval", "--run", str(mode_runs[mode]), "--qrels", retrieval_paths["qrels"], "--out", str(report)]
            )
            assert code == 0
            means[mode] = read_report_map(report)["all"]
        np.testing.assert_allclose(means["bow"], 0.6625, atol=1e-9)
        np.testing.assert_allclose(means["fd"], 0.6625, atol=1e-9)

    def test_selective_wins(self, retrieval_paths, mode_runs, tmp_path):
        report = tmp_path / "sel.csv"
        main(
            ["eval", "--run", str(mode_runs["selective"]), "--qrels", retrieval_paths["qrels"], "--out", str(report)]
        )
        rows = read_report_map(report)
        np.testing.assert_allclose(rows["all"], 1.0, atol=1e-9)

    def test_unjudged_run_qid_warns(self, retrieval_paths, mode_runs, tmp_path, capsys):
        patched = tmp_path / "patched.run"
        patched.write_text(mode_runs["bow"].read_text() + "q99 Q0 doc 1 -1.000000 bow\n")
        main(
            ["eval", "--run", str(patched), "--qrels", retrieval_paths["qrels"], "--out", str(tmp_path / "r.csv")]
        )
        assert "q99" in capsys.readouterr().err


class TestEvalRejectsBadRuns:
    @pytest.mark.parametrize(
        "rows, line, message",
        [
            (["q1 Q0 d1 1 -1.0 t", "q1 Q0 d1 2 -2.0 t"], 2, "doc_id 'd1' repeated for qid 'q1'"),
            (["q1 Q0 d1 1 nan t"], 1, "score 'nan' is not finite"),
            (["q1 Q0 d2 1 -1.0 t", "q1 Q0 d1 2 inf t"], 2, "score 'inf' is not finite"),
            (["q1 Q0 d1 1 abc t"], 1, "score 'abc' is not a number"),
        ],
    )
    def test_exit_2_with_one_located_error_and_no_report(
        self, tmp_path, capsys, rows, line, message
    ):
        run = tmp_path / "bad.run"
        run.write_text("\n".join(rows) + "\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\nq1 0 d2 0\n")
        report = tmp_path / "report.csv"
        code = main(["eval", "--run", str(run), "--qrels", str(qrels), "--out", str(report)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {run}:{line}: {message}"]
        assert not report.exists()

    def test_grade_that_would_overflow_ndcg_fails_at_load(self, tmp_path, capsys):
        run = tmp_path / "ok.run"
        run.write_text("q1 Q0 d1 1 -1.0 t\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 2000\n")
        report = tmp_path / "report.csv"
        code = main(["eval", "--run", str(run), "--qrels", str(qrels), "--out", str(report)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {qrels}:1: grade 2000 exceeds 1000"]
        assert not report.exists()


class TestCommaQidFailsAtLoad:
    """Score, eval and delta CSV rows lead with the qid, so a qid holding a
    comma would read back as another qid: each loader rejects it."""

    def test_score_rejects_it_in_queries(self, retrieval_paths, tmp_path, capsys):
        plain = (retrieval_paths["dir"] / "queries.tsv").read_text()
        queries = tmp_path / "queries.tsv"
        queries.write_text(plain + "q,x\tterm01a term01b\n")
        out = tmp_path / "out"
        out.mkdir()
        code = main(
            [
                "score",
                "--corpus",
                retrieval_paths["corpus"],
                "--queries",
                str(queries),
                "--lexicon",
                retrieval_paths["lexicon"],
                "--variant",
                "vector:tfidf",
                "--theta",
                "10",
                "--out",
                str(out / "scores.csv"),
            ]
        )
        assert code == 2
        line = plain.count("\n") + 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {queries}:{line}: qid 'q,x' contains a comma"
        ]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "bad, row",
        [("run", "q,x Q0 d01-a1 1 -1.000000 bow"), ("qrels", "q,x 0 d01-a1 1")],
        ids=("run", "qrels"),
    )
    def test_eval_rejects_it(self, retrieval_paths, mode_runs, tmp_path, capsys, bad, row):
        paths = {"run": tmp_path / "x.run", "qrels": tmp_path / "qrels.txt"}
        paths["run"].write_text(mode_runs["bow"].read_text())
        paths["qrels"].write_text((retrieval_paths["dir"] / "qrels.txt").read_text())
        plain = paths[bad].read_text()
        paths[bad].write_text(plain + row + "\n")
        report = tmp_path / "report.csv"
        code = main(
            ["eval", "--run", str(paths["run"]), "--qrels", str(paths["qrels"]), "--out", str(report)]
        )
        assert code == 2
        line = plain.count("\n") + 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {paths[bad]}:{line}: qid 'q,x' contains a comma"
        ]
        assert not report.exists()


class TestAllQidFailsAtLoad:
    """eval closes its report with a summary row named `all`, so a query
    named `all` would give two `all` rows: each loader rejects the qid."""

    def test_run_rejects_it_in_queries(self, retrieval_paths, tmp_path, capsys):
        plain = (retrieval_paths["dir"] / "queries.tsv").read_text()
        queries = tmp_path / "queries.tsv"
        queries.write_text(plain + "all\tterm01a term01b\n")
        out = tmp_path / "bow.run"
        flags = ["--corpus", retrieval_paths["corpus"], "--queries", str(queries)]
        assert main(["run", *flags, "--mode", "bow", "--out", str(out)]) == 2
        line = plain.count("\n") + 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {queries}:{line}: qid 'all' names eval's summary row"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad, row",
        [("run", "all Q0 d01-a1 1 -1.000000 bow"), ("qrels", "all 0 d01-a1 1")],
        ids=("run", "qrels"),
    )
    def test_eval_rejects_it(self, retrieval_paths, mode_runs, tmp_path, capsys, bad, row):
        paths = {"run": tmp_path / "x.run", "qrels": tmp_path / "qrels.txt"}
        paths["run"].write_text(mode_runs["bow"].read_text())
        paths["qrels"].write_text((retrieval_paths["dir"] / "qrels.txt").read_text())
        plain = paths[bad].read_text()
        paths[bad].write_text(plain + row + "\n")
        report = tmp_path / "report.csv"
        code = main(
            ["eval", "--run", str(paths["run"]), "--qrels", str(paths["qrels"]), "--out", str(report)]
        )
        assert code == 2
        line = plain.count("\n") + 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {paths[bad]}:{line}: qid 'all' names eval's summary row"
        ]
        assert not report.exists()


class TestInputEncoding:
    def test_byte_order_mark_on_queries_changes_no_output(self, retrieval_paths, tmp_path):
        plain = retrieval_paths["dir"] / "queries.tsv"
        bom = tmp_path / "bom.tsv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for name, queries in (("plain", plain), ("bom", bom)):
            run, report = tmp_path / f"{name}.run", tmp_path / f"{name}.csv"
            flags = ["--corpus", retrieval_paths["corpus"], "--queries", str(queries)]
            assert main(["run", *flags, "--mode", "fd", "--out", str(run)]) == 0
            qrels = retrieval_paths["qrels"]
            assert main(["eval", "--run", str(run), "--qrels", qrels, "--out", str(report)]) == 0
            outputs.append((run.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]


class TestWindowCheckedBeforeReading:
    @pytest.mark.parametrize(
        "command",
        [
            ["windows"],
            ["score", "--lexicon", "lexicon.tsv", "--variant", "vector:tfidf"],
            ["run", "--mode", "bow"],
            ["tune", "--lexicon", "lexicon.tsv", "--qrels", "qrels.txt"],
        ],
        ids=lambda command: command[0],
    )
    def test_negative_window_fails_before_any_input_is_read(self, tmp_path, capsys, command):
        # The corpus does not exist: an error about it would mean it was read first.
        code = main(
            [
                *command,
                "--corpus",
                str(tmp_path / "missing.jsonl"),
                "--queries",
                str(tmp_path / "missing.tsv"),
                "--window",
                "-2",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["error: window half-width must be >= 0, got -2"]
        assert list(tmp_path.iterdir()) == []


class TestThreadsCheckedBeforeReading:
    @pytest.mark.parametrize(
        "command",
        [
            ["windows"],
            ["score", "--lexicon", "lexicon.tsv", "--variant", "vector:tfidf"],
            ["run", "--mode", "bow"],
            ["tune", "--lexicon", "lexicon.tsv", "--qrels", "qrels.txt"],
        ],
        ids=lambda command: command[0],
    )
    def test_count_below_one_fails_before_any_input_is_read(self, tmp_path, capsys, command):
        # The flag changes no output, but a count below 1 names no run at
        # all.  The corpus does not exist: an error about it would mean it
        # was read first.
        for threads in ("0", "-4"):
            code = main(
                [
                    *command,
                    "--corpus",
                    str(tmp_path / "missing.jsonl"),
                    "--queries",
                    str(tmp_path / "missing.tsv"),
                    "--threads",
                    threads,
                    "--out",
                    str(tmp_path / "out"),
                ]
            )
            assert code == 2
            assert capsys.readouterr().err.splitlines() == [
                f"error: --threads must be >= 1, got {threads}"
            ]
            assert list(tmp_path.iterdir()) == []


class TestStopDocumentsNeedsStopwords:
    @pytest.mark.parametrize(
        "command",
        [
            ["windows"],
            ["score", "--lexicon", "lexicon.tsv", "--variant", "vector:tfidf"],
            ["run", "--mode", "bow"],
            ["tune", "--lexicon", "lexicon.tsv", "--qrels", "qrels.txt"],
        ],
        ids=lambda command: command[0],
    )
    def test_rejected_before_any_input_is_read(self, tmp_path, capsys, command):
        # Without a stopword list the flag would stop nothing.  The corpus
        # does not exist: an error about it would mean it was read first.
        code = main(
            [
                *command,
                "--corpus",
                str(tmp_path / "missing.jsonl"),
                "--queries",
                str(tmp_path / "missing.tsv"),
                "--stop-documents",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --stop-documents requires --stopwords"
        ]
        assert list(tmp_path.iterdir()) == []

    def test_accepted_with_stopwords(self, retrieval_paths, tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_text("about\nreport\n")
        masses = []
        for flags in ([], ["--stop-documents"]):
            out = tmp_path / f"windows{len(flags)}.json"
            argv = ["windows", *base_flags(retrieval_paths), "--stopwords", str(stop), *flags]
            assert main([*argv, "--out", str(out)]) == 0
            masses.append(json.loads(out.read_text())["targets"]["term01a"]["total_mass"])
        # Stopping the documents takes the stopwords out of every window.
        assert masses[1] < masses[0]


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--mode", "bow"],
        ["run", "--mode", "sd"],
        ["run", "--mode", "fd"],
        ["run", "--mode", "selective", "--theta", "5", "--lexicon", "lexicon"],
        ["score", "--variant", "vector:tfidf", "--lexicon", "lexicon"],
        ["score", "--variant", "lm:sgt:qsum", "--lexicon", "lexicon"],
        ["tune", "--lexicon", "lexicon", "--qrels", "qrels", "--mu-grid", "500", "--theta-grid", "5"],
        ["windows", "--lexicon", "lexicon"],
    ],
    ids=" ".join,
)
def test_each_call_makes_one_pass_over_the_documents(retrieval_paths, tmp_path, monkeypatch, command):
    # Every call declares the terms it will look up before the first lookup,
    # so it finds them all in one pass; an undeclared term would cost another.
    passes = record_passes(monkeypatch)
    argv = [retrieval_paths.get(arg, arg) for arg in command]
    assert main([*argv, *base_flags(retrieval_paths), "--out", str(tmp_path / "out")]) == 0
    assert len(passes) == 1
    assert 0 < len(passes[0]) <= 200  # the fixture's documents


@pytest.mark.parametrize("call", ["rank", "rank_mu_grid", "score_batch"])
def test_each_batch_call_makes_one_pass_over_the_documents(retrieval_paths, monkeypatch, call):
    # The CLI calls score_batch before rank_mu_grid, which then finds every
    # term inverted: each must declare its own terms for a library caller.
    passes = record_passes(monkeypatch)
    index = ingest_corpus(retrieval_paths["corpus"])
    queries = load_queries(retrieval_paths["queries"])
    if call == "rank":
        rank(queries, index, RankingConfig(mode="sd"))
    elif call == "rank_mu_grid":
        list(rank_mu_grid(queries, index, [500.0, 2000.0], RankingConfig(), ("bow", "fd")))
    else:
        score_batch(queries, "lm:laplace:qavg", index, load_lexicon(retrieval_paths["lexicon"]))
    assert len(passes) == 1


class TestTuneCommand:
    def test_grid_defaults(self):
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
        assert DEFAULT_THETA_GRID == tuple(range(1, 46))

    def test_small_grid_tuning(self, retrieval_paths, tmp_path):
        out = tmp_path / "tune.json"
        code = main(
            [
                "tune",
                *base_flags(retrieval_paths),
                "--lexicon",
                retrieval_paths["lexicon"],
                "--qrels",
                retrieval_paths["qrels"],
                "--variant",
                "vector:tfidf",
                "--mu-grid",
                "1000",
                "2000",
                "--theta-grid",
                "0",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["measure"] == "map"
        assert len(payload["folds"]) == 3
        for fold in payload["folds"]:
            assert fold["mu"] == 1000.0
            assert fold["theta"] == 10
            np.testing.assert_allclose(fold["score"], 1.0, atol=1e-9)
        np.testing.assert_allclose(payload["mean_score"], 1.0, atol=1e-9)

    def test_matches_selective_rank_at_every_grid_point(self, retrieval_paths, tmp_path):
        # tune splices per-mu bow and fd values; the reference ranks the batch
        # in selective mode at every (mu, theta), as the grid defines it.
        assert_tune_matches_reference(retrieval_paths, (500.0, 2000.0), (0, 3, 7), tmp_path)

    def test_unsorted_grids_with_repeats_match_selective_rank(self, retrieval_paths, tmp_path):
        # Repeated mu and theta entries: tune ranks each distinct mu once,
        # while cross_validate walks the sorted grid with every repeat.
        mu_grid, theta_grid = (2000.0, 500.0, 2000.0), (7, 0, 3, 3)
        assert_tune_matches_reference(retrieval_paths, mu_grid, theta_grid, tmp_path)

    def test_unjudged_zero_and_unscoreable_queries_match_selective_rank(
        self, retrieval_paths, tmp_path
    ):
        # q02 has no qrels rows and q05 only grade-0 rows, so evaluate drops
        # one and excludes the other, each with a diagnostic tune.json keeps;
        # q01 loses its lexicon entry, so it is unscoreable and never selected.
        with open(retrieval_paths["qrels"], encoding="utf-8") as fh:
            rows = [line.split() for line in fh]
        qrels = tmp_path / "qrels.txt"
        qrels.write_text(
            "".join(
                f"{qid} {zero} {doc_id} {0 if qid == 'q05' else grade}\n"
                for qid, zero, doc_id, grade in rows
                if qid != "q02"
            )
        )
        lexicon = tmp_path / "lexicon.tsv"
        with open(retrieval_paths["lexicon"], encoding="utf-8") as fh:
            lexicon.write_text("".join(line for line in fh if not line.startswith("term01a")))
        paths = {**retrieval_paths, "qrels": str(qrels), "lexicon": str(lexicon)}
        payloads = assert_tune_matches_reference(paths, (500.0, 2000.0), (0, 3, 7, 30), tmp_path)
        for payload in payloads.values():
            assert payload["diagnostics"] == [
                "qid q02 has no judgments; dropped",
                "qid q05 has no relevant documents; excluded",
            ]

    def test_theta_overflow_reported_once_per_grid_theta(self, retrieval_paths, tmp_path, capsys):
        # 20 scoreable queries: 25 and 30 each select all of them, and each
        # distinct theta is reported once, in ascending order, by each of
        # the three tune calls (one per measure).
        mu_grid, theta_grid = (1000.0,), (30, 3, 25, 30, 20)
        assert_tune_matches_reference(retrieval_paths, mu_grid, theta_grid, tmp_path)
        assert capsys.readouterr().err.splitlines() == [
            "theta=25 exceeds 20 scoreable queries; selecting all",
            "theta=30 exceeds 20 scoreable queries; selecting all",
        ] * len(MEASURES)

    def test_empty_lexicon_rejected_before_reading(
        self, retrieval_paths, tmp_path, capsys, monkeypatch
    ):
        forbid_loading_and_scoring(monkeypatch)
        out = tmp_path / "tune.json"
        code = main(
            [
                "tune",
                *base_flags(retrieval_paths),
                "--lexicon",
                "",
                "--qrels",
                retrieval_paths["qrels"],
                "--out",
                str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: tune requires --lexicon"]
        assert not out.exists()

    def test_negative_theta_rejected_before_loading_inputs(
        self, retrieval_paths, tmp_path, capsys, monkeypatch
    ):
        def no_load(args):
            raise AssertionError("inputs loaded before the grid was checked")

        monkeypatch.setattr("termdep.cli._load_inputs", no_load)
        out = tmp_path / "tune.json"
        code = main(
            [
                "tune",
                *base_flags(retrieval_paths),
                "--lexicon",
                retrieval_paths["lexicon"],
                "--qrels",
                retrieval_paths["qrels"],
                "--theta-grid",
                "3",
                "-1",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "theta" in err[0]
        assert not out.exists()

    def test_fewer_queries_than_folds_rejected_before_scoring(
        self, retrieval_paths, tmp_path, capsys, monkeypatch
    ):
        def no_scoring(*args, **kwargs):
            raise AssertionError("queries scored before their count was checked")

        monkeypatch.setattr("termdep.cli.score_batch", no_scoring)
        rows = (retrieval_paths["dir"] / "queries.tsv").read_text().splitlines()
        queries = tmp_path / "two.tsv"
        queries.write_text("\n".join(rows[:2]) + "\n")
        out = tmp_path / "tune.json"
        code = main(
            [
                "tune",
                "--corpus",
                retrieval_paths["corpus"],
                "--queries",
                str(queries),
                "--lexicon",
                retrieval_paths["lexicon"],
                "--qrels",
                retrieval_paths["qrels"],
                "--out",
                str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: need at least 3 queries, got 2"]
        assert not out.exists()

    def test_negative_window_fails_the_call(self, retrieval_paths, tmp_path, capsys):
        # Without the check every query is unscoreable and tune selects nobody.
        out = tmp_path / "tune.json"
        code = main(
            [
                "tune",
                *base_flags(retrieval_paths),
                "--lexicon",
                retrieval_paths["lexicon"],
                "--qrels",
                retrieval_paths["qrels"],
                "--window",
                "-1",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "half-width" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("mu", ["nan", "inf"])
    def test_non_finite_mu_grid_rejected(self, retrieval_paths, tmp_path, capsys, mu):
        out = tmp_path / "tune.json"
        code = main(
            [
                "tune",
                *base_flags(retrieval_paths),
                "--lexicon",
                retrieval_paths["lexicon"],
                "--qrels",
                retrieval_paths["qrels"],
                "--mu-grid",
                mu,
                "100",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "mu" in err[0]
        assert not out.exists()


class TestFigureDataCommand:
    def test_delta_sorted_descending(self, retrieval_paths, mode_runs, tmp_path):
        out = tmp_path / "fig"
        code = main(
            [
                "figure-data",
                "--qrels",
                retrieval_paths["qrels"],
                "--run-a",
                str(mode_runs["fd"]),
                "--run-b",
                str(mode_runs["bow"]),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "delta.csv").read_text().splitlines()
        assert lines[0] == "qid,delta_map"
        assert len(lines) == 21
        deltas = [float(line.split(",")[1]) for line in lines[1:]]
        assert deltas == sorted(deltas, reverse=True)
        assert lines[1] == "q01,0.675000"
        assert lines[-1].endswith(",-0.675000")

    def test_sweep_rows_sorted_by_theta(self, retrieval_paths, mode_runs, tmp_path):
        out = tmp_path / "fig2"
        main(
            [
                "figure-data",
                "--qrels",
                retrieval_paths["qrels"],
                "--sweep",
                f"20={mode_runs['fd']}",
                "--sweep",
                f"0={mode_runs['bow']}",
                "--out",
                str(out),
            ]
        )
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "theta,mean_map"
        assert lines[1].startswith("0,")
        assert lines[2].startswith("20,")

    def test_no_inputs_rejected(self, retrieval_paths, tmp_path, capsys):
        code = main(
            ["figure-data", "--qrels", retrieval_paths["qrels"], "--out", str(tmp_path / "x")]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: figure-data needs --run-a/--run-b and/or --sweep entries"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("given", ["--run-a", "--run-b"])
    def test_one_of_run_a_and_run_b_rejected_before_reading(
        self, retrieval_paths, mode_runs, tmp_path, capsys, monkeypatch, given
    ):
        def no_read(path):
            raise AssertionError("a file was read before --run-a/--run-b were checked")

        monkeypatch.setattr("termdep.cli.read_run", no_read)
        monkeypatch.setattr("termdep.cli.load_qrels", no_read)
        out = tmp_path / "fig"
        code = main(
            [
                "figure-data",
                "--qrels",
                retrieval_paths["qrels"],
                given,
                str(mode_runs["bow"]),
                "--sweep",
                f"0={mode_runs['bow']}",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: figure-data needs --run-a and --run-b together"]
        assert not out.exists()

    def test_malformed_sweep_rejected(self, retrieval_paths, mode_runs, tmp_path, capsys):
        code = main(
            [
                "figure-data",
                "--qrels",
                retrieval_paths["qrels"],
                "--sweep",
                str(mode_runs["bow"]),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: --sweep expects THETA=RUNFILE with a non-negative integer THETA,"
            f" got {str(mode_runs['bow'])!r}"
        ]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("item", ["abc=x.run", "-1=x.run", "=x.run", "1.5=x.run", "\u0663=x.run"])
    def test_bad_sweep_theta_rejected_before_any_output(
        self, retrieval_paths, mode_runs, tmp_path, capsys, monkeypatch, item
    ):
        def no_read(path):
            raise AssertionError("a run file was read before --sweep was checked")

        monkeypatch.setattr("termdep.cli.read_run", no_read)
        out = tmp_path / "fig"
        code = main(
            [
                "figure-data",
                "--qrels",
                retrieval_paths["qrels"],
                "--run-a",
                str(mode_runs["fd"]),
                "--run-b",
                str(mode_runs["bow"]),
                "--sweep",
                f"0={mode_runs['bow']}",
                f"--sweep={item}",  # "-1=..." alone would parse as an option
                "--out",
                str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: --sweep expects THETA=RUNFILE with a non-negative integer THETA,"
            f" got {item!r}"
        ]
        assert not out.exists()

    def test_repeated_sweep_theta_rejected_before_any_output(
        self, retrieval_paths, mode_runs, tmp_path, capsys, monkeypatch
    ):
        # Two rows for one theta would leave sweep.csv no function of theta.
        def no_read(path):
            raise AssertionError("a file was read before --sweep was checked")

        monkeypatch.setattr("termdep.cli.read_run", no_read)
        monkeypatch.setattr("termdep.cli.load_qrels", no_read)
        out = tmp_path / "fig"
        code = main(
            [
                "figure-data",
                "--qrels",
                retrieval_paths["qrels"],
                "--sweep",
                f"5={mode_runs['bow']}",
                "--sweep",
                f"05={mode_runs['fd']}",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --sweep gives THETA 5 more than once"]
        assert not out.exists()

    def test_unreadable_sweep_run_leaves_no_output(
        self, retrieval_paths, mode_runs, tmp_path, capsys
    ):
        bad = tmp_path / "bad.run"
        bad.write_text("q01 Q0 d1 1 0.5\n")
        out = tmp_path / "fig"
        code = main(
            [
                "figure-data",
                "--qrels",
                retrieval_paths["qrels"],
                "--run-a",
                str(mode_runs["fd"]),
                "--run-b",
                str(mode_runs["bow"]),
                "--sweep",
                f"3={bad}",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad}:1: expected 6 whitespace-separated fields"]
        assert not out.exists()

    def test_directory_at_sweep_csv_leaves_no_delta_csv(
        self, retrieval_paths, mode_runs, tmp_path, capsys
    ):
        (tmp_path / "sweep.csv").mkdir()
        code = main(
            [
                "figure-data",
                "--qrels",
                retrieval_paths["qrels"],
                "--run-a",
                str(mode_runs["fd"]),
                "--run-b",
                str(mode_runs["bow"]),
                "--sweep",
                f"3={mode_runs['selective']}",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert_one_error_for_directory(capsys, tmp_path / "sweep.csv")
        assert os.listdir(tmp_path) == ["sweep.csv"]


class TestRerunIntoSameDirectory:
    def test_outputs_replaced_byte_identical(self, retrieval_paths, tmp_path):
        # The second pass replaces every output the first pass wrote: each
        # must come back byte-identical, and no temporary file may be left.
        out = tmp_path / "out"
        out.mkdir()
        inputs = base_flags(retrieval_paths)
        lexicon = ["--lexicon", retrieval_paths["lexicon"]]
        qrels = ["--qrels", retrieval_paths["qrels"]]
        calls = [
            ["score", *inputs, *lexicon, "--variant", "vector:tfidf", "--theta", "10",
             "--out", str(out / "scores.csv")],
            ["run", *inputs, "--mode", "bow", "--out", str(out / "bow.run")],
            ["run", *inputs, "--mode", "selective", "--selected", str(out / "selected.txt"),
             "--out", str(out / "sel.run")],
            ["eval", "--run", str(out / "sel.run"), *qrels, "--out", str(out / "sel.csv")],
            ["tune", *inputs, *lexicon, *qrels, "--mu-grid", "1000", "2000",
             "--theta-grid", "0", "10", "--out", str(out / "tune.json")],
            ["figure-data", *qrels, "--run-a", str(out / "sel.run"), "--run-b",
             str(out / "bow.run"), "--sweep", f"10={out / 'sel.run'}", "--out", str(out / "fig")],
        ]

        def tree():
            return {
                str(path.relative_to(out)): path.read_bytes() if path.is_file() else None
                for path in sorted(out.rglob("*"))
            }

        for argv in calls:
            assert main(argv) == 0
        first = tree()
        assert sorted(first) == [
            "bow.run", "fig", "fig/delta.csv", "fig/sweep.csv", "scores.csv", "sel.csv",
            "sel.run", "selected.txt", "tune.json",
        ]
        for argv in calls:
            assert main(argv) == 0
        assert tree() == first


# sha256 of (scores.csv, selected.txt) for `score --theta 10` on the
# retrieval fixture, per variant.  A change to any of them is a change to
# the scores or to the file format, and must say so.
SCORE_DIGESTS = {
    "vector:atc": ("a56e986723273fc66492f6b90b2da7dc206e9bd45fe8663607564b9fc02d0a9a", "f1f717dd5374b82ecbe0593132a826ce00f062e78b38d57c08ff7b2128e49c40"),
    "vector:ltu": ("3cd4be743dd509e972a950eee1f218dc77bac59b0d9ff8ec51ef1c08314805ef", "f1f717dd5374b82ecbe0593132a826ce00f062e78b38d57c08ff7b2128e49c40"),
    "vector:mi": ("24d7b7cc8f4e3323946916d5e851a907089121abea25279c4cf77b59139d8300", "f1f717dd5374b82ecbe0593132a826ce00f062e78b38d57c08ff7b2128e49c40"),
    "vector:okapi": ("d5cf09d9e1d92678566548bf468d3d209b6fbe7d508e9f0f5f9904d9c4b17a68", "6a0eb75d6c3b1403a16a9c34dc7151631937fbfcd75131e55d0f29ba72705b46"),
    "vector:tfidf": ("1e7de09cf597a5f94cbc3bd7e9b731a430f3020a7c6a56b91239e4d038569823", "f1f717dd5374b82ecbe0593132a826ce00f062e78b38d57c08ff7b2128e49c40"),
    "lm:laplace:qsum": ("a0e541475a549b9941cbdf326d41719f7c6beaff7f7f551a92cc8e24963418a3", "6a0eb75d6c3b1403a16a9c34dc7151631937fbfcd75131e55d0f29ba72705b46"),
    "lm:laplace:qavg": ("db3c27e7573439aeef85ddabf75a14cc54259be66f68c55da027d75b15d181c5", "f1f717dd5374b82ecbe0593132a826ce00f062e78b38d57c08ff7b2128e49c40"),
    "lm:laplace:mult": ("45cfd823854130e34fd049ae8d0c23e0b98e5d02cb4673a03b5ea4caac55cf54", "6a0eb75d6c3b1403a16a9c34dc7151631937fbfcd75131e55d0f29ba72705b46"),
    "lm:laplace:median": ("5155c442ef000a01e177e40083a1b8b22b479d10d64b72b31636df66bd5b092a", "f1f717dd5374b82ecbe0593132a826ce00f062e78b38d57c08ff7b2128e49c40"),
    "lm:sgt:qsum": ("32cea4050b33c31f22defe0e177ad897f8dd719b0b8be29292582681c7c841f6", "f1f717dd5374b82ecbe0593132a826ce00f062e78b38d57c08ff7b2128e49c40"),
    "lm:sgt:qavg": ("728bfed07ca99ec97ad4a2bb3ec83854d8dd48c022c6cbeb23c02b6200fe947f", "6a0eb75d6c3b1403a16a9c34dc7151631937fbfcd75131e55d0f29ba72705b46"),
    "lm:sgt:mult": ("fa4442aa1641ac6976795742652af45626ed96fd547acc887e1a677043d43675", "6a0eb75d6c3b1403a16a9c34dc7151631937fbfcd75131e55d0f29ba72705b46"),
    "lm:sgt:median": ("c2657ec2b8416a050d29ce9fcdf4b62deedbc2b257023b4494101a5be6eb3dda", "f1f717dd5374b82ecbe0593132a826ce00f062e78b38d57c08ff7b2128e49c40"),
}


def test_score_outputs_match_recorded_digests(retrieval_paths, tmp_path):
    assert sorted(SCORE_DIGESTS) == sorted(VARIANTS)
    got = {}
    for variant in VARIANTS:
        out = tmp_path / variant.replace(":", "_")
        out.mkdir()
        argv = ["score", *base_flags(retrieval_paths), "--lexicon", retrieval_paths["lexicon"],
                "--variant", variant, "--theta", "10", "--out", str(out / "scores.csv")]
        assert main(argv) == 0
        got[variant] = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("scores.csv", "selected.txt")
        )
    assert got == SCORE_DIGESTS


# sha256 of `windows` on the retrieval fixture: the export's per-target
# numbers and its JSON layout.
WINDOWS_DIGEST = "c6f9c454451226298bc3c778411601e7a0ab140421800a903980ae7848608c23"


def test_windows_output_matches_recorded_digest(retrieval_paths, tmp_path):
    out = tmp_path / "windows.json"
    argv = ["windows", *base_flags(retrieval_paths), "--lexicon", retrieval_paths["lexicon"]]
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WINDOWS_DIGEST
