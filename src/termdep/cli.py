"""Command-line surface for the whole pipeline.

Subcommands: index, windows, score, run, eval, tune, figure-data,
fixture.  Every subcommand is deterministic and idempotent: rerunning
with the same inputs rewrites byte-identical outputs.  Failures exit 2
with a single `error:` line on stderr; argument errors are caught before
any input is read.  Only argparse's own usage errors keep its message.
Outputs are replaced through a temporary file in the target's directory
(corpus.write_lines), which must be writable; symlinks, devices and
hard-linked files are written in place.  Nothing is fsynced, and a crash
between the unlink and the rename can leave an output absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .corpus import (
    PositionalIndex,
    _has_whitespace,
    ingest_corpus,
    load_queries,
    load_stopwords,
    read_lines,
    write_lines,
)
from .evaluation import (
    MEASURES,
    CvPlan,
    _check_fold_count,
    cross_validate_selective,
    evaluate,
    load_qrels,
    write_metric_report,
)
from .fixtures import planted_pair, retrieval_fixture
from .perturb import load_lexicon, targets
from .retrieval import (
    MODES,
    RankingConfig,
    rank,
    rank_mu_grid,
    read_run,
    write_run,
)
from .scoring import VARIANTS, NcdScore, score_batch, select_dependent
from .windows import extract_windows

DEFAULT_MU_GRID = (100.0, 500.0, 800.0, 1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 8000.0, 10000.0)
DEFAULT_THETA_GRID = tuple(range(1, 46))


def _scores_csv(scores: Sequence[NcdScore]) -> Iterator[str]:
    yield "qid,variant,n_q,scoreable,divergences\n"
    for s in scores:
        n_q = f"{s.n_q:.12g}" if s.n_q is not None else ""
        tail = ",".join(f"{d:.12g}" for d in s.divergences)
        yield f"{s.qid},{s.variant},{n_q},{str(s.scoreable).lower()},{tail}\n"


def _check_theta(theta: Optional[int]) -> None:
    """Reject a negative selection size before any input is read."""
    if theta is not None and theta < 0:
        raise ValueError(f"theta must be non-negative, got {theta}")


def _check_lexicon(args, command: str) -> None:
    """Reject a call that must score queries but names no lexicon, before any input is read."""
    if not args.lexicon:
        raise ValueError(f"{command} requires --lexicon")


def _check_tag(tag: str) -> None:
    """Reject a run tag that would not read back as one whitespace-free field."""
    if not tag or _has_whitespace(tag):
        raise ValueError(f"--tag must be non-empty and hold no whitespace, got {tag!r}")


def _write_json(payload: object, path: str) -> None:
    write_lines(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _load_inputs(args) -> Tuple[PositionalIndex, list, object]:
    if args.window < 0:
        raise ValueError(f"window half-width must be >= 0, got {args.window}")
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    if args.stop_documents and not args.stopwords:
        raise ValueError("--stop-documents requires --stopwords")
    stopwords = load_stopwords(args.stopwords) if args.stopwords else None
    index = ingest_corpus(args.corpus, stopwords=stopwords, stop_documents=args.stop_documents)
    queries = load_queries(args.queries, stopwords=stopwords)
    lexicon = load_lexicon(args.lexicon) if args.lexicon else None
    return index, queries, lexicon


def _score(args, index: PositionalIndex, queries: list, lexicon) -> List[NcdScore]:
    return score_batch(queries, args.variant, index, lexicon, n=args.window)


def _select(scores: Sequence[NcdScore], theta: int) -> List[str]:
    """select_dependent's selection at theta; its diagnostics go to stderr."""
    selected, diagnostics = select_dependent(scores, theta)
    for d in diagnostics:
        print(d, file=sys.stderr)
    return selected


def _cmd_index(args) -> int:
    index = ingest_corpus(args.corpus)
    summary = {
        "doc_count": index.doc_count,
        "total_terms": index.total_terms,
        "vocab_size": index.vocab_size,
    }
    _write_json(summary, args.out)
    return 0


def _cmd_windows(args) -> int:
    index, queries, lexicon = _load_inputs(args)
    terms = sorted(targets(queries, lexicon))
    index.invert(terms)
    payload: Dict[str, object] = {"format": 1, "half_width": args.window, "targets": {}}
    for t in terms:
        ws = extract_windows(index, (t,), n=args.window)
        cf, n_windows = ws.window_cf, ws.n_windows
        total_mass = sum(cf.values())
        payload["targets"][t] = {
            "n_windows": n_windows,
            "av_m": (total_mass / n_windows) if n_windows else 0.0,
            "total_mass": total_mass,
            "vocab_size": len(cf),
        }
    _write_json(payload, args.out)
    return 0


def _cmd_score(args) -> int:
    _check_theta(args.theta)
    _check_lexicon(args, "score")
    sel_path = os.path.join(os.path.dirname(args.out) or ".", "selected.txt")
    # The selection would replace the scores just written at the same path,
    # or in place through a hard link to it, which realpath does not see.
    both = (args.out, sel_path)
    if args.theta is not None and (
        os.path.realpath(args.out) == os.path.realpath(sel_path)
        or all(map(os.path.exists, both)) and os.path.samefile(*both)
    ):
        raise ValueError(f"--out {args.out} is the selected.txt that --theta writes")
    index, queries, lexicon = _load_inputs(args)
    scores = _score(args, index, queries, lexicon)
    write_lines(args.out, _scores_csv(scores))
    if args.theta is not None:
        write_lines(sel_path, (qid + "\n" for qid in _select(scores, args.theta)))
    return 0


def _selection_for(args, index, queries, lexicon) -> Set[str]:
    path = args.selected
    if path:
        known = {q.qid for q in queries}
        chosen: Set[str] = set()
        for lineno, line in read_lines(path):
            qid = line.strip()
            if _has_whitespace(qid):
                raise ValueError(f"{path}:{lineno}: expected one qid, got {qid!r}")
            if qid not in known:
                raise ValueError(f"{path}:{lineno}: qid {qid!r} is not in the query batch")
            chosen.add(qid)
        return chosen
    return set(_select(_score(args, index, queries, lexicon), args.theta))


def _cmd_run(args) -> int:
    config = RankingConfig(mu=args.mu, mode=args.mode, top_k=args.top_k)
    _check_theta(args.theta)
    _check_tag(args.tag)
    if args.mode == "selective" and not args.selected:
        if args.theta is None:
            raise ValueError("selective mode requires --theta or --selected")
        _check_lexicon(args, "selective mode with --theta")
    index, queries, lexicon = _load_inputs(args)
    selected: Optional[Set[str]] = None
    if args.mode == "selective":
        selected = _selection_for(args, index, queries, lexicon)
    run = rank(queries, index, config, selected=selected)
    write_run(run, args.out, tag=args.tag)
    return 0


def _cmd_eval(args) -> int:
    run = read_run(args.run)
    qrels = load_qrels(args.qrels)
    report = evaluate(run, qrels)
    for d in report.diagnostics:
        print(d, file=sys.stderr)
    write_metric_report(report, args.out)
    return 0


def _cmd_tune(args) -> int:
    plan = CvPlan(
        mu_grid=tuple(args.mu_grid), theta_grid=tuple(args.theta_grid), measure=args.measure
    )
    config = RankingConfig(top_k=args.top_k)
    _check_lexicon(args, "tune")
    index, queries, lexicon = _load_inputs(args)
    _check_fold_count(len(queries))
    qrels = load_qrels(args.qrels)
    scores = _score(args, index, queries, lexicon)
    # Selection at theta is the first theta entries of one ordering; an
    # unscoreable query is not in it, so it is never selected.
    ordered, _ = select_dependent(scores, len(scores))
    # Report each grid theta that selects every scoreable query, as score and run do.
    for theta in sorted(set(plan.theta_grid)):
        if theta > len(ordered):
            _select(scores, theta)
    runs = rank_mu_grid(queries, index, sorted(set(plan.mu_grid)), config)
    result = cross_validate_selective([q.qid for q in queries], ordered, runs, qrels, plan)
    payload = {
        "measure": result.measure,
        "folds": [
            {"mu": mu, "theta": theta, "score": score}
            for (mu, theta), score in zip(result.fold_choices, result.fold_scores)
        ],
        "mean_score": result.mean_score,
        "diagnostics": result.diagnostics,
    }
    _write_json(payload, args.out)
    return 0


def _parse_sweep(items: Sequence[str]) -> List[Tuple[int, str]]:
    """Split each THETA=RUNFILE item before any file is read.

    THETA is a non-negative integer, and no two items may share it:
    sweep.csv holds one row per THETA.
    """
    sweep: Dict[int, str] = {}
    for item in items:
        theta_s, sep, path = item.partition("=")
        if not sep or not (theta_s.isascii() and theta_s.isdigit()):
            raise ValueError(
                f"--sweep expects THETA=RUNFILE with a non-negative integer THETA, got {item!r}"
            )
        theta = int(theta_s)
        if theta in sweep:
            raise ValueError(f"--sweep gives THETA {theta} more than once")
        sweep[theta] = path
    return list(sweep.items())


def _cmd_figure_data(args) -> int:
    compare = args.run_a is not None
    if compare != (args.run_b is not None):
        raise ValueError("figure-data needs --run-a and --run-b together")
    sweep = _parse_sweep(args.sweep)
    if not compare and not sweep:
        raise ValueError("figure-data needs --run-a/--run-b and/or --sweep entries")
    qrels = load_qrels(args.qrels)
    # Every run is read and evaluated before anything is written, so a
    # failed call leaves no output behind.
    deltas: List[Tuple[str, float]] = []
    if compare:
        report_a = evaluate(read_run(args.run_a), qrels)
        report_b = evaluate(read_run(args.run_b), qrels)
        shared = sorted(set(report_a.per_query) & set(report_b.per_query))
        deltas = [
            (qid, report_a.per_query[qid][args.measure] - report_b.per_query[qid][args.measure])
            for qid in shared
        ]
        deltas.sort(key=lambda pair: (-pair[1], pair[0]))
    rows = sorted(
        (theta, evaluate(read_run(path), qrels).means[args.measure]) for theta, path in sweep
    )
    os.makedirs(args.out, exist_ok=True)
    if compare:
        write_lines(
            os.path.join(args.out, "delta.csv"),
            [f"qid,delta_{args.measure}\n", *(f"{qid},{delta:.6f}\n" for qid, delta in deltas)],
        )
    if sweep:
        write_lines(
            os.path.join(args.out, "sweep.csv"),
            [f"theta,mean_{args.measure}\n", *(f"{theta},{value:.6f}\n" for theta, value in rows)],
        )
    return 0


def _cmd_fixture(args) -> int:
    fixture = planted_pair() if args.kind == "planted" else retrieval_fixture()
    paths = fixture.write(args.out)
    print("\n".join(f"{name}: {path}" for name, path in sorted(paths.items())))
    return 0


def _add_common_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--queries", required=True, help="queries TSV path")
    p.add_argument("--stopwords", help="optional stopword list, one per line")
    p.add_argument(
        "--stop-documents",
        action="store_true",
        help="apply the stopword list to documents too (default: queries only)",
    )
    p.add_argument("--window", type=int, default=5, help="context half-width n")
    p.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="at least 1; accepted for compatibility and ignored: every command runs serially",
    )


def _index_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_index)


def _windows_args(p: argparse.ArgumentParser) -> None:
    _add_common_io(p)
    p.add_argument("--lexicon", help="include each term's first synonym")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_windows)


def _score_args(p: argparse.ArgumentParser) -> None:
    _add_common_io(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--theta", type=int, help="also write selected.txt for this theta")
    p.add_argument("--out", required=True, help="scores CSV path")
    p.set_defaults(fn=_cmd_score)


def _run_args(p: argparse.ArgumentParser) -> None:
    _add_common_io(p)
    p.add_argument("--lexicon", help="needed when selective mode scores on the fly")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--variant", default="vector:tfidf", choices=VARIANTS)
    p.add_argument("--theta", type=int, help="selection size for selective mode")
    p.add_argument("--selected", help="precomputed selected.txt (overrides --theta)")
    p.add_argument("--mu", type=float, default=1000.0)
    p.add_argument("--top-k", type=int, default=1000)
    p.add_argument("--tag", default=None, help="run tag (default: the mode name)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_run)


def _eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out", required=True, help="metric report CSV path")
    p.set_defaults(fn=_cmd_eval)


def _tune_args(p: argparse.ArgumentParser) -> None:
    _add_common_io(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--variant", default="vector:tfidf", choices=VARIANTS)
    p.add_argument("--measure", default="map", choices=MEASURES)
    p.add_argument("--mu-grid", type=float, nargs="+", default=list(DEFAULT_MU_GRID))
    p.add_argument("--theta-grid", type=int, nargs="+", default=list(DEFAULT_THETA_GRID))
    p.add_argument("--top-k", type=int, default=1000)
    p.add_argument("--out", required=True, help="tuning result JSON path")
    p.set_defaults(fn=_cmd_tune)


def _figure_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--qrels", required=True)
    p.add_argument("--measure", default="map", choices=MEASURES)
    p.add_argument("--run-a", help="run file A (delta = A - B)")
    p.add_argument("--run-b", help="run file B")
    p.add_argument("--sweep", action="append", default=[], metavar="THETA=RUNFILE")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_figure_data)


def _fixture_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=("planted", "retrieval"))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_fixture)


# Each subcommand's help line and the function adding its arguments, in the
# order the full parser lists them.
COMMANDS = {
    "index": ("summarize a corpus index", _index_args),
    "windows": ("export window statistics for query terms", _windows_args),
    "score": ("score query non-compositionality", _score_args),
    "run": ("rank documents and write a TREC run file", _run_args),
    "eval": ("evaluate a run file against qrels", _eval_args),
    "tune": ("3-fold cross-validated (mu, theta) tuning", _tune_args),
    "figure-data": ("per-query deltas and theta sweeps", _figure_data_args),
    "fixture": ("write a bundled synthetic fixture", _fixture_args),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone.

    A parser of one subcommand parses that command's arguments as the full
    parser does, and prints the same usage: its subcommand list names every
    command.  Help and errors about the command itself (a missing or an
    unknown one) need the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="termdep",
        description="Selective term-dependence retrieval driven by query non-compositionality",
    )
    # The full parser's usage spells out its commands; one command's parser
    # must spell out the same list.
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments) in COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the named command's parser is built; anything else (-h, no
    # command, an unknown one) goes to the full parser.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    if args.command == "run" and args.tag is None:
        args.tag = args.mode
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
