"""Output checks, run after the timed loop.

Operations are counted as failed_ratio defines them: every
CLI call is one, and so is every query row it writes (a score CSV row, a
query's block of a run file, an eval row, a tune fold, the index summary).
A call fails when it exits nonzero; a row fails when it holds nan or fails
a check below.  Rows are checked on the last pass's outputs; an earlier
pass whose output digests differ from the last one's fails all its rows.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from inputs import Inputs
from workloads import Pass, Plan, Workload, cli_call, run_argv, score_argv, variant_dir

TOL = 1.01e-6  # outputs carry six decimals
ORACLE_QUERIES = 3
ORACLE_DOCS = 5


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def op(self, ok: bool, note: str, times: int = 1) -> None:
        self.attempted += times
        if not ok:
            self.failed += times
            self.notes.append(note)


def _oracles(root: str):
    spec = importlib.util.spec_from_file_location(
        "termdep_oracles", os.path.join(root, "tests", "oracles.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _score_rows(path: str, variant: str, planted: Dict[str, str]) -> List[Tuple[bool, str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows: List[Tuple[bool, str]] = []
    seen = set()
    lo, hi = (0.0, 2.0) if variant.startswith("vector:") else (0.0, math.inf)
    for line in lines[1:]:
        qid, var, n_q, flag, *divs = line.split(",")
        seen.add(qid)
        problems = []
        expect = planted.get(qid) == ""
        if qid not in planted or var != variant:
            problems.append("unexpected row")
        if flag != str(expect).lower():
            problems.append(f"scoreable={flag}, planted reason {planted.get(qid)!r}")
        values = [v for v in [n_q, *divs] if v]
        if expect and not n_q:
            problems.append("no n_q")
        if not all(_finite(v) and lo <= float(v) <= hi for v in values):
            problems.append(f"value outside [{lo}, {hi}] or nan")
        rows.append((not problems, f"{path}: {qid}: {'; '.join(problems)}"))
    rows.extend((False, f"{path}: {qid}: missing") for qid in planted if qid not in seen)
    return rows


def _run_blocks(path: str) -> Dict[str, List[List[str]]]:
    blocks: Dict[str, List[List[str]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            blocks.setdefault(parts[0], []).append(parts)
    return blocks


def _run_rows(path: str, mode: str, workdir: str) -> Tuple[Dict[str, List[List[str]]], Dict[str, List[str]]]:
    """Per query block: finite scores in non-increasing order, consecutive
    ranks; the whole file must round-trip through read_run/write_run."""
    from termdep.retrieval import read_run, write_run

    blocks = _run_blocks(path)
    copy = os.path.join(workdir, f"roundtrip.{mode}.run")
    write_run(read_run(path), copy, tag=mode)
    with open(path, "rb") as a, open(copy, "rb") as b:
        round_trip = a.read() == b.read()
    problems: Dict[str, List[str]] = {}
    for qid, rows in blocks.items():
        p = problems.setdefault(qid, [])
        if not round_trip:
            p.append("file does not round-trip through read_run")
        if not all(_finite(r[4]) for r in rows):
            p.append("nan score")
        elif any(float(a[4]) < float(b[4]) for a, b in zip(rows, rows[1:])):
            p.append("scores not in descending order")
        if [int(r[3]) for r in rows] != list(range(1, len(rows) + 1)):
            p.append("ranks not 1..n")
    return blocks, problems


def check_all(
    cli_main: Callable,
    w: Workload,
    inp: Inputs,
    plan: Plan,
    passes: List[Pass],
    digests: List[Dict[str, str]],
    expected: Optional[Dict[str, str]],
    workdir: str,
    seed: int,
) -> CheckResult:
    from termdep.cli import DEFAULT_MU_GRID, DEFAULT_THETA_GRID
    from termdep.corpus import ingest_corpus, load_queries
    from termdep.perturb import load_lexicon
    from termdep.scoring import score_batch, select_dependent

    os.makedirs(workdir, exist_ok=True)
    oracles = _oracles(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    rng = random.Random(seed)
    r = CheckResult()
    for p in passes:
        for rc in p.codes:
            r.op(rc == 0, f"a call exited {rc}")

    rows: List[Tuple[bool, str]] = []
    with open(plan.index_out, encoding="utf-8") as fh:
        summary = json.load(fh)
    rows.append(
        (
            summary["doc_count"] == inp.docs and summary["total_terms"] == inp.tokens,
            f"index summary {summary} != {inp.docs} docs, {inp.tokens} tokens",
        )
    )

    qs = inp.sets[w.score_set]
    for variant, path in plan.score_outs.items():
        rows.extend(_score_rows(path, variant, qs.planted))

    qr = inp.sets[w.rank_set]
    blocks: Dict[str, Dict[str, List[List[str]]]] = {}
    problems: Dict[str, Dict[str, List[str]]] = {}
    for mode, path in plan.run_outs.items():
        blocks[mode], problems[mode] = _run_rows(path, mode, workdir)

    # Selective = bow/fd splice over the selection `run --theta` makes.
    index = ingest_corpus(inp.corpus)
    queries = load_queries(qr.queries)
    scores = score_batch(queries, "vector:tfidf", index, load_lexicon(inp.lexicon), n=5, threads=1)
    selected = set(select_dependent(scores, w.theta)[0])
    strip = lambda rows: [row[:5] for row in rows]  # noqa: E731
    for qid in set(blocks["selective"]) | set(blocks["bow"]):
        source = "fd" if qid in selected else "bow"
        if strip(blocks["selective"].get(qid, [])) != strip(blocks[source].get(qid, [])):
            problems["selective"].setdefault(qid, []).append(f"differs from the {source} run")

    # Bow scores against the brute-force Dirichlet oracle, fed from the raw files.
    collection: Dict[str, List[str]] = {}
    with open(inp.corpus, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            collection[record["doc_id"]] = record["text"].split()
    all_tokens = list(collection.values())
    with open(qr.queries, encoding="utf-8") as fh:
        terms = dict((q, text.split()) for q, text in (line.rstrip("\n").split("\t") for line in fh))
    for qid in rng.sample(sorted(blocks["bow"]), min(ORACLE_QUERIES, len(blocks["bow"]))):
        for row in blocks["bow"][qid][:ORACLE_DOCS]:
            ref = oracles.ref_dirichlet_score(terms[qid], collection[row[2]], all_tokens, 1000.0)
            if abs(ref - float(row[4])) > TOL:
                problems["bow"][qid].append(f"{row[2]} scores {row[4]}, oracle {ref:.6f}")
    for mode in plan.run_outs:
        for qid, p in problems[mode].items():
            rows.append((not p, f"{mode} run: {qid}: {'; '.join(p)}"))

    # Eval rows against the metric oracle.
    grades: Dict[str, Dict[str, int]] = {}
    with open(qr.qrels, encoding="utf-8") as fh:
        for line in fh:
            q, _, doc_id, g = line.split()
            grades.setdefault(q, {})[doc_id] = int(g)
    for mode, path in plan.eval_outs.items():
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()[1:]
        sample = set(rng.sample(lines[:-1], min(ORACLE_QUERIES, len(lines) - 1)))
        for line in lines:
            qid, *values = line.split(",")
            ok = all(_finite(v) and 0.0 <= float(v) <= 1.0 for v in values)
            if ok and line in sample:
                ranking = [row[2] for row in blocks[mode].get(qid, [])]
                ref = oracles.ref_metrics(ranking, grades.get(qid, {}))
                ok = all(abs(a - float(b)) <= TOL for a, b in zip(ref, values))
            rows.append((ok, f"{path}: {line}"))

    with open(plan.tune_out, encoding="utf-8") as fh:
        tune = json.load(fh)
    folds = tune["folds"]
    for fold in folds:
        rows.append(
            (
                fold["mu"] in DEFAULT_MU_GRID
                and fold["theta"] in DEFAULT_THETA_GRID
                and math.isfinite(fold["score"]),
                f"tune fold {fold}",
            )
        )
    rows.append(
        (
            len(folds) == 3
            and abs(tune["mean_score"] - sum(f["score"] for f in folds) / len(folds)) <= 1e-9,
            f"tune mean {tune['mean_score']} over folds {folds}",
        )
    )

    bad = [note for ok, note in rows if not ok]
    r.notes.extend(bad)
    for i, d in enumerate(digests):
        if d == digests[-1]:
            r.attempted += len(rows)
            r.failed += len(bad)
        else:
            r.op(False, f"pass {i + 1} outputs differ from the last pass's", len(rows))

    # --threads 1 must write byte-identical outputs.
    single = os.path.join(workdir, "threads1")
    for variant in [v for v in ("vector:tfidf", "lm:sgt:qsum") if v in plan.score_outs]:
        out = os.path.join(single, variant_dir(variant), "scores.csv")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        rc = cli_call(cli_main, score_argv(inp, qs.queries, variant, w.theta, out, "1"))
        for name in ("scores.csv", "selected.txt"):
            ref = os.path.join(os.path.dirname(plan.score_outs[variant]), name)
            r.op(rc == 0 and _same(ref, os.path.join(os.path.dirname(out), name)),
                 f"{variant} {name} differs at --threads 1")
    out = os.path.join(single, "selective.run")
    rc = cli_call(cli_main, run_argv(inp, qr.queries, "selective", w.theta, out, "1"))
    r.op(rc == 0 and _same(plan.run_outs["selective"], out), "selective run differs at --threads 1")

    if expected is not None:
        for name, sha in expected.items():
            r.op(digests[-1].get(name) == sha, f"{name} differs from the recorded digest")
    return r


def _same(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()
