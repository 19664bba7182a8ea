"""Seeded fuzz of the load-time contract on the retrieval fixture.

Each case mutates one input file (corpus, queries, lexicon or qrels):
inserted separators, NULs, byte-order marks, bytes that are not UTF-8,
`nan`, `inf` and huge numbers, dropped and duplicated lines.  Every CLI
call that reads the file then runs in process: `score` (one vector and one
LM variant), `run` in every mode, `eval` and `tune`.  A call must either
exit 0 with every number it writes finite, every run file reading back and
every metric row as wide as its header, or exit 2 with exactly one `error:` line
naming the mutated file, with the line of the fault when it lies on one.
Any traceback fails the case.
"""

import contextlib
import io
import json
import math
import random
import re
import traceback

import pytest

from termdep.cli import main
from termdep.retrieval import read_run

SEED = 20261020
CASES_PER_FILE = 50

SEPARATORS = ["\t", ",", " ", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0", "\u2028"]
NUMBERS = [b"nan", b"NaN", b"inf", b"-inf", b"Infinity", b"1e999", b"9" * 400, b"-1", b"1_0", b"\xd9\xa3"]
BAD_UTF8 = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]
BOM = b"\xef\xbb\xbf"


def mutate(data, rng):
    """`data` with one to three random mutations, each on one line."""
    lines = data.split(b"\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        line = lines[i]
        at = rng.randint(0, len(line))
        kind = rng.choice(["separator", "nul", "bom", "bad-utf8", "number", "drop", "duplicate"])
        if kind == "separator":
            lines[i] = line[:at] + rng.choice(SEPARATORS).encode("utf-8") + line[at:]
        elif kind == "nul":
            lines[i] = line[:at] + b"\x00" + line[at:]
        elif kind == "bom":
            lines[i] = BOM + line if rng.random() < 0.5 else line[:at] + BOM + line[at:]
        elif kind == "bad-utf8":
            lines[i] = line[:at] + rng.choice(BAD_UTF8) + line[at:]
        elif kind == "number":
            fields = re.split(rb"(\s+|,|\")", line)
            words = [k for k, field in enumerate(fields) if field.strip(b' \t,"')]
            if words:
                fields[rng.choice(words)] = rng.choice(NUMBERS)
            lines[i] = b"".join(fields)
        elif kind == "drop":
            del lines[i]
            if not lines:
                lines = [b""]
        else:
            lines.insert(rng.randrange(len(lines) + 1), line)
    return b"\n".join(lines)


def first_changed_line(old, new):
    """The 1-based number of the first line that differs, as read_lines numbers lines."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for n, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a != b:
            return n
    return min(len(old_lines), len(new_lines)) + 1


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz-fixture")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixture", "--kind", "retrieval", "--out", str(out)]) == 0
    names = ("corpus.jsonl", "queries.tsv", "lexicon.tsv", "qrels.txt")
    return {name.split(".")[0]: (out / name).read_bytes() for name in names}


def calls(paths, out):
    """(name, argv, run file or None) of every call that reads a fuzzed input."""
    io_flags = ["--corpus", paths["corpus"], "--queries", paths["queries"]]
    lexicon = ["--lexicon", paths["lexicon"]]
    found = [
        ("score vector", ["score", *io_flags, *lexicon, "--variant", "vector:tfidf", "--theta", "5"], None),
        ("score lm", ["score", *io_flags, *lexicon, "--variant", "lm:sgt:qsum"], None),
    ]
    for mode in ("bow", "sd", "fd", "selective"):
        argv = ["run", *io_flags, "--mode", mode]
        if mode == "selective":
            argv += [*lexicon, "--theta", "5"]
        found.append((f"run {mode}", argv, f"{out}/{mode}.run"))
    found.append(("eval", ["eval", "--run", paths["run"], "--qrels", paths["qrels"]], None))
    grids = ["--mu-grid", "500", "2000", "--theta-grid", "1", "5", "25"]
    found.append(("tune", ["tune", *io_flags, *lexicon, "--qrels", paths["qrels"], *grids], None))
    return [
        (name, [*argv, "--out", run or f"{out}/{name.replace(' ', '-')}.out"], run)
        for name, argv, run in found
    ]


def check_call(argv, run_path, fuzzed_path, first_line):
    """The ways call `argv` broke the contract, as strings; empty if it kept it."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:  # a traceback is what the fuzz looks for
        return [traceback.format_exc()]
    out_path = argv[-1]
    if code == 2:
        lines = err.getvalue().splitlines()
        if len(lines) != 1 or not lines[0].startswith(f"error: {fuzzed_path}:"):
            return [f"exit 2 with stderr {lines!r}"]
        where = re.match(r"(\d+):", lines[0][len(f"error: {fuzzed_path}:"):])
        if where and not first_line <= int(where.group(1)):
            return [f"{lines[0]!r} names a line before the first changed one, {first_line}"]
        return []
    if code != 0:
        return [f"exit {code}"]
    with open(out_path, encoding="utf-8") as fh:
        text = fh.read()
    # A qid, doc_id or term may be spelt `nan`: only the numbers are checked.
    problems = []
    if run_path is not None:
        try:
            read_run(run_path)  # which rejects a score that is not finite
        except ValueError as exc:
            problems.append(f"run file does not read back: {exc}")
    elif out_path.endswith("tune.out"):
        json.loads(text, parse_constant=lambda name: problems.append(f"{name} in tune.json"))
    else:
        rows = [row.split(",") for row in text.splitlines()[1:]]
        if out_path.endswith("eval.out"):
            problems += [f"metric row {row!r} is not 4 fields wide" for row in rows if len(row) != 4]
            numbers = [field for row in rows for field in row[1:]]
        else:
            numbers = [field for row in rows for field in row[2:]]
        numbers = [field for field in numbers if field not in ("", "true", "false")]
        problems += [f"{field!r} is not a finite number" for field in numbers if not finite(field)]
    return problems


def finite(field):
    try:
        return math.isfinite(float(field))
    except ValueError:
        return False


# Which calls read each input: a call that does not read the fuzzed file
# cannot fail on it.
READERS = {
    "corpus": ("score vector", "score lm", "run bow", "run sd", "run fd", "run selective", "tune"),
    "queries": ("score vector", "score lm", "run bow", "run sd", "run fd", "run selective", "tune"),
    "lexicon": ("score vector", "score lm", "run selective", "tune"),
    "qrels": ("eval", "tune"),
}


@pytest.mark.parametrize("fuzzed", sorted(READERS))
def test_every_call_exits_cleanly_on_mutated_input(fixture_files, tmp_path, fuzzed):
    rng = random.Random(f"{SEED}:{fuzzed}")
    good = {}
    for name, data in fixture_files.items():
        (tmp_path / f"{name}.good").write_bytes(data)
        good[name] = str(tmp_path / f"{name}.good")
    # eval reads a run file the unmutated inputs give.
    good["run"] = str(tmp_path / "good.run")
    argv = ["run", "--corpus", good["corpus"], "--queries", good["queries"], "--mode", "fd"]
    assert main([*argv, "--out", good["run"]]) == 0
    failures = []
    for case in range(CASES_PER_FILE):
        data = mutate(fixture_files[fuzzed], rng)
        path = tmp_path / f"{fuzzed}.{case}"
        path.write_bytes(data)
        paths = {**good, fuzzed: str(path)}
        first = first_changed_line(fixture_files[fuzzed], data)
        for name, argv, run in calls(paths, tmp_path):
            if name in READERS[fuzzed]:
                failures += [
                    f"case {case} ({path}), {name}: {problem}"
                    for problem in check_call(argv, run, str(path), first)
                ]
    assert failures == []
