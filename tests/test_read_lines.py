"""Every input file goes through corpus.read_lines: one decoding and
line-numbering rule for the seven readers, and no other way in.  Likewise,
term positions come only through PositionalIndex.positions, and a
document's tokens only through PositionalIndex.tokens; only the functions
that declare a call's terms call PositionalIndex.invert."""

import ast
import json
import pathlib
import re
from types import SimpleNamespace

import pytest

from termdep.cli import _selection_for
from termdep.corpus import ingest_corpus, load_queries, load_stopwords
from termdep.evaluation import load_qrels
from termdep.perturb import load_lexicon
from termdep.retrieval import read_run

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "termdep").glob("*.py"))

# name -> (three record lines, the records the reader makes of a file)
READERS = {
    "corpus": (
        [
            json.dumps({"doc_id": "d1", "text": "alpha beta"}),
            json.dumps({"doc_id": "d2", "text": "gamma délta"}, ensure_ascii=False),
            json.dumps({"doc_id": "d3", "text": "beta alpha"}),
        ],
        lambda path: list(ingest_corpus(path).doc_tokens.items()),
    ),
    "queries": (
        ["q1\talpha beta", "q2\tnaïve gamma", "q3\tbeta"],
        load_queries,
    ),
    "stopwords": (["the", "of", "and"], load_stopwords),
    "lexicon": (["alpha\tbeta,gamma", "delta\tepsilon", "alpha\tzeta"], load_lexicon),
    "qrels": (["q1 0 d1 2", "q1 0 d2 0", "q2 0 d1 1"], lambda path: load_qrels(path).judgments),
    "run": (
        ["q1 Q0 d1 1 -1.500000 t", "q1 Q0 d2 2 -2.000000 t", "q2 Q0 d1 1 -1.000000 t"],
        lambda path: read_run(path).results,
    ),
    "selected": (
        ["q1", "q2", "q3"],
        lambda path: _selection_for(
            SimpleNamespace(selected=path),
            None,
            [SimpleNamespace(qid=qid) for qid in ("q1", "q2", "q3")],
            None,
        ),
    ),
}


def write(path, lines, end="\n", prefix=b""):
    path.write_bytes(prefix + "".join(line + end for line in lines).encode("utf-8"))
    return str(path)


@pytest.fixture(params=sorted(READERS))
def reader(request):
    return READERS[request.param]


def test_bad_byte_names_file_and_line(reader, tmp_path):
    lines, load = reader
    # Line 3 of the file is the second record: the blank line 2 still counts.
    data = "\n".join([lines[0], "", lines[1], lines[2]]).encode("utf-8").split(b"\n")
    data[2] += b"\xff"
    path = tmp_path / "bad"
    path.write_bytes(b"\n".join(data) + b"\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:3: ")):
        load(str(path))


def test_byte_order_mark_is_dropped(reader, tmp_path):
    lines, load = reader
    plain = load(write(tmp_path / "plain", lines))
    assert load(write(tmp_path / "bom", lines, prefix=b"\xef\xbb\xbf")) == plain


def test_crlf_reads_as_lf(reader, tmp_path):
    lines, load = reader
    assert load(write(tmp_path / "crlf", lines, end="\r\n")) == load(write(tmp_path / "lf", lines))


def test_whitespace_only_lines_skipped(reader, tmp_path):
    lines, load = reader
    padded = ["  ", lines[0], "\t", lines[1], " 　 ", lines[2], ""]
    assert load(write(tmp_path / "padded", padded)) == load(write(tmp_path / "plain", lines))


# os.open flags that open a file for writing.
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def writes(node):
    """Whether an argument is a mode string or os.open flags that open for writing."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        mode = node.value
        return set(mode) <= set("rwxabt+") and bool(set(mode) & set("wax+"))
    return any(getattr(n, "attr", getattr(n, "id", None)) in WRITE_FLAGS for n in ast.walk(node))


def opens(path):
    """(enclosing function, line, whether it writes) of each call in a module that opens a file.

    open(), io.open(), os.open() and a path's .open() write when an argument
    or their mode keyword is a writing mode string or writing os.open flags,
    and read otherwise; .read_text() and .read_bytes() read, .write_text() and
    .write_bytes() write.
    """
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                arguments = child.args[:2] + [
                    kw.value for kw in child.keywords if kw.arg in ("mode", "flags")
                ]
                if name in ("read_text", "read_bytes", "write_text", "write_bytes"):
                    found.append((function, child.lineno, name.startswith("write")))
                elif name == "open":
                    found.append((function, child.lineno, any(writes(arg) for arg in arguments)))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return found


def reads(path):
    """(enclosing function, line) of each call in a module that opens a file for reading."""
    return [(function, line) for function, line, write in opens(path) if not write]


def test_read_lines_opens_a_file():
    corpus = next(path for path in SOURCES if path.name == "corpus.py")
    assert [function for function, _ in reads(corpus)] == ["read_lines"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_other_read_path(path):
    outside = [
        f"{path.name}:{line} in {function}"
        for function, line in reads(path)
        if not (path.name == "corpus.py" and function == "read_lines")
    ]
    assert outside == [], f"files opened for reading outside read_lines: {outside}"


def attribute_reads(path, attr):
    """Line of each `.<attr>` attribute in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == attr
    ]


# The index's own backing: the program reads a term's positions through
# index.positions(), a document's tokens through index.tokens(), and counts
# through the index's methods.
INDEX_INTERNALS = ("postings", "_absent", "doc_tokens")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_positions_only_through_the_index(path):
    attrs = () if path.name == "corpus.py" else INDEX_INTERNALS
    outside = [f".{attr} at line {line}" for attr in attrs for line in attribute_reads(path, attr)]
    assert outside == [], f"{path.name} reads {outside}; use index.positions() or index.tokens()"


def attribute_uses(path, attr):
    """(enclosing function, line) of each `.<attr>` attribute in a module."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                found.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return found


# The functions that know every term their call will look up declare them to
# index.invert, which finds them all in one pass; positions() inverts an
# undeclared term alone.
INVERT_CALLERS = {
    "cli.py": ["_cmd_windows"],
    "corpus.py": ["positions"],
    "retrieval.py": ["rank", "rank_mu_grid"],
    "scoring.py": ["score_batch"],
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_invert_called_only_where_a_call_declares_its_terms(path):
    callers = [function for function, _ in attribute_uses(path, "invert")]
    assert callers == INVERT_CALLERS.get(path.name, [])
