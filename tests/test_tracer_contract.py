"""The benchmark's tracer must still find every name it patches in termdep."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil

import termdep
from termdep.corpus import PositionalIndex
from termdep.evaluation import Qrels

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")
LAYERS = os.path.join(PERFBENCH, "layers.py")

# Names the benchmark still reads that termdep no longer defines: their
# metrics read 0 until the benchmark drops them.
STALE = {
    "combine_term_lms",
    "score_phrase_feature",
    "score_query",
    "score_unigram_ql",
    "window_weight",
}


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _strings(*nodes):
    return {
        n.value
        for node in nodes
        for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def benchmark_names():
    """Every termdep name perfbench reads: the names layers.py times with
    t(...) or counts with n(layer, name), and the HOOKS, COUNT_ONLY and
    UNWRAPPED names of tracing.py."""
    names = set()
    for node in ast.walk(_parse(LAYERS)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "t":
                names |= _strings(*node.args)
            elif node.func.id == "n":
                names |= _strings(node.args[1])
    for node in _parse(TRACING).body:
        if isinstance(node, ast.Assign):
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        else:
            continue
        if isinstance(target, ast.Name) and target.id in ("HOOKS", "COUNT_ONLY", "UNWRAPPED"):
            # HOOKS maps each name to a function, so its only strings are its keys.
            names |= _strings(node.value)
    return names


def termdep_names():
    """Every module attribute of termdep's modules, and every attribute of
    the classes they define."""
    names = set()
    for info in pkgutil.iter_modules(termdep.__path__):
        mod = importlib.import_module(f"termdep.{info.name}")
        names |= set(vars(mod))
        for value in vars(mod).values():
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                names |= set(vars(value))
    return names


def test_benchmark_reads_only_names_termdep_defines():
    names = benchmark_names()
    # The parse found the calls it looks for.
    assert {"ingest_corpus", "phrase_occurrences", "term_frequency", "relevant_docs"} <= names
    missing = names - termdep_names()
    assert missing == STALE


def test_tracer_installs_and_uninstalls():
    # Tracer.install looks some names up with vars(cls)[name]; a deleted
    # method would make every traced benchmark run raise KeyError.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = {
        name: vars(cls)[name]
        for cls, name in (
            (PositionalIndex, "term_frequency"),
            (PositionalIndex, "collection_frequency"),
            (Qrels, "relevant_docs"),
        )
    }
    tracer = tracing.Tracer()
    try:
        tracer.install(termdep)
        assert vars(PositionalIndex)["term_frequency"] is not originals["term_frequency"]
    finally:
        tracer.uninstall()
    assert vars(PositionalIndex)["term_frequency"] is originals["term_frequency"]
    assert vars(PositionalIndex)["collection_frequency"] is originals["collection_frequency"]
    assert vars(Qrels)["relevant_docs"] is originals["relevant_docs"]
