"""The benchmark's tracer must still find every name it patches in termdep."""

import importlib.util
import os

import termdep
from termdep.corpus import PositionalIndex
from termdep.evaluation import Qrels

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


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
