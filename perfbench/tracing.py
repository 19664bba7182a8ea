"""In-memory tracing of termdep from outside the package.

Tracer.install() replaces every public function of the pipeline modules,
in every termdep module namespace that holds it, so a call is traced
wherever its caller looks the name up.  Functions called once per document
or per candidate are wrapped to count only; the rest record a span
(id, name, layer, start, end, parent).  Worker threads of the scoring pool
parent their spans to the span the main thread is blocked in.

Self time is computed along the blocking path: at every instant the
elapsed time goes to the innermost open spans, shared equally when worker
threads run at once, so a stage's self times add up to its wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

LAYERS = ("corpus", "windows", "vectors", "langmodel", "perturb", "scoring", "retrieval", "evaluation")

# Called per document or per candidate: count, never time.  _candidates is
# private, but it is where each query's candidate list is built.
COUNT_ONLY = {
    "tokenize",
    "score_unigram_ql",
    "score_phrase_feature",
    "_candidates",
    "term_frequency",
    "collection_frequency",
    "relevant_docs",
}
# Per-window inner loops with no metric of their own: left unwrapped.
UNWRAPPED = {"weight", "window_weight"}

Span = Tuple[int, str, str, float, float, int]  # id, name, layer, start, end, parent


def _ingest(st: _Thread, args, kwargs, index) -> None:
    st.counts["corpus.docs"] += index.doc_count
    st.counts["corpus.tokens"] += index.total_terms
    st.counts["corpus.vocab"] += index.vocab_size


def _postings(st: _Thread, args, kwargs, result) -> None:
    st.counts["corpus.postings_walked"] += len(args[0].postings.get(args[1], ()))


def _windows(st: _Thread, args, kwargs, ws) -> None:
    st.counts["windows.windows"] += len(ws.windows)
    st.targets.add(ws.target)


def _cosine(st: _Thread, args, kwargs, result) -> None:
    st.counts["vectors.degenerate"] += int(result[1])


def _kld(st: _Thread, args, kwargs, result) -> None:
    vocab = args[2] if len(args) > 2 else kwargs.get("vocabulary")
    if vocab is None:
        vocab = args[0].vocabulary | args[1].vocabulary
    st.counts["langmodel.union_vocab"] += len(set(vocab))


def _perturb(st: _Thread, args, kwargs, result) -> None:
    st.counts["perturb.perturbations"] += len(result)


def _score_query(st: _Thread, args, kwargs, score) -> None:
    st.counts["scoring.divergences"] += len(score.divergences)


def _score_batch(st: _Thread, args, kwargs, scores) -> None:
    st.counts["scoring.unscoreable"] += sum(1 for s in scores if not s.scoreable)


def _candidates(st: _Thread, args, kwargs, docs) -> None:
    st.counts["retrieval.candidates"] += len(docs)


def _relevant(st: _Thread, args, kwargs, result) -> None:
    st.counts["evaluation.qrels_walked"] += len(args[0].judgments)


HOOKS: Dict[str, Callable] = {
    "ingest_corpus": _ingest,
    "term_frequency": _postings,
    "collection_frequency": _postings,
    "extract_windows": _windows,
    "cosine_distance": _cosine,
    "kld": _kld,
    "perturb": _perturb,
    "score_query": _score_query,
    "score_batch": _score_batch,
    "_candidates": _candidates,
    "relevant_docs": _relevant,
}


class _Thread:
    """What one thread recorded: its open-span stack, spans and counts."""

    def __init__(self):
        self.stack: List[int] = []
        self.spans: List[Span] = []
        self.counts = Counter()
        self.targets = set()


class Tracer:
    """Spans and counts of one traced stretch of work, kept in memory."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: List[_Thread] = []
        self._lock = threading.Lock()
        self._main = self._state()
        self._patches: List[Tuple[object, str, object]] = []

    def _state(self) -> _Thread:
        st = getattr(self._local, "thread", None)
        if st is None:
            st = self._local.thread = _Thread()
            with self._lock:
                self._threads.append(st)
        return st

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)
        calls = f"{layer}.{name}.calls"
        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                st = self._state()
                st.counts[calls] += 1
                if hook is not None:
                    hook(st, args, kwargs, result)
                return result

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            st = self._state()
            parent = st.stack[-1] if st.stack else (self._main.stack[-1] if self._main.stack else 0)
            sid = next(self._ids)
            st.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                st.stack.pop()
                st.spans.append((sid, name, layer, start, end, parent))
            st.counts[calls] += 1
            if hook is not None:
                hook(st, args, kwargs, result)
            return result

        return spanned

    def install(self, package) -> None:
        """Patch the pipeline modules of `package` (the imported termdep)."""
        modules = {
            name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS + ("cli",)
        }
        for layer in LAYERS:
            mod = modules[layer]
            for name, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if (name.startswith("_") and name not in COUNT_ONLY) or name in UNWRAPPED:
                    continue
                wrapper = self._wrap(layer, name, fn)
                for owner in modules.values():
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, attr, wrapper)
        for layer, cls, name in (
            ("corpus", modules["corpus"].PositionalIndex, "term_frequency"),
            ("corpus", modules["corpus"].PositionalIndex, "collection_frequency"),
            ("evaluation", modules["evaluation"].Qrels, "relevant_docs"),
        ):
            self._patch(cls, name, self._wrap(layer, name, vars(cls)[name]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def root(self, name: str):
        """The root span of one CLI call, in layer "cli"."""
        st = self._state()
        sid = next(self._ids)
        st.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            st.stack.pop()
            st.spans.append((sid, name, "cli", start, end, 0))

    def spans(self) -> List[Span]:
        return sorted((s for st in self._threads for s in st.spans), key=lambda s: s[0])

    def counts(self) -> Counter:
        total = Counter()
        for st in self._threads:
            total.update(st.counts)
        return total

    def targets(self) -> set:
        return set().union(*(st.targets for st in self._threads))


def blocking_self_times(spans: List[Span], root: Span) -> Dict[str, float]:
    """Per-layer self time inside `root`, attributed along the blocking path.

    Elapsed time between consecutive span boundaries goes to the open spans
    that have no open child, split equally among them.  The values sum to
    the root's duration.
    """
    children: Dict[int, List[Span]] = {}
    for s in spans:
        children.setdefault(s[5], []).append(s)
    members = [root]
    i = 0
    while i < len(members):
        members.extend(children.get(members[i][0], ()))
        i += 1
    layer_of = {s[0]: s[2] for s in members}
    events = []
    for s in members:
        events.append((s[3], 1, s))
        events.append((s[4], 0, s))
    events.sort(key=lambda e: (e[0], e[1]))
    open_children: Dict[int, int] = {}
    is_open = set()
    leaves: Dict[int, str] = {}
    out: Dict[str, float] = {}
    last = events[0][0]
    for t, opening, s in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for layer in leaves.values():
                out[layer] = out.get(layer, 0.0) + share
        last = t
        sid, parent = s[0], s[5]
        if opening:
            is_open.add(sid)
            leaves[sid] = s[2]
            if parent in is_open:
                open_children[parent] = open_children.get(parent, 0) + 1
                leaves.pop(parent, None)
        else:
            is_open.discard(sid)
            leaves.pop(sid, None)
            if parent in is_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves[parent] = layer_of[parent]
    return out


def inclusive_time(spans: List[Span], names: Tuple[str, ...]) -> float:
    """Summed duration of spans named in `names`, not counting nested repeats."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for s in spans:
        if s[1] not in names:
            continue
        p = by_id.get(s[5])
        while p is not None and p[1] not in names:
            p = by_id.get(p[5])
        if p is None:
            total += s[4] - s[3]
    return total


def count_within(spans: List[Span], name: str, ancestor: str) -> int:
    """Number of `name` spans with an `ancestor` span above them."""
    by_id = {s[0]: s for s in spans}
    n = 0
    for s in spans:
        if s[1] != name:
            continue
        p = by_id.get(s[5])
        while p is not None and p[1] != ancestor:
            p = by_id.get(p[5])
        n += p is not None
    return n
