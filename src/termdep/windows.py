"""Context-window extraction around term and phrase occurrences.

A window spans n tokens either side of an occurrence (2n+1 tokens for a
single term, 2n+len(phrase) for a phrase), clipped at document boundaries.
Every occurrence yields its own window: none is dropped and duplicates
are kept.  The center tokens count toward the window's content, so
sum(counts.values()) == size.

Extraction cuts each window's token slice once, through the index's
tokens(); a WindowSet keeps the slices, not the index, and derives
its views from them, each on first use: the window sizes, whose sum is
the set's one definition of its mass G and mean size, window_cf (all
the LM family reads), stats (N, n(t), M_i, max f, G and each term's
window ids and in-window frequencies, all that term vectors read) and
ContextWindow objects (for callers that walk single windows).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, List, Sequence, Tuple

from .corpus import PositionalIndex, phrase_positions


@dataclass(frozen=True)
class ContextWindow:
    """One occurrence's surrounding token bag.

    counts holds the full token multiset including the center occurrence;
    size is the clipped token span length (M_i in weighting formulas).
    """

    doc_id: str
    position: int
    counts: Dict[str, int]
    size: int

    def __post_init__(self):
        # Clipping can only shrink a window, never let counts drift from size.
        assert sum(self.counts.values()) == self.size


@dataclass
class WindowStats:
    """Statistics of one window set, from one pass over its tokens.

    n_windows is N.  ids[t] lists the ascending ids of the windows
    containing t, keyed in order of first appearance, so len(ids[t]) is
    n(t).  t occurs once in each of those windows, except that
    repeats[t][k] = f says it occurs f > 1 times in window ids[t][k];
    keeping only the repeats keeps one list per term.  sizes[i] and
    max_f[i] are window i's size M_i and peak frequency; total_mass is the
    grand token total G and av_m the mean size, both the window set's.
    """

    n_windows: int
    ids: Dict[str, List[int]]
    repeats: Dict[str, Dict[int, int]]
    sizes: List[int]
    max_f: List[int]
    total_mass: int
    av_m: float

    def freqs(self, term: str) -> List[int]:
        """The count of `term` in each window of ids[term], in order."""
        fs = [1] * len(self.ids[term])
        rep = self.repeats.get(term)
        if rep:
            for k, f in rep.items():
                fs[k] = f
        return fs


class WindowSet:
    """The windows of one target term or phrase, held as token slices.

    spans[i] is window i's (doc_id, position, tokens): the occurrence
    starts at `position` and tokens is the window's slice of the document.
    The views are derived on first use and kept; none keeps a per-window
    dict unless `windows` is read.
    """

    def __init__(self, target: Tuple[str, ...], spans: List[Tuple[str, int, Tuple[str, ...]]]):
        self.target = target
        self.spans = spans

    @property
    def n_windows(self) -> int:
        return len(self.spans)

    @cached_property
    def sizes(self) -> List[int]:
        """Each window's size M_i, its token count."""
        return [len(tokens) for _, _, tokens in self.spans]

    @cached_property
    def total_mass(self) -> int:
        """The grand token total G, the sum of the window sizes."""
        return sum(self.sizes)

    @property
    def av_m(self) -> float:
        """The mean window size G / N, or 0.0 for a set with no windows."""
        return self.total_mass / self.n_windows if self.spans else 0.0

    @cached_property
    def window_cf(self) -> Dict[str, int]:
        """Each term's total count across the windows, in order of first appearance."""
        return Counter(chain.from_iterable(tokens for _, _, tokens in self.spans))

    @cached_property
    def stats(self) -> WindowStats:
        """Every statistic the vector family reads, from one pass over the spans."""
        ids: Dict[str, List[int]] = {}
        repeats: Dict[str, Dict[int, int]] = {}
        get = ids.get
        max_f: List[int] = []
        for i, (_, _, tokens) in enumerate(self.spans):
            peak = 1
            for t in tokens:
                col = get(t)
                if col is None:
                    ids[t] = [i]
                elif col[-1] != i:
                    col.append(i)
                else:
                    # A repeat inside window i, the last entry of t's column.
                    rep = repeats.get(t)
                    if rep is None:
                        rep = repeats[t] = {}
                    k = len(col) - 1
                    f = rep[k] = rep.get(k, 1) + 1
                    if f > peak:
                        peak = f
            max_f.append(peak)
        return WindowStats(
            n_windows=self.n_windows,
            ids=ids,
            repeats=repeats,
            sizes=self.sizes,
            max_f=max_f,
            total_mass=self.total_mass,
            av_m=self.av_m,
        )

    @cached_property
    def windows(self) -> List[ContextWindow]:
        return [
            ContextWindow(doc_id, p, dict(Counter(tokens)), len(tokens))
            for doc_id, p, tokens in self.spans
        ]

    def windows_for(self, term: str) -> List[int]:
        """Indices of windows containing `term`, in extraction order."""
        return self.stats.ids.get(term, [])


def extract_windows(index: PositionalIndex, target: Sequence[str], n: int = 5) -> WindowSet:
    """Collect the context windows of every occurrence of `target`.

    target is a term (length 1) or an exact ordered phrase.  Windows are
    gathered in document ingestion order, positions ascending within a
    document.
    """
    if not target:
        raise ValueError("extract_windows requires a non-empty target")
    if n < 0:
        raise ValueError("window half-width must be >= 0")
    target = tuple(target)
    span = len(target)
    spans: List[Tuple[str, int, Tuple[str, ...]]] = []
    for doc_id, starts in phrase_positions(index, target).items():
        tokens = index.tokens(doc_id)
        spans.extend((doc_id, p, tokens[max(0, p - n) : p + span + n]) for p in starts)
    return WindowSet(target, spans)
