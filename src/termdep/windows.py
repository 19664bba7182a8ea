"""Context-window extraction around term and phrase occurrences.

A window spans n tokens either side of an occurrence (2n+1 tokens for a
single term, 2n+len(phrase) for a phrase), clipped at document boundaries.
Every occurrence yields its own window: none is dropped and duplicates
are kept.  The center tokens count toward the window's content, so
sum(counts.values()) == size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Aggregate statistics over one target's extracted windows.

    n_windows is N, windows_containing[t] is n(t), av_m the mean window
    size, max_f[i] the peak frequency inside window i, window_cf[t] the
    total count of t across windows, total_mass the grand token total G.
    """

    n_windows: int
    av_m: float
    max_f: List[int]
    windows_containing: Dict[str, int]
    window_cf: Dict[str, int]
    total_mass: int


@dataclass
class WindowSet:
    """Windows for one target term or phrase plus their cached statistics.

    One pass over the windows' counts collects, per context term in order
    of first appearance, the ascending ids of the windows containing it
    and its total count; n(t) is the length of its id list.
    """

    target: Tuple[str, ...]
    windows: List[ContextWindow]
    stats: WindowStats = field(init=False)
    _containing_ids: Dict[str, List[int]] = field(init=False, default_factory=dict)

    def __post_init__(self):
        containing_ids = self._containing_ids
        get = containing_ids.get
        cf: Dict[str, int] = {}
        max_f: List[int] = []
        total = 0
        for i, w in enumerate(self.windows):
            max_f.append(max(w.counts.values()) if w.counts else 0)
            total += w.size
            for term, c in w.counts.items():
                ids = get(term)
                if ids is None:
                    containing_ids[term] = [i]
                    cf[term] = c
                else:
                    ids.append(i)
                    cf[term] += c
        n = len(self.windows)
        self.stats = WindowStats(
            n_windows=n,
            av_m=(total / n) if n else 0.0,
            max_f=max_f,
            windows_containing={t: len(ids) for t, ids in containing_ids.items()},
            window_cf=cf,
            total_mass=total,
        )

    def windows_for(self, term: str) -> List[int]:
        """Indices of windows containing `term`, in extraction order."""
        return self._containing_ids.get(term, [])


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
    windows: List[ContextWindow] = []
    occurrences = [
        (doc_id, p) for doc_id, starts in phrase_positions(index, target).items() for p in starts
    ]
    for doc_id, p in occurrences:
        tokens = index.doc_tokens[doc_id]
        lo = max(0, p - n)
        hi = min(len(tokens), p + span + n)
        counts: Dict[str, int] = {}
        for t in tokens[lo:hi]:
            counts[t] = counts.get(t, 0) + 1
        windows.append(ContextWindow(doc_id=doc_id, position=p, counts=counts, size=hi - lo))
    return WindowSet(target=target, windows=windows)
