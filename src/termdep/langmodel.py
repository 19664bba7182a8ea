"""Smoothed unigram language models, model combination, and KL divergence.

Two smoothers: add-one (Laplace) and Simple Good-Turing via the
Gale-Sampson procedure, which reads the frequencies of frequencies of one
count table (a Counter over its values).  A phrase's model is the
combination of its per-term models under one of four rules; query and
perturbation models share the union vocabulary of both phrases' context
windows, so every divergence is computed over a common, strictly positive
event space.

A comparison lays every column out on one word -> slot map (slot_map), in
whatever order its vocabulary iterates, and fills in only each term's
seen words.  No value depends on that order: each is computed per word,
or is an exactly rounded math.fsum, so any order gives the very same
floats.  The builtin sum is never used on floats here, since its rounding
changed in Python 3.12.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Set, Tuple

SMOOTHINGS = ("laplace", "sgt")
COMBINATIONS = ("qsum", "qavg", "mult", "median")

# A comparison's word -> column slot map (see slot_map).
Slots = Dict[str, int]


@dataclass
class SmoothedLM:
    """A probability distribution over a vocabulary plus an unseen reserve.

    prob covers the model's vocabulary and sums, together with
    unseen_mass, to 1.  unseen_prob is the probability handed to a single
    out-of-vocabulary word; for the Good-Turing model the reserve is split
    evenly over however many unseen words a comparison introduces (see
    aligned_probs).
    """

    method: str
    prob: Dict[str, float]
    unseen_mass: float
    unseen_prob: float
    diagnostics: List[str] = field(default_factory=list)

    @property
    def vocabulary(self) -> Set[str]:
        return set(self.prob)


def laplace_lm(counts: Dict[str, int], vocabulary: Iterable[str]) -> SmoothedLM:
    """Add-one estimates over `vocabulary`: P(w) = (c_w + 1)/(C + V).

    The vocabulary must cover the counts' support; its size V makes the
    distribution sum to exactly 1 over the vocabulary, and any word beyond
    it gets unseen_prob = 1/(C + V).
    """
    vocab = set(vocabulary)
    denom = _laplace_denominator(counts, vocab)
    return SmoothedLM(
        method="laplace",
        prob={w: (counts.get(w, 0) + 1) / denom for w in sorted(vocab)},
        unseen_mass=0.0,
        unseen_prob=1.0 / denom,
    )


def _laplace_denominator(counts: Dict[str, int], vocabulary: Collection[str]) -> int:
    """C + V, once the vocabulary is known to be non-empty and to cover the counts."""
    if not vocabulary:
        raise ValueError("laplace_lm requires a non-empty vocabulary")
    if not counts.keys() <= vocabulary:
        missing = counts.keys() - set(vocabulary)
        raise ValueError(f"vocabulary must cover counts; missing {sorted(missing)[:3]}")
    return sum(counts.values()) + len(vocabulary)


def slot_map(vocabulary: Iterable[str]) -> Slots:
    """Each word's slot in a comparison's columns, numbered in iteration order.

    Raises ValueError on a repeated word: a column has one slot per word.
    """
    words = list(vocabulary)
    slots = dict(zip(words, range(len(words))))
    if len(slots) != len(words):
        raise ValueError("vocabulary words must be distinct")
    return slots


def _filled(
    slots: Slots, fill: float, words: Iterable[str], values: Iterable[float]
) -> List[float]:
    """The one column builder: `fill` in every slot, then each seen word's value in its own.

    Only a term's seen words are visited, never the whole vocabulary.
    """
    column = [fill] * len(slots)
    for i, v in zip(map(slots.__getitem__, words), values):
        column[i] = v
    return column


def laplace_column(counts: Dict[str, int], slots: Slots) -> List[float]:
    """aligned_probs(laplace_lm(counts, slots), slots), built directly."""
    denom = _laplace_denominator(counts, slots.keys())
    values = [(c + 1) / denom for c in counts.values()]
    return _renormalized(_filled(slots, 1 / denom, counts, values))


def _gale_sampson_smoother(ff: Dict[int, int]):
    """Fit S(r) = exp(a + b ln r) to the Z-transformed ff table.

    Z averages each N_r over the gap to its neighbouring occupied ranks
    (first rank's lower neighbour is 0; the last rank's upper neighbour is
    mirrored as 2r - q).  A single occupied rank leaves the slope
    unidentifiable; it degrades to the constant fit b = 0.
    """
    ranks = sorted(ff)
    zs: List[float] = []
    for idx, r in enumerate(ranks):
        q = ranks[idx - 1] if idx > 0 else 0
        t = ranks[idx + 1] if idx + 1 < len(ranks) else 2 * r - q
        zs.append(ff[r] / (0.5 * (t - q)))
    xs = [math.log(r) for r in ranks]
    ys = [math.log(z) for z in zs]
    n = len(ranks)
    if n == 1:
        a, b = ys[0], 0.0
    else:
        mean_x = math.fsum(xs) / n
        mean_y = math.fsum(ys) / n
        sxx = math.fsum((x - mean_x) ** 2 for x in xs)
        if sxx == 0.0:
            a, b = mean_y, 0.0
        else:
            b = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
            a = mean_y - b * mean_x
    return lambda r: math.exp(a + b * math.log(r))


def sgt_lm(counts: Dict[str, int]) -> SmoothedLM:
    """Simple Good-Turing estimates from a count multiset.

    Expected counts come from the Turing estimates (r+1)N_{r+1}/N_r until
    they stop differing significantly (1.96 sigma) from the fitted
    (r+1)S(r+1)/S(r), or N_{r+1} hits zero; after the switch only the fit
    is used.  Raw seen probabilities r*/C and the raw unseen reserve
    ff_1/C are then renormalized over their common total so everything
    sums to 1.  Without hapaxes the unseen reserve would be zero, so the
    model falls back to Laplace (with a diagnostic) over the counts' own
    support.
    """
    if not counts:
        raise ValueError("sgt_lm requires at least one nonzero count")
    # ff[r] counts the words occurring r times; ff[r] is 0 for an absent r.
    ff = Counter(counts.values())
    if min(ff) < 1:
        raise ValueError(f"counts must be >= 1, got {min(ff)}")
    if not ff[1]:
        lm = laplace_lm(counts, counts)
        lm.diagnostics.append("sgt: no hapax legomena; fell back to laplace")
        return lm
    smoother = _gale_sampson_smoother(ff)
    r_star: Dict[int, float] = {}
    switched = False
    for r in sorted(ff):
        n_r = ff[r]
        n_r1 = ff[r + 1]
        lgt = (r + 1) * smoother(r + 1) / smoother(r)
        if not switched and n_r1 > 0:
            turing = (r + 1) * n_r1 / n_r
            sigma = math.sqrt((r + 1) ** 2 * (n_r1 / n_r**2) * (1.0 + n_r1 / n_r))
            if abs(turing - lgt) > 1.96 * sigma:
                r_star[r] = turing
                continue
        switched = True
        r_star[r] = lgt
    c_q = sum(counts.values())
    raw = {w: r_star[c] / c_q for w, c in counts.items()}
    raw_unseen = ff[1] / c_q
    total = raw_unseen + math.fsum(raw.values())
    prob = {w: v / total for w, v in raw.items()}
    unseen_mass = raw_unseen / total
    return SmoothedLM(
        method="sgt", prob=prob, unseen_mass=unseen_mass, unseen_prob=unseen_mass
    )


def aligned_probs(model: SmoothedLM, slots: Slots) -> List[float]:
    """Model probabilities over a comparison vocabulary, laid out by its slot_map.

    Seen words outside the vocabulary are ignored.  The words
    the model has not seen share its unseen reserve: split evenly for the
    Good-Turing reserve, unseen_prob each for a Laplace model (such as
    sgt_lm's fallback).  The aligned vector is renormalized so it is a
    proper distribution over exactly this vocabulary.
    """
    return _renormalized(_aligned_values(model, slots))


def _aligned_values(model: SmoothedLM, slots: Slots) -> List[float]:
    prob = model.prob
    words = [w for w in prob if w in slots]
    n_unseen = len(slots) - len(words)
    if model.method == "sgt" and n_unseen:
        fill = model.unseen_mass / n_unseen
    else:
        fill = model.unseen_prob
    return _filled(slots, fill, words, map(prob.__getitem__, words))


def _renormalized(values: Sequence[float]) -> List[float]:
    total = math.fsum(values)
    if total <= 0.0:
        raise ValueError("aligned model has no probability mass")
    return [v / total for v in values]


def _quantile_band(values: Sequence[float]) -> Tuple[float, float]:
    """Inclusive [Q1, Q3] with linear interpolation between order stats."""
    s = sorted(values)
    n = len(s)

    def at(q: float) -> float:
        pos = q * (n - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if lo == hi:
            return s[lo]
        frac = pos - lo
        return s[lo] * (1.0 - frac) + s[hi] * frac

    return at(0.25), at(0.75)


def combination_input(column: List[float], method: str) -> List[float]:
    """What combine_inputs reads of one aligned column under `method`.

    For qsum and qavg it is the column with every value outside the
    column's own inclusive [Q1, Q3] band set to 0.0 (outlier suppression).
    Q1 must be positive, so 0.0 marks exactly the words the column does
    not contribute.  For mult and median it is the column itself.  A
    comparison computes it once per term and shares it between its two
    phrases.
    """
    if method not in COMBINATIONS:
        raise ValueError(f"unknown combination method {method!r}")
    if not column:
        raise ValueError("combination vocabulary is empty")
    if method in ("mult", "median"):
        return column
    q1, q3 = _quantile_band(column)
    if q1 <= 0.0:
        raise ValueError(f"quantile combination needs a positive band, got Q1 = {q1!r}")
    return [v if q1 <= v <= q3 else 0.0 for v in column]


def combine_inputs(inputs: Sequence[List[float]], method: str) -> List[float]:
    """Merge per-term combination_input columns (one per term) into one distribution.

    qsum sums each word's contributions and qavg averages them; a word
    left with no contributor gets the smallest positive combined value.
    mult multiplies per-word values; median takes the per-word median.
    The result is renormalized to sum to 1.
    """
    if method not in COMBINATIONS:
        raise ValueError(f"unknown combination method {method!r}")
    if not inputs:
        raise ValueError("combination requires at least one column")
    if not all(inputs):
        raise ValueError("combination vocabulary is empty")
    if len(set(map(len, inputs))) > 1:
        raise ValueError(f"columns differ in length: {sorted(set(map(len, inputs)))}")
    if method == "mult":
        combined = list(map(math.prod, zip(*inputs)))
    elif method == "median":
        combined = []
        for row in zip(*inputs):
            vals = sorted(row)
            mid = len(vals) // 2
            combined.append(
                vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2.0
            )
    else:
        # A left-out value is 0.0, which leaves the exactly rounded fsum of
        # the contributions unchanged.  Contributions are positive, so a row
        # sums to 0.0 exactly when it has no contributor, and each nonzero
        # value counts one.
        rows = zip(*inputs)
        if method == "qsum":
            combined = list(map(math.fsum, rows))
        else:
            m = len(inputs)
            combined = [
                math.fsum(row) / (m - row.count(0.0)) if any(row) else 0.0 for row in rows
            ]
        if 0.0 in combined:
            # No value is negative, so the nonzero ones are the positive ones.
            floor = min(filter(None, combined), default=0.0)
            if not floor:
                raise ValueError("quantile combination produced no contributions")
            combined = [v or floor for v in combined]
    total = math.fsum(combined)
    return [v / total for v in combined]


def combine_columns(columns: Sequence[List[float]], method: str) -> List[float]:
    """Merge aligned per-term distributions (one list per term) into one.

    combine_inputs over each column's combination_input; see both.
    """
    return combine_inputs([combination_input(c, method) for c in columns], method)


def kld(p: SmoothedLM, q: SmoothedLM, vocabulary: Optional[Iterable[str]] = None) -> float:
    """Kullback-Leibler divergence sum_w P(w) log(P(w)/Q(w)), natural log.

    Both models are aligned on the given vocabulary (default: union of
    their vocabularies) so every event has positive probability on both
    sides.
    """
    if vocabulary is None:
        vocab = sorted(p.vocabulary | q.vocabulary)
    else:
        vocab = sorted(set(vocabulary))
    slots = slot_map(vocab)
    return kld_lists(_aligned_values(p, slots), _aligned_values(q, slots))


def kld_lists(p: Sequence[float], q: Sequence[float]) -> float:
    """kld of two value lists aligned on one vocabulary.

    Each list is renormalized to sum to 1 first, as aligning a model on a
    comparison vocabulary does.  Rounding can take the sum of a near-equal
    pair just below 0; KL divergence is non-negative, so it is clamped.
    """
    if len(p) != len(q):
        raise ValueError(f"p and q differ in length: {len(p)} and {len(q)}")
    pp = _renormalized(p)
    qq = _renormalized(q)
    for name, vals in (("p", pp), ("q", qq)):
        if min(vals) <= 0.0:
            raise ValueError(f"{name} assigns non-positive probability")
    return max(0.0, math.fsum([a * math.log(a / b) for a, b in zip(pp, qq)]))
