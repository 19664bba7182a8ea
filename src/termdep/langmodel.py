"""Smoothed unigram language models, model combination, and KL divergence.

Two smoothers: add-one (Laplace) and Simple Good-Turing via the
Gale-Sampson procedure, which reads the frequencies of frequencies of one
count table (a Counter over its values).  A phrase's model is the
combination of its per-term models under one of four rules; query and
perturbation models share the union vocabulary of both phrases' context
windows, so every divergence is computed over a common, strictly positive
event space.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

SMOOTHINGS = ("laplace", "sgt")
COMBINATIONS = ("qsum", "qavg", "mult", "median")


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
    vocab = sorted(set(vocabulary))
    prob = dict(zip(vocab, _laplace_values(counts, vocab)))
    return SmoothedLM(
        method="laplace",
        prob=prob,
        unseen_mass=0.0,
        unseen_prob=1.0 / (sum(counts.values()) + len(vocab)),
    )


def _laplace_values(counts: Dict[str, int], vocabulary: Sequence[str]) -> List[float]:
    """(c_w + 1)/(C + V) for each word of an ordered vocabulary of distinct words."""
    if not vocabulary:
        raise ValueError("laplace_lm requires a non-empty vocabulary")
    missing = counts.keys() - vocabulary
    if missing:
        raise ValueError(f"vocabulary must cover counts; missing {sorted(missing)[:3]}")
    denom = sum(counts.values()) + len(vocabulary)
    return [(counts.get(w, 0) + 1) / denom for w in vocabulary]


def laplace_column(counts: Dict[str, int], vocabulary: Sequence[str]) -> List[float]:
    """aligned_probs(laplace_lm(counts, vocabulary), vocabulary), built directly.

    `vocabulary` holds distinct words, in the order of the returned column.
    """
    return _renormalized(_laplace_values(counts, vocabulary))


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


def aligned_probs(model: SmoothedLM, vocabulary: Sequence[str]) -> List[float]:
    """Model probabilities over an ordered comparison vocabulary.

    Out-of-vocabulary words share the model's unseen reserve (split evenly
    for the Good-Turing reserve, per-word add-one mass for Laplace); the
    aligned vector is renormalized so it is a proper distribution over
    exactly this vocabulary.
    """
    return _renormalized(_aligned_values(model, vocabulary))


def _aligned_values(model: SmoothedLM, vocabulary: Sequence[str]) -> List[float]:
    values = list(map(model.prob.get, vocabulary))
    n_unseen = values.count(None)
    if n_unseen:
        fill = model.unseen_mass / n_unseen if model.method == "sgt" else model.unseen_prob
        values = [fill if v is None else v for v in values]
    return values


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


def combine_columns(columns: Sequence[List[float]], method: str) -> List[float]:
    """Merge aligned per-term distributions (one list per term) into one.

    qsum / qavg: a column contributes a word's value only when that value
    lies inside the column's own interquartile band (outlier suppression);
    per-word contributions are summed or averaged, and words left with no
    contributor get the smallest positive combined value.  mult multiplies
    per-word values; median takes the per-word median.  The result is
    renormalized to sum to 1.
    """
    if method not in COMBINATIONS:
        raise ValueError(f"unknown combination method {method!r}")
    if not columns:
        raise ValueError("combine_columns requires at least one column")
    if not all(columns):
        raise ValueError("combination vocabulary is empty")
    if method == "mult":
        combined = list(map(math.prod, zip(*columns)))
    elif method == "median":
        combined = []
        for row in zip(*columns):
            vals = sorted(row)
            mid = len(vals) // 2
            combined.append(
                vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2.0
            )
    else:
        bands = [_quantile_band(col) for col in columns]
        # An outside value counts as 0.0, which leaves the exactly rounded
        # fsum of the contributions unchanged.
        masked = [
            [v if q1 <= v <= q3 else 0.0 for v in col] for col, (q1, q3) in zip(columns, bands)
        ]
        combined = list(map(math.fsum, zip(*masked)))
        if method == "qavg":
            inside = [[q1 <= v <= q3 for v in col] for col, (q1, q3) in zip(columns, bands)]
            combined = [
                total / n if n else 0.0 for total, n in zip(combined, map(sum, zip(*inside)))
            ]
        positive = [v for v in combined if v > 0.0]
        if not positive:
            raise ValueError("quantile combination produced no contributions")
        floor = min(positive)
        combined = [v if v > 0.0 else floor for v in combined]
    total = math.fsum(combined)
    return [v / total for v in combined]


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
    return kld_lists(_aligned_values(p, vocab), _aligned_values(q, vocab))


def kld_lists(p: Sequence[float], q: Sequence[float]) -> float:
    """kld of two value lists aligned on one vocabulary.

    Each list is renormalized to sum to 1 first, as aligning a model on a
    comparison vocabulary does.  Rounding can take the sum of a near-equal
    pair just below 0; KL divergence is non-negative, so it is clamped.
    """
    pp = _renormalized(p)
    qq = _renormalized(q)
    for name, vals in (("p", pp), ("q", qq)):
        for v in vals:
            if v <= 0.0:
                raise ValueError(f"{name} assigns non-positive probability")
    return max(0.0, math.fsum([a * math.log(a / b) for a, b in zip(pp, qq)]))
