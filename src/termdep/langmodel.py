"""Smoothed unigram language models, model combination, and KL divergence.

Two smoothers: add-one (Laplace) and Simple Good-Turing via the
Gale-Sampson procedure, which reads the frequencies of frequencies of one
count table (a Counter over its values).  A phrase's model is the
combination of its per-term models under one of four rules; query and
perturbation models share the union vocabulary of both phrases' context
windows, so every divergence is computed over a common, strictly positive
event space.

A comparison (one query phrase against one perturbation) is phrase_kld,
which reads that vocabulary off its terms' count tables: it is the union
of the words they have seen, so every table lies inside it.  A word's
value in a term's column depends only on the word's count in that term's
windows and on the size of the vocabulary, so words with the same tuple
of counts over the comparison's terms (one count pattern) get the same
value at every later step too: renormalization, the quartile band and
mask, the combination and the KLD term.  phrase_kld therefore counts
each pattern's words once, in C, builds each term's column once per
distinct count, and combines and compares once per pattern; kld does the
same over two models' (p, q) value pairs.  Every normalizing total and
the KLD sum is a math.fsum over the per-word multiset (each value
repeated by its multiplicity, in C), and fsum is exactly rounded, so the
floats are those of the word-by-word reference in tests/oracles.py and
no value depends on the order in which a vocabulary iterates.  The
builtin sum is never used on floats here, since its rounding changed in
Python 3.12.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from operator import itemgetter, mul, truediv
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

SMOOTHINGS = ("laplace", "sgt")
COMBINATIONS = ("qsum", "qavg", "mult", "median")

# How many vocabulary words each value of a list stands for (the words
# sharing its count or its count pattern).
Weights = Sequence[int]


@dataclass
class SmoothedLM:
    """A probability distribution over a vocabulary plus an unseen reserve.

    prob covers the model's vocabulary and sums, together with
    unseen_mass, to 1.  unseen_prob is the probability handed to a single
    out-of-vocabulary word; for the Good-Turing model the reserve is split
    evenly over however many unseen words a comparison introduces (see
    _unseen_fill).  by_count maps each count of a seen word to its
    probability: laplace_lm and sgt_lm compute a word's probability from
    its count alone, and phrase_kld reads it per count.
    """

    method: str
    prob: Dict[str, float]
    unseen_mass: float
    unseen_prob: float
    diagnostics: List[str] = field(default_factory=list)
    by_count: Dict[int, float] = field(default_factory=dict)

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
    if not vocab:
        raise ValueError("laplace_lm requires a non-empty vocabulary")
    if not counts.keys() <= vocab:
        missing = counts.keys() - vocab
        raise ValueError(f"vocabulary must cover counts; missing {sorted(missing)[:3]}")
    denom = sum(counts.values()) + len(vocab)
    return SmoothedLM(
        method="laplace",
        prob={w: (counts.get(w, 0) + 1) / denom for w in sorted(vocab)},
        unseen_mass=0.0,
        unseen_prob=1.0 / denom,
        by_count={c: (c + 1) / denom for c in set(counts.values())},
    )


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
    raw = {r: r_star[r] / c_q for r in ff}
    raw_unseen = ff[1] / c_q
    total = raw_unseen + math.fsum(_expanded(list(raw.values()), list(ff.values())))
    by_count = {r: v / total for r, v in raw.items()}
    unseen_mass = raw_unseen / total
    return SmoothedLM(
        method="sgt",
        prob={w: by_count[c] for w, c in counts.items()},
        unseen_mass=unseen_mass,
        unseen_prob=unseen_mass,
        by_count=by_count,
    )


def _unseen_fill(model: SmoothedLM, n_unseen: int) -> float:
    """The value of each of a comparison's n_unseen words the model has not seen.

    The Good-Turing reserve is split evenly over them; a Laplace model
    (such as sgt_lm's fallback) gives each its unseen_prob.
    """
    if model.method == "sgt" and n_unseen:
        return model.unseen_mass / n_unseen
    return model.unseen_prob


def _expanded(values: Sequence[float], weights: Weights) -> Iterable[float]:
    """Each value repeated by its weight, in C: the per-word multiset fsum reads."""
    return chain.from_iterable(map(repeat, values, weights))


def _renormalized(values: Sequence[float], weights: Weights) -> List[float]:
    total = math.fsum(_expanded(values, weights))
    if total <= 0.0:
        raise ValueError("aligned model has no probability mass")
    return list(map(truediv, values, repeat(total)))


def _quantile_band(values: Sequence[float], weights: Weights) -> Tuple[float, float]:
    """Inclusive [Q1, Q3] of the per-word multiset, interpolated linearly between order stats.

    The order statistics are read from the sorted (value, weight) pairs:
    ends[i] is one past the last multiset position of the i-th pair.
    """
    pairs = sorted(zip(values, weights))
    ends = list(accumulate(map(itemgetter(1), pairs)))

    def at(q: float) -> float:
        pos = q * (ends[-1] - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        low = pairs[bisect_right(ends, lo)][0]
        if lo == hi:
            return low
        frac = pos - lo
        return low * (1.0 - frac) + pairs[bisect_right(ends, hi)][0] * frac

    return at(0.25), at(0.75)


def _check_method(method: str) -> None:
    if method not in COMBINATIONS:
        raise ValueError(f"unknown combination method {method!r}")


def _masked(column: List[float], weights: Weights, method: str) -> List[float]:
    """What _combined reads of one column under `method`.

    For qsum and qavg it is the column with every value outside the
    column's own inclusive [Q1, Q3] band set to 0.0 (outlier suppression).
    Q1 must be positive, so 0.0 marks exactly the words the column does
    not contribute.  For mult and median it is the column itself.
    """
    if not column:
        raise ValueError("combination vocabulary is empty")
    if method in ("mult", "median"):
        return column
    q1, q3 = _quantile_band(column, weights)
    if q1 <= 0.0:
        raise ValueError(f"quantile combination needs a positive band, got Q1 = {q1!r}")
    return [v if q1 <= v <= q3 else 0.0 for v in column]


def _combined(inputs: Sequence[List[float]], weights: Weights, method: str) -> List[float]:
    """Merge per-term _masked columns (one per term) into one distribution.

    qsum sums each word's contributions and qavg averages them; a word
    left with no contributor gets the smallest positive combined value.
    mult multiplies per-word values; median takes the per-word median.
    The result is renormalized to sum to 1.
    """
    if not inputs:
        raise ValueError("combination requires at least one column")
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
    total = math.fsum(_expanded(combined, weights))
    return list(map(truediv, combined, repeat(total)))


def _kld(p: Sequence[float], q: Sequence[float], weights: Weights) -> float:
    """KLD of two value lists aligned on one vocabulary, each renormalized first.

    Rounding can take the sum of a near-equal pair just below 0; KL
    divergence is non-negative, so it is clamped.
    """
    pp = _renormalized(p, weights)
    qq = _renormalized(q, weights)
    for name, vals in (("p", pp), ("q", qq)):
        if min(vals) <= 0.0:
            raise ValueError(f"{name} assigns non-positive probability")
    terms = list(map(mul, pp, map(math.log, map(truediv, pp, qq))))
    return max(0.0, math.fsum(_expanded(terms, weights)))


def _count_column(
    table: Dict[str, int], n_words: int, model: Optional[SmoothedLM], method: str
) -> Dict[int, float]:
    """What _combined reads of a term's column, keyed by the count behind each value.

    The comparison's vocabulary holds n_words words, table's among them.
    The column is laplace_lm(table, vocabulary) when model is None, else
    model (sgt_lm(table), read through its by_count), over the vocabulary
    (its unseen words take _unseen_fill), renormalized, then _masked.  Each
    step is done once per distinct count, over the multiset of the
    vocabulary's counts (0 for a word the term has not seen).
    """
    words = Counter(table.values())
    n_unseen = n_words - len(table)
    if n_unseen:
        words[0] += n_unseen
    if model is None:
        # An unseen word's 1/denom is the (0 + 1)/denom of count 0.
        denom = sum(table.values()) + n_words
        values = [(c + 1) / denom for c in words]
    else:
        by_count = model.by_count
        fill = _unseen_fill(model, n_unseen)
        values = [by_count[c] if c else fill for c in words]
    weights = list(words.values())
    column = _renormalized(values, weights)
    return dict(zip(words, _masked(column, weights, method)))


def phrase_kld(
    tables: Mapping[str, Dict[str, int]],
    query_terms: Sequence[str],
    perturbed_terms: Sequence[str],
    combination: str,
    models: Optional[Mapping[str, SmoothedLM]] = None,
) -> float:
    """KLD of a query phrase's combined model from a perturbation's.

    tables maps each distinct term of both phrases to its count table, and
    the comparison's vocabulary is the union of the tables' words.  A
    term's column is laplace_lm(tables[t], vocabulary) when models is
    None, else models[t], which must be sgt_lm(tables[t]); either way
    aligned on the vocabulary (see _count_column).  Each phrase's columns,
    in phrase order and with any repeats, are masked and merged (see
    _masked and _combined), and the two results are compared by _kld.
    The floats and the error messages are those of the word-by-word
    reference in tests/oracles.py, but each step is done once per
    distinct count of a term (its column) or once per count pattern
    (combination and KLD).
    """
    _check_method(combination)
    terms = list(tables)
    # One pass over a set walks its whole hash table: walk it once.
    words = list(set().union(*tables.values()))
    patterns = Counter(zip(*[map(tables[t].get, words, repeat(0)) for t in terms]))
    weights = list(patterns.values())
    # Each term's count in every pattern; () for all of them over an empty vocabulary.
    term_counts = list(zip(*patterns)) or [()] * len(terms)
    inputs: Dict[str, List[float]] = {}
    for t, counts in zip(terms, term_counts):
        model = None if models is None else models[t]
        value = _count_column(tables[t], len(words), model, combination)
        inputs[t] = list(map(value.__getitem__, counts))
    lm_q = _combined([inputs[t] for t in query_terms], weights, combination)
    lm_p = _combined([inputs[t] for t in perturbed_terms], weights, combination)
    return _kld(lm_q, lm_p, weights)


def kld(p: SmoothedLM, q: SmoothedLM, vocabulary: Optional[Iterable[str]] = None) -> float:
    """Kullback-Leibler divergence sum_w P(w) log(P(w)/Q(w)), natural log.

    Both models are aligned on the given vocabulary (default: union of
    their vocabularies) so every event has positive probability on both
    sides: seen words outside it are ignored, the words a model has not
    seen take _unseen_fill, and each side is renormalized.  Each distinct
    (p value, q value) pair is computed once, weighted by its words.
    """
    vocab = p.vocabulary | q.vocabulary if vocabulary is None else set(vocabulary)
    columns = [
        map(m.prob.get, vocab, repeat(_unseen_fill(m, len(vocab - m.prob.keys()))))
        for m in (p, q)
    ]
    pairs = Counter(zip(*columns))
    p_values, q_values = list(zip(*pairs)) or [(), ()]
    return _kld(p_values, q_values, list(pairs.values()))
