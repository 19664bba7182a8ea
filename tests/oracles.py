"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the definitions, favoring
brute force over cleverness, and shares no code with the package: the
window extractor rescans token streams quadratically, the metric
reference walks rankings document by document, the Good-Turing
reference redoes the Gale-Sampson procedure with numpy's polyfit, and the
LM references align a model, band, mask and combine columns, and sum the
KL divergence one word at a time.  Nothing here imports termdep.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


# ---------------------------------------------------------------- windows

def brute_force_windows(
    docs: Sequence[Tuple[str, Sequence[str]]], target: Sequence[str], n: int
) -> List[Tuple[str, int, Dict[str, int], int]]:
    """All context windows of `target` by direct scanning, in corpus order.

    Returns (doc_id, position, counts, size) per occurrence.
    """
    target = list(target)
    out = []
    for doc_id, tokens in docs:
        tokens = list(tokens)
        for p in range(len(tokens) - len(target) + 1):
            if tokens[p : p + len(target)] == target:
                lo = max(0, p - n)
                hi = min(len(tokens), p + len(target) + n)
                counts: Dict[str, int] = {}
                for t in tokens[lo:hi]:
                    counts[t] = counts.get(t, 0) + 1
                out.append((doc_id, p, counts, hi - lo))
    return out


def brute_force_window_stats(
    windows: Sequence[Tuple[str, int, Dict[str, int], int]]
) -> Dict[str, object]:
    sizes = [size for _, _, _, size in windows]
    containing: Dict[str, int] = {}
    for _, _, counts, _ in windows:
        for t in counts:
            containing[t] = containing.get(t, 0) + 1
    return {
        "n_windows": len(windows),
        "av_m": sum(sizes) / len(windows) if windows else 0.0,
        "max_f": [max(counts.values()) for _, _, counts, _ in windows],
        "windows_containing": containing,
    }


def brute_force_phrase_counts(
    docs: Sequence[Tuple[str, Sequence[str]]], terms: Sequence[str]
) -> Dict[str, int]:
    terms = list(terms)
    counts: Dict[str, int] = {}
    for doc_id, tokens in docs:
        tokens = list(tokens)
        n = sum(
            1
            for p in range(len(tokens) - len(terms) + 1)
            if tokens[p : p + len(terms)] == terms
        )
        if n:
            counts[doc_id] = n
    return counts


# ---------------------------------------------------------------- weights

def ref_weight(
    scheme: str,
    f_it: int,
    n_t: int,
    n_windows: int,
    m_i: int,
    av_m: float,
    max_f: int,
    cf_t: Optional[int] = None,
    total_mass: Optional[int] = None,
) -> float:
    """Straight transliteration of the five weighting formulas."""
    if scheme == "atc":
        return (0.5 + 0.5 * (f_it / max_f)) * math.log(n_windows / n_t)
    if scheme == "ltu":
        num = (math.log(f_it) + 1.0) * math.log(n_windows / n_t)
        return num / (0.8 + 0.2 * (m_i / av_m))
    if scheme == "mi":
        p_joint = f_it / total_mass
        p_term = cf_t / total_mass
        p_window = m_i / total_mass
        return math.log(p_joint / (p_term * p_window))
    if scheme == "okapi":
        tf_part = f_it / (0.5 + 1.5 * (m_i / av_m) + f_it)
        return tf_part * math.log((n_windows - n_t + 0.5) / (f_it + 0.5))
    if scheme == "tfidf":
        return math.log(f_it) * math.log(n_windows / n_t)
    raise ValueError(scheme)


def ref_cosine_distance(u: Dict[str, float], v: Dict[str, float]) -> float:
    keys = sorted(set(u) | set(v))
    a = np.array([u.get(k, 0.0) for k in keys])
    b = np.array([v.get(k, 0.0) for k in keys])
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 1.0
    return 1.0 - float(np.dot(a, b) / (na * nb))


# ---------------------------------------------------------------- smoothing

def ref_simple_good_turing(counts: Dict[str, int]) -> Tuple[Dict[str, float], float]:
    """Reference Gale-Sampson estimates: (seen probabilities, unseen mass).

    Z-transform of the ff table, log-log fit by np.polyfit, Turing
    estimates until the 1.96-sigma rule (or a missing next rank) switches
    to the fitted ones, then a common renormalization of raw seen values
    and the raw ff_1/C unseen mass so the whole model sums to 1.
    """
    c_total = sum(counts.values())
    ff: Dict[int, int] = {}
    for c in counts.values():
        ff[c] = ff.get(c, 0) + 1
    if ff.get(1, 0) == 0:
        raise ValueError("reference SGT needs hapaxes")
    ranks = sorted(ff)
    z = {}
    for i, r in enumerate(ranks):
        lo = ranks[i - 1] if i > 0 else 0
        hi = ranks[i + 1] if i + 1 < len(ranks) else 2 * r - lo
        z[r] = ff[r] / (0.5 * (hi - lo))
    if len(ranks) == 1:
        a, b = math.log(z[ranks[0]]), 0.0
    else:
        b, a = np.polyfit(
            np.log(np.array(ranks, dtype=float)),
            np.log(np.array([z[r] for r in ranks])),
            1,
        )
    smooth = lambda r: math.exp(a + b * math.log(r))
    adjusted: Dict[int, float] = {}
    use_fit = False
    for r in ranks:
        fitted = (r + 1) * smooth(r + 1) / smooth(r)
        if not use_fit:
            nr, nr1 = ff[r], ff.get(r + 1, 0)
            if nr1 == 0:
                use_fit = True
            else:
                turing = (r + 1) * nr1 / nr
                width = 1.96 * math.sqrt(
                    (r + 1) ** 2 * (nr1 / nr**2) * (1 + nr1 / nr)
                )
                if abs(turing - fitted) <= width:
                    use_fit = True
                else:
                    adjusted[r] = turing
                    continue
        adjusted[r] = fitted
    raw_seen = {w: adjusted[c] / c_total for w, c in counts.items()}
    raw_unseen = ff[1] / c_total
    total = raw_unseen + sum(raw_seen.values())
    return {w: v / total for w, v in raw_seen.items()}, raw_unseen / total


def _ref_normalized(values: Sequence[float]) -> List[float]:
    total = math.fsum(values)
    if total <= 0.0:
        raise ValueError("aligned model has no probability mass")
    return [v / total for v in values]


def ref_aligned_values(model, vocab: Sequence[str]) -> List[float]:
    """Each word of `vocab` under a smoothed model, before renormalization.

    A word the model has seen keeps model.prob[w]; its seen words outside
    vocab are ignored.  The n words it has not seen split a Good-Turing
    model's unseen_mass evenly, and take unseen_prob each under a Laplace
    model (as sgt_lm's no-hapax fallback is).
    """
    n_unseen = len([w for w in vocab if w not in model.prob])
    if model.method == "sgt" and n_unseen:
        fill = model.unseen_mass / n_unseen
    else:
        fill = model.unseen_prob
    return [model.prob[w] if w in model.prob else fill for w in vocab]


def ref_aligned_probs(model, vocab: Sequence[str]) -> List[float]:
    """ref_aligned_values renormalized with fsum: a distribution over exactly vocab."""
    return _ref_normalized(ref_aligned_values(model, vocab))


def ref_kld(p: Sequence[float], q: Sequence[float]) -> float:
    """sum_w P(w) log(P(w)/Q(w)) of two aligned lists, exactly rounded.

    Each list is fsum-renormalized first and must then be positive
    everywhere; the fsum of the terms is clamped at 0, since rounding can
    take a near-equal pair's sum just below it.  Raises ValueError with
    the package's messages.
    """
    pp, qq = _ref_normalized(p), _ref_normalized(q)
    for name, vals in (("p", pp), ("q", qq)):
        if min(vals) <= 0.0:
            raise ValueError(f"{name} assigns non-positive probability")
    return max(0.0, math.fsum(a * math.log(a / b) for a, b in zip(pp, qq, strict=True)))


def ref_quartile_band(column: Sequence[float]) -> Tuple[float, float]:
    """Inclusive [Q1, Q3], linearly interpolated between order statistics."""
    s = sorted(column)
    ends = []
    for q in (0.25, 0.75):
        pos = q * (len(s) - 1)
        lo, hi = math.floor(pos), math.ceil(pos)
        ends.append(s[lo] if lo == hi else s[lo] * (1.0 - (pos - lo)) + s[hi] * (pos - lo))
    return ends[0], ends[1]


def ref_combine_columns(columns: Sequence[Sequence[float]], method: str) -> List[float]:
    """Per-term columns merged one method at a time, each from its definition.

    qsum / qavg: a band per column; a word's contributions are the values
    inside their own column's band, fsum-ed (and divided by their count
    for qavg); a word with none takes the smallest positive combined
    value.  mult multiplies, median takes the middle of the sorted row.
    Every result is fsum-renormalized.  Raises ValueError with the
    package's messages where the combination is undefined.
    """
    if method not in ("qsum", "qavg", "mult", "median"):
        raise ValueError(f"unknown combination method {method!r}")
    if not columns:
        raise ValueError("combination requires at least one column")
    if not all(columns):
        raise ValueError("combination vocabulary is empty")
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns differ in length: {sorted({len(c) for c in columns})}")
    bands = [ref_quartile_band(c) for c in columns]
    combined = []
    for i in range(len(columns[0])):
        row = [c[i] for c in columns]
        if method == "mult":
            combined.append(math.prod(row))
        elif method == "median":
            row.sort()
            mid = len(row) // 2
            combined.append(row[mid] if len(row) % 2 else (row[mid - 1] + row[mid]) / 2.0)
        else:
            inside = [v for v, (q1, q3) in zip(row, bands) if q1 <= v <= q3]
            total = math.fsum(inside)
            combined.append(total / len(inside) if method == "qavg" and inside else total)
    if method in ("qsum", "qavg"):
        positive = [v for v in combined if v > 0.0]
        if not positive:
            raise ValueError("quantile combination produced no contributions")
        floor = min(positive)
        combined = [v if v > 0.0 else floor for v in combined]
    total = math.fsum(combined)
    return [v / total for v in combined]


# ---------------------------------------------------------------- retrieval

def ref_dirichlet_score(
    query_terms: Sequence[str],
    doc_tokens: Sequence[str],
    collection: Sequence[Sequence[str]],
    mu: float,
) -> float:
    """Unigram Dirichlet score computed from raw token streams."""
    total = sum(len(toks) for toks in collection)
    score = 0.0
    for t in query_terms:
        cf = sum(toks.count(t) for toks in collection)
        p_c = cf / total if cf else 1.0 / (2.0 * total)
        c_td = list(doc_tokens).count(t)
        score += math.log((c_td + mu * p_c) / (len(doc_tokens) + mu))
    return score


# ---------------------------------------------------------------- metrics

def ref_metrics(
    ranking: Sequence[str], grades: Dict[str, int]
) -> Tuple[float, float, float]:
    """(AP, NDCG@10, P@10) for one query, walked straight from definitions."""
    relevant = {d for d, g in grades.items() if g > 0}
    hits = 0
    ap = 0.0
    for i, doc in enumerate(ranking, start=1):
        if doc in relevant:
            hits += 1
            ap += hits / i
    ap = ap / len(relevant) if relevant else 0.0
    p10 = len([d for d in ranking[:10] if d in relevant]) / 10.0
    dcg = 0.0
    for i, doc in enumerate(ranking[:10], start=1):
        g = grades.get(doc, 0)
        if g > 0:
            dcg += (2**g - 1) / math.log2(i + 1)
    ideal = sorted(
        ((d, g) for d, g in grades.items() if g > 0), key=lambda kv: (-kv[1], kv[0])
    )[:10]
    idcg = sum((2**g - 1) / math.log2(i + 1) for i, (_, g) in enumerate(ideal, start=1))
    ndcg = dcg / idcg if idcg > 0 else 0.0
    return ap, ndcg, p10
