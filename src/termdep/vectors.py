"""Window-based term weighting, term vectors, and cosine distance.

Five weighting schemes score a context term inside one window: atc, ltu,
mi, okapi, tfidf.  All logarithms are natural.  weight() evaluates the
raw per-window formula from explicit statistics; it is the one-window
case of the kernel build_term_vector runs once per context term over the
windows containing it, reading the term's window ids and in-window
frequencies off the window set's stats.  For atc the cosine
normalization over those windows is applied when the term vector is
built, so the per-window atc weights of any term with a nonzero norm
satisfy sum(w^2) == 1.  A term vector's component for a context term is
the mean of its weights over the windows containing it.  A TermVector
holds only its nonzero components, in the order the context terms first
appear; an absent component means 0.  Under tfidf a window holding a
term once weighs log(1) * idf = 0, so only a term's in-window repeats
add weight, and most context terms have no component at all.  TermVector
is the one vector type: a query or perturbation is the pointwise product
of its terms' vectors, labelled with the terms joined by spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .windows import WindowSet

SCHEMES = ("atc", "ltu", "mi", "okapi", "tfidf")


@dataclass(frozen=True)
class TermVector:
    """A term's (or a phrase's) nonzero components, keyed by context term.

    A context term with no key has the component 0.
    """

    term: str
    weights: Dict[str, float]


def weight(
    scheme: str,
    f_it: int,
    n_t: int,
    n_windows: int,
    m_i: int,
    av_m: float,
    max_f: int = 1,
    cf_t: Optional[int] = None,
    total_mass: Optional[int] = None,
) -> float:
    """Raw weight of a term with frequency f_it inside one window.

    n_t is the number of windows containing the term, n_windows the window
    count N, m_i the window size, av_m the mean size, max_f the peak
    frequency inside this window.  mi additionally needs cf_t (the term's
    total count across windows) and total_mass (the grand token total).
    Statistics no window set can produce (n_t > n_windows, m_i < f_it,
    and for the schemes that read them max_f < f_it, cf_t < f_it or
    total_mass < m_i) raise ValueError.  Negative okapi values are
    legitimate and kept.
    """
    if f_it < 1:
        raise ValueError(f"f_it must be >= 1, got {f_it}")
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    if n_t < 1:
        raise ValueError(f"n_t must be >= 1, got {n_t}")
    if av_m <= 0:
        raise ValueError(f"av_m must be > 0, got {av_m}")
    if n_t > n_windows:
        raise ValueError(f"n_t must be <= n_windows ({n_windows}), got {n_t}")
    if m_i < f_it:
        raise ValueError(f"m_i must be >= f_it ({f_it}), got {m_i}")
    if scheme == "atc" and max_f < f_it:
        raise ValueError(f"max_f must be >= f_it ({f_it}), got {max_f}")
    if scheme == "mi":
        if cf_t is None or total_mass is None:
            raise ValueError("mi weighting requires cf_t and total_mass")
        if cf_t < f_it:
            raise ValueError(f"cf_t must be >= f_it ({f_it}), got {cf_t}")
        if total_mass < m_i:
            raise ValueError(f"total_mass must be >= m_i ({m_i}), got {total_mass}")
    # One window, holding the term f_it times.
    return _term_weights(
        scheme, n_windows, av_m, total_mass, n_t, cf_t, (0,), (f_it,), (m_i,), (max_f,)
    )[0]


def _term_weights(
    scheme: str,
    n_windows: int,
    av_m: float,
    total_mass: Optional[int],
    n_t: int,
    cf_t: Optional[int],
    ids: Sequence[int],
    freqs: Sequence[int],
    sizes: Sequence[int],
    max_f: Sequence[int],
) -> List[float]:
    """Raw weights of one term in each window ids[k], in order.

    Window ids[k] holds the term freqs[k] times; window i's size is
    sizes[i] and its peak frequency max_f[i].  The five formulas live
    here: the term's own factors (idf, cf_t) are taken once, and only the
    per-window part runs per window.  The caller has checked the
    arguments (weight()) or read them off a window set's stats, where
    they hold by construction (build_term_vector()).
    """
    if scheme == "atc":
        idf = math.log(n_windows / n_t)
        return [(0.5 + 0.5 * f / max_f[i]) * idf for i, f in zip(ids, freqs)]
    if scheme == "ltu":
        idf = math.log(n_windows / n_t)
        return [
            (math.log(f) + 1.0) * idf / (0.8 + 0.2 * sizes[i] / av_m) for i, f in zip(ids, freqs)
        ]
    if scheme == "mi":
        return [math.log(f * total_mass / (cf_t * sizes[i])) for i, f in zip(ids, freqs)]
    if scheme == "okapi":
        absent = n_windows - n_t + 0.5
        return [
            (f / (0.5 + 1.5 * sizes[i] / av_m + f)) * math.log(absent / (f + 0.5))
            for i, f in zip(ids, freqs)
        ]
    if scheme == "tfidf":
        idf = math.log(n_windows / n_t)
        return [math.log(f) * idf for f in freqs]
    raise ValueError(f"unknown weighting scheme {scheme!r}")


def build_term_vector(ws: WindowSet, scheme: str) -> TermVector:
    """Vector representation of ws.target under `scheme`.

    The component for context term t' is the mean of its per-window
    weights over the windows where t' actually occurs, and is kept only
    when it is nonzero: an absent component means 0, which is how
    compose_query_vector and cosine_distance read it, so dropping a zero
    changes no product and no distance.  Only the window set's stats are
    read, and each term's weights are one kernel call over its window
    ids; its count across windows (cf_t, for mi) is the sum of its
    in-window frequencies.  Under tfidf the kernel runs on the term's
    in-window repeats alone: a window holding the term once weighs
    log(1) * idf = +0.0, which leaves the exactly rounded fsum unchanged,
    and the sum is still divided by n_t, every window holding the term.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown weighting scheme {scheme!r}")
    n_windows = ws.n_windows
    if not n_windows:
        raise ValueError(f"target {' '.join(ws.target)!r} has no context windows")
    stats = ws.stats
    av_m, total_mass, sizes, max_f = stats.av_m, stats.total_mass, stats.sizes, stats.max_f
    repeats = stats.repeats
    vec: Dict[str, float] = {}
    for term, ids in stats.ids.items():
        n_t = len(ids)
        if scheme == "tfidf":
            rep = repeats.get(term)
            if rep is None:
                continue
            raw = _term_weights(
                scheme, n_windows, av_m, total_mass, n_t, None,
                [ids[k] for k in rep], list(rep.values()), sizes, max_f,
            )
        else:
            fs = stats.freqs(term)
            raw = _term_weights(
                scheme, n_windows, av_m, total_mass, n_t, sum(fs), ids, fs, sizes, max_f
            )
            if scheme == "atc":
                norm = math.sqrt(math.fsum(v * v for v in raw))
                raw = [v / norm for v in raw] if norm > 0.0 else []
        value = math.fsum(raw) / n_t
        if value:
            vec[term] = value
    return TermVector(term=" ".join(ws.target), weights=vec)


def compose_query_vector(vectors: Sequence[TermVector]) -> TermVector:
    """Pointwise product of term vectors over their shared context terms.

    The product is itself a TermVector, labelled with the constituent
    terms joined by spaces.  Context terms absent from any constituent
    vector drop out (product with an implicit zero), so the result lives
    on the intersection support.  Commutative and associative up to float
    rounding.
    """
    if not vectors:
        raise ValueError("compose_query_vector requires at least one term vector")
    keys = set(vectors[0].weights)
    for tv in vectors[1:]:
        keys &= set(tv.weights)
    weights = {k: math.prod(tv.weights[k] for tv in vectors) for k in keys}
    return TermVector(term=" ".join(tv.term for tv in vectors), weights=weights)


def cosine_distance(u: TermVector, v: TermVector) -> Tuple[float, bool]:
    """1 - cosine similarity over the union support; range [0, 2].

    Rounding can carry the cosine just past +-1, so the distance is
    clamped to the range.  Returns (distance, degenerate): when either
    vector has zero norm the similarity is undefined, so the distance
    falls back to 1.0 and the degenerate flag is set for the caller's
    diagnostics.
    """
    norm_u = math.sqrt(math.fsum(x * x for x in u.weights.values()))
    norm_v = math.sqrt(math.fsum(x * x for x in v.weights.values()))
    if norm_u == 0.0 or norm_v == 0.0:
        return 1.0, True
    a, b = u.weights, v.weights
    if len(b) < len(a):
        a, b = b, a
    dot = math.fsum(x * b[k] for k, x in a.items() if k in b)
    return min(2.0, max(0.0, 1.0 - dot / (norm_u * norm_v))), False
