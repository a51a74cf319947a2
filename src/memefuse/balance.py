"""Minority oversampling by segment interpolation between nearest neighbors.

Synthetic rows are drawn on the segment between a class member and one
of its k nearest same-class neighbors: s = x + lambda (x_nn - x) with
lambda uniform in [0, 1].  They are written into rows the caller
provides, INTERP_BLOCK at a time, so the scratch does not grow with the
deficit.
"""

from __future__ import annotations

import numpy as np

from .model import NumericError
from .seeds import rng_for


def knn_indices(points: np.ndarray, query_index: int, k: int) -> np.ndarray:
    """Indices of the k nearest points to points[query_index], self excluded.

    Euclidean distance; ties broken by lower index.
    """
    points = np.asarray(points)
    m = points.shape[0]
    if k >= m:
        raise ValueError(f"k={k} needs at least {k + 1} points, have {m}")
    d2 = np.sum((points - points[query_index]) ** 2, axis=1)
    d2[query_index] = np.inf
    order = np.argsort(d2, kind="stable")
    return order[:k]


# Distinct query rows per Gram block: every (block, distinct rows)
# temporary of the shortlist is bounded by this many rows.
GRAM_BLOCK = 512
# Elements per chunk of the exact rerank's differences (4 MB of float64).
RERANK_ELEMENTS = 1 << 19
# Synthetic rows interpolated together: the float64 scratch of a class is
# bounded by this many rows, whatever its deficit.
INTERP_BLOCK = 256
_UNIT_ROUNDOFF = 2.0 ** -53
_NORM_GUARD = np.finfo(np.float64).max / 16


def _group_rows(points: np.ndarray):
    """Group identical rows by their bytes.

    Returns (members, starts, counts): ``members[starts[g]:starts[g] +
    counts[g]]`` are the rows of group g in ascending order, and groups
    are numbered in order of first appearance.
    """
    first: dict = {}
    group = np.fromiter((first.setdefault(row.tobytes(), len(first)) for row in points),
                        dtype=np.intp, count=len(points))
    counts = np.bincount(group)
    return np.argsort(group, kind="stable"), np.cumsum(counts) - counts, counts


def _expand(members, starts, counts):
    """Concatenate the member lists (starts[j], counts[j]); also each entry's j."""
    owner = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return members[starts[owner] + offset], owner


def _norm_bounds(distinct: np.ndarray):
    """Squared norms shifted down and up by a rounding slack, and rows with no bound.

    For rows a, b with computed squared norms na ~ A = |a|^2, nb ~ B = |b|^2
    and BLAS dot product p ~ P = a.b, the shortlist evaluates
    fl(fl(xa - 2p) + xb), with x = fl(n - s) for the lower bound and
    fl(n + s) for the upper, s = rel n + tiny.  Both bound E, the metric
    as knn_indices computes it, fl(sum_j fl(fl(a_j - b_j)^2)).

    With unit roundoff u and gamma_n = n u / (1 - n u) (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 3), each bound below holds
    for any summation order, so also for BLAS and numpy's pairwise sums.
    Let D = A + B - 2P = sum_j (a_j - b_j)^2 exactly.

    - |na - A| <= gamma_d A, |nb - B| <= gamma_d B and |p - P| <=
      gamma_d sum_j |a_j b_j| <= gamma_d (A + B) / 2, so
      |na + nb - 2p - D| <= 2 gamma_d (A + B).
    - E rounds each of its d nonnegative terms three times and sums them,
      so |E - D| <= gamma_{d+2} D <= 2 gamma_{d+2} (A + B).
    - Forming x and the two additions err by at most u (2|xa| + 4|p| +
      |xb|) + u (na + nb) <= 5u (na + nb), to first order.
    - A + B <= (na + nb) / (1 - gamma_d).

    So sa + sb >= gamma_{4d+9} (na + nb) suffices to first order.  rel =
    2 gamma_{5d+8} covers that with room for the second-order terms and
    the rounding of s itself while (5d + 8) u << 1.  Underflow breaks the
    relative bounds only in the 4d products (d in each norm, d in p, d in
    E), each off by at most 2^-1075 (doubled in 2p); tiny covers them.
    Below _NORM_GUARD nothing overflows (|p| <= (na + nb) / 2 and
    D <= 2 (A + B)); rows whose norm is not below it get no bound.
    """
    d = distinct.shape[1]
    n = 5 * d + 8
    rel = 2.0 * n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("ij,ij->i", distinct, distinct)
        slack = rel * norms + 16.0 * (d + 1) * 2.0 ** -1074
        return norms - slack, norms + slack, ~(norms < _NORM_GUARD)


def _shortlist(distinct, bounds, counts, lo, hi, k):
    """(query, candidate) pairs of distinct rows for queries lo..hi-1.

    Keeps every distinct row whose lower bound on the exact distance is at
    most the (k+1)-th smallest upper bound, counting each distinct row
    once per copy and including the query's own group (distance exactly
    0).  At least k copies other than the query itself lie within that
    threshold, so no row beyond it can be among the k nearest.
    """
    low, high, unbounded = bounds
    with np.errstate(over="ignore", invalid="ignore"):
        lower = distinct[lo:hi] @ distinct.T
        lower *= -2.0
        upper = lower + high[lo:hi, None]
        upper += high
        lower += low[lo:hi, None]
        lower += low
    lower[:, unbounded] = lower[unbounded[lo:hi]] = -np.inf
    upper[:, unbounded] = upper[unbounded[lo:hi]] = np.inf
    own = (np.arange(hi - lo), np.arange(lo, hi))
    lower[own] = upper[own] = 0.0
    # (k+1)-th smallest upper bound with multiplicity: it lies among the k+1
    # smallest distinct rows, since each stands for at least one copy
    kk = min(k, upper.shape[1] - 1)
    near = np.argpartition(upper, kk, axis=1)[:, :kk + 1]
    near_upper = np.take_along_axis(upper, near, axis=1)
    order = np.argsort(near_upper, axis=1)
    covered = np.cumsum(counts[np.take_along_axis(near, order, axis=1)], axis=1)
    reach = np.argmax(covered > k, axis=1)
    threshold = np.take_along_axis(near_upper, order, axis=1)[own[0], reach]
    return np.nonzero(lower <= threshold[:, None])


def _exact_d2(points, queries, candidates):
    """knn_indices' squared distance for each (query, candidate) pair.

    The pairs' rows are gathered into two float64 buffers of at most
    RERANK_ELEMENTS, reused from chunk to chunk.
    """
    out = np.empty(len(queries))
    step = max(1, RERANK_ELEMENTS // points.shape[1])
    diff = np.empty((min(step, len(queries)), points.shape[1]))
    rows = np.empty_like(diff)
    for lo in range(0, len(queries), step):
        part = slice(lo, lo + step)
        n = len(queries[part])
        # mode="clip" (the indices are in range) lets take write to out unbuffered
        np.take(points, candidates[part], axis=0, out=diff[:n], mode="clip")
        np.take(points, queries[part], axis=0, out=rows[:n], mode="clip")
        np.subtract(diff[:n], rows[:n], out=diff[:n])
        np.square(diff[:n], out=diff[:n])
        out[part] = np.sum(diff[:n], axis=1)
    return out


def _neighbor_table(points: np.ndarray, k: int):
    """(table, d2): row i of table is knn_indices(points, i, k) for every i,
    and d2[i, j] is knn_indices' squared distance from row i to table[i, j].

    Same metric (squared Euclidean, float64, the same expression) and tie
    rule (lower index first).  Identical rows are grouped by their bytes,
    since they share every distance; the distinct rows are shortlisted
    from Gram-form distances, one GEMM per GRAM_BLOCK queries, under a
    rounding bound that keeps every row the exact metric could rank in
    the first k; the shortlist is then ranked by the exact metric.  Rows
    must be finite.  knn_indices ranks row i itself at distance inf, so
    a row lists itself only when distances overflow, and d2 is inf there.
    """
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    if k >= m:
        raise ValueError(f"k={k} needs at least {k + 1} points, have {m}")
    members, starts, counts = _group_rows(points)
    distinct = points[members[starts]]
    bounds = _norm_bounds(distinct)
    table = np.empty((m, k), dtype=np.intp)
    table_d2 = np.empty((m, k))
    for lo in range(0, len(distinct), GRAM_BLOCK):
        hi = min(lo + GRAM_BLOCK, len(distinct))
        query, cand = _shortlist(distinct, bounds, counts, lo, hi, k)
        d2 = _exact_d2(distinct, lo + query, cand)
        # every copy of each candidate, ranked per query by (distance, index)
        idx, pair = _expand(members, starts[cand], counts[cand])
        owner = query[pair]
        order = np.lexsort((idx, d2[pair], owner))
        first = np.searchsorted(owner[order], np.arange(hi - lo))
        take = order[first[:, None] + np.arange(k + 1)]
        top, top_d2 = idx[take], d2[pair[take]]
        # each copy i of a query: knn_indices ranks i itself as (inf, i),
        # so its own entry moves there; m pads rows that did not hold i
        row, q = _expand(members, starts[lo:hi], counts[lo:hi])
        ranked, ranked_d2 = top[q], top_d2[q]
        is_self = ranked == row[:, None]
        ranked_d2[is_self] = np.inf
        ranked = np.column_stack([ranked, np.where(is_self.any(axis=1), m, row)])
        ranked_d2 = np.column_stack([ranked_d2, np.full(len(row), np.inf)])
        order = np.lexsort((ranked, ranked_d2), axis=1)
        table[row] = np.take_along_axis(ranked, order, axis=1)[:, :k]
        table_d2[row] = np.take_along_axis(ranked_d2, order, axis=1)[:, :k]
    return table, table_d2


def _interpolate(members: np.ndarray, pick: np.ndarray, near: np.ndarray,
                 lam: np.ndarray, grown: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x + lam (x_nn - x) in that order, so each row's bytes are those of the
    same expression on one row; ``grown`` and ``x`` are float64 scratch of
    len(pick) rows, and ``grown`` is returned."""
    # mode="clip" (the indices are in range) lets take write to out unbuffered
    np.take(members, near, axis=0, out=grown, mode="clip")
    np.take(members, pick, axis=0, out=x, mode="clip")
    grown -= x
    grown *= lam[:, None]
    grown += x
    return grown


def smote_oversample(features: np.ndarray, labels: np.ndarray, deficits: dict, k: int,
                     seed: int, dest: np.ndarray) -> np.ndarray:
    """Write deficits[cls] synthetic rows per class, classes in str order, into
    ``dest``; return their labels.

    Draw order per synthetic row: class member, then neighbor, then
    lambda, all from one stream seeded by seed.  Each class's members are
    interpolated in float64 with min(k, members - 1) neighbors,
    INTERP_BLOCK rows at a time in two scratch blocks allocated once per
    class, and each block is cast to dest's dtype as astype would.  A
    class whose neighbor table lists a distance that overflows, as the
    table's own distances show, raises NumericError naming its lowest
    such row.
    """
    total = sum(deficits.values())
    if dest.shape != (total, features.shape[1]):
        raise ValueError(f"destination of shape {dest.shape} for {total} synthetic rows "
                         f"of width {features.shape[1]}")
    row_labels = np.empty(total, dtype=labels.dtype)
    rng = rng_for(seed, "smote")
    start = 0
    for cls in sorted(deficits, key=str):
        deficit = deficits[cls]
        if deficit == 0:
            continue
        member_idx = np.flatnonzero(labels == cls)
        if len(member_idx) < 2:
            raise ValueError(f"class {cls!r} has {len(member_idx)} member(s); need 2 to interpolate")
        kk = min(k, len(member_idx) - 1)
        members = features[member_idx].astype(np.float64, copy=False)
        finite = np.isfinite(members).all(axis=1)
        if not finite.all():
            raise NumericError(f"class {cls!r}: non-finite feature in row "
                               f"{int(member_idx[np.argmin(finite)])}")
        with np.errstate(over="ignore"):  # overflow is reported just below
            neighbors, d2 = _neighbor_table(members, kk)
        overflows = np.isinf(d2).any(axis=1)
        if overflows.any():
            row = int(member_idx[np.argmax(overflows)])
            raise NumericError(f"class {cls!r}: squared distance from row {row} "
                               "to a listed neighbor overflows")
        pick = np.empty(deficit, dtype=np.intp)
        near = np.empty(deficit, dtype=np.intp)
        lam = np.empty(deficit)
        for r in range(deficit):
            pick[r] = rng.integers(len(member_idx))
            near[r] = neighbors[pick[r]][int(rng.integers(kk))]
            lam[r] = rng.uniform()
        grown = np.empty((min(INTERP_BLOCK, deficit), members.shape[1]))
        x = np.empty_like(grown)
        for lo in range(0, deficit, INTERP_BLOCK):
            hi = min(lo + INTERP_BLOCK, deficit)
            dest[start + lo:start + hi] = _interpolate(members, pick[lo:hi], near[lo:hi],
                                                       lam[lo:hi], grown[:hi - lo], x[:hi - lo])
        row_labels[start:start + deficit] = cls
        start += deficit
    return row_labels
