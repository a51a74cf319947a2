"""Minority oversampling by segment interpolation between nearest neighbors.

Synthetic rows are drawn on the segment between a class member and one
of its k nearest same-class neighbors: s = x + lambda (x_nn - x) with
lambda uniform in [0, 1].  A class is read from the caller's features
by row index, and float64 exists only in blocks cast from the rows they
read, so no float64 buffer grows with the class or its deficit; the
synthetic rows are written into rows the caller provides, INTERP_BLOCK
at a time.
"""

from __future__ import annotations

import numpy as np

from . import NumericError
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


# Distinct rows per Gram tile, queries and candidates alike: each tile's
# float64 operands are this many rows (1.5 MB each at width 1536).
GRAM_BLOCK = 128
# Elements per chunk of the exact rerank's pair blocks (512 KB of float64).
RERANK_ELEMENTS = 1 << 16
# Synthetic rows interpolated together: the float64 scratch of a class is
# bounded by this many rows, whatever its size or deficit.
INTERP_BLOCK = 64
_UNIT_ROUNDOFF = 2.0 ** -53
_NORM_GUARD = np.finfo(np.float64).max / 16


def _gather(points: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """points[rows] cast to out's dtype (exactly, for float32 into float64),
    written into out's first len(rows) rows; that slice is returned."""
    block = out[:len(rows)]
    block[...] = points[rows]
    return block


def _group_rows(points: np.ndarray, rows: np.ndarray):
    """Group identical rows points[rows[i]] by their bytes.

    Returns (members, starts, counts): ``members[starts[g]:starts[g] +
    counts[g]]`` are the positions i in ``rows`` of group g in ascending
    order, and groups are numbered in order of first appearance.  A cast
    from float32 to float64 is exact and injective, so float32 rows group
    as their float64 casts would.
    """
    first: dict = {}
    group = np.fromiter((first.setdefault(points[i].tobytes(), len(first)) for i in rows),
                        dtype=np.intp, count=len(rows))
    counts = np.bincount(group)
    return np.argsort(group, kind="stable"), np.cumsum(counts) - counts, counts


def _expand(members, starts, counts):
    """Concatenate the member lists (starts[j], counts[j]); also each entry's j."""
    owner = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return members[starts[owner] + offset], owner


def _norm_bounds(points: np.ndarray, distinct: np.ndarray):
    """Squared norms of the rows points[distinct], shifted down and up by a
    rounding slack, and the rows with no bound.

    For rows a, b with computed squared norms na ~ A = |a|^2, nb ~ B = |b|^2
    and BLAS dot product p ~ P = a.b, the shortlist evaluates
    fl(fl(xa - 2p) + xb), with x = fl(n - s) for the lower bound and
    fl(n + s) for the upper, s = rel n + tiny.  Both bound E, the metric
    as knn_indices computes it, fl(sum_j fl(fl(a_j - b_j)^2)).

    With unit roundoff u and gamma_n = n u / (1 - n u) (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 3), each bound below holds
    for any summation order, so also for BLAS and numpy's pairwise sums,
    and for any tiling of the norms and the Gram product.
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
    The rows are cast to float64 GRAM_BLOCK at a time.
    """
    d = points.shape[1]
    n = 5 * d + 8
    rel = 2.0 * n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    norms = np.empty(len(distinct))
    block = np.empty((min(GRAM_BLOCK, len(distinct)), d))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(distinct), GRAM_BLOCK):
            rows = _gather(points, distinct[lo:lo + GRAM_BLOCK], block)
            norms[lo:lo + len(rows)] = np.einsum("ij,ij->i", rows, rows)
        slack = rel * norms + 16.0 * (d + 1) * 2.0 ** -1074
        return norms - slack, norms + slack, ~(norms < _NORM_GUARD)


def _shortlist(points, distinct, bounds, counts, k):
    """(query, candidate) pairs of distinct rows, ordered by query.

    Keeps every distinct row whose lower bound on the exact distance is at
    most the (k+1)-th smallest upper bound, counting each distinct row
    once per copy and including the query's own group (distance exactly
    0).  At least k copies other than the query itself lie within that
    threshold, so no row beyond it can be among the k nearest.

    The Gram matrix is formed in tiles of GRAM_BLOCK by GRAM_BLOCK
    distinct rows, each once: _norm_bounds' slack is symmetric in the two
    rows, so a tile's bounds hold with either block as the queries, and
    the tile serves both.  Each query carries its k+1 smallest upper
    bounds so far (each distinct row stands for at least one copy, so the
    threshold lies among them); a tile keeps the pairs within the
    threshold so far, which only falls, and the kept pairs are cut to the
    final threshold at the end.
    """
    low, high, unbounded = bounds
    n = len(distinct)
    best = np.full((n, k + 1), np.inf)
    best_counts = np.zeros(best.shape, dtype=counts.dtype)
    threshold = np.full(n, np.inf)
    kept = []

    def keep(queries, cands, lower, upper):
        """Fold a tile's upper bounds into best, then keep its pairs within
        the threshold."""
        pool = np.hstack([best[queries], upper])
        pool_counts = np.hstack([best_counts[queries],
                                 np.broadcast_to(counts[cands], upper.shape)])
        near = np.argpartition(pool, k, axis=1)[:, :k + 1]
        near = np.take_along_axis(near, np.argsort(np.take_along_axis(pool, near, axis=1),
                                                   axis=1), axis=1)
        best[queries] = np.take_along_axis(pool, near, axis=1)
        best_counts[queries] = np.take_along_axis(pool_counts, near, axis=1)
        covered = np.cumsum(best_counts[queries], axis=1) > k
        reach = np.argmax(covered, axis=1)
        threshold[queries] = np.where(covered[:, -1],
                                      best[queries][np.arange(len(reach)), reach], np.inf)
        q, c = np.nonzero(lower <= threshold[queries, None])
        kept.append((queries.start + q, cands.start + c, lower[q, c]))

    left = np.empty((min(GRAM_BLOCK, n), points.shape[1]))
    right = np.empty_like(left)
    for lo in range(0, n, GRAM_BLOCK):
        a = slice(lo, min(lo + GRAM_BLOCK, n))
        rows_a = _gather(points, distinct[a], left)
        for c_lo in range(lo, n, GRAM_BLOCK):
            b = slice(c_lo, min(c_lo + GRAM_BLOCK, n))
            rows_b = rows_a if b == a else _gather(points, distinct[b], right)
            with np.errstate(over="ignore", invalid="ignore"):
                lower = rows_a @ rows_b.T
                lower *= -2.0
                upper = lower + high[a, None]
                upper += high[b]
                lower += low[a, None]
                lower += low[b]
            lower[unbounded[a]] = lower[:, unbounded[b]] = -np.inf
            upper[unbounded[a]] = upper[:, unbounded[b]] = np.inf
            if b == a:
                np.fill_diagonal(lower, 0.0)
                np.fill_diagonal(upper, 0.0)
            keep(a, b, lower, upper)
            if b != a:
                keep(b, a, lower.T, upper.T)
    query, cand, bound = (np.concatenate(part) for part in zip(*kept))
    inside = bound <= threshold[query]
    order = np.argsort(query[inside], kind="stable")
    return query[inside][order], cand[inside][order]


def _exact_d2(points, distinct, queries, candidates):
    """knn_indices' squared distance for each (query, candidate) pair of
    rows points[distinct[...]].

    The pairs' rows are cast into two float64 buffers of at most
    RERANK_ELEMENTS, reused from chunk to chunk.
    """
    out = np.empty(len(queries))
    step = max(1, RERANK_ELEMENTS // points.shape[1])
    diff = np.empty((min(step, len(queries)), points.shape[1]))
    rows = np.empty_like(diff)
    for lo in range(0, len(queries), step):
        part = slice(lo, lo + step)
        block = _gather(points, distinct[candidates[part]], diff)
        block -= _gather(points, distinct[queries[part]], rows)
        np.square(block, out=block)
        out[part] = np.sum(block, axis=1)
    return out


def _neighbor_table(points: np.ndarray, k: int, rows: np.ndarray):
    """(table, d2) for the class of rows points[rows], numbered 0..m-1 in
    that order: row i of table is knn_indices(class, i, k) for every i, and
    d2[i, j] is knn_indices' squared distance from row i to table[i, j],
    with the class cast to float64.

    Same metric (squared Euclidean, float64, the same expression) and tie
    rule (lower index first).  The class is never copied: float64 exists
    only in blocks cast from rows gathered by index (float32 to float64
    is exact, so a float32 class gives the bytes of its float64 cast).
    Identical rows are grouped by their bytes, since they share every
    distance; the distinct rows are shortlisted from Gram-form distances,
    one GEMM per tile of GRAM_BLOCK queries by GRAM_BLOCK candidates,
    under a rounding bound that keeps every row the exact metric could
    rank in the first k; the shortlist is then ranked by the exact
    metric.  Rows must be finite.  knn_indices ranks row i itself at
    distance inf, so a row lists itself only when distances overflow, and
    d2 is inf there.
    """
    points = np.asarray(points)
    rows = np.asarray(rows)
    m = len(rows)
    if k >= m:
        raise ValueError(f"k={k} needs at least {k + 1} points, have {m}")
    members, starts, counts = _group_rows(points, rows)
    distinct = rows[members[starts]]
    bounds = _norm_bounds(points, distinct)
    table = np.empty((m, k), dtype=np.intp)
    table_d2 = np.empty((m, k))
    shortlist = _shortlist(points, distinct, bounds, counts, k)
    for lo in range(0, len(distinct), GRAM_BLOCK):
        hi = min(lo + GRAM_BLOCK, len(distinct))
        part = slice(*np.searchsorted(shortlist[0], [lo, hi]))
        query, cand = shortlist[0][part] - lo, shortlist[1][part]
        d2 = _exact_d2(points, distinct, lo + query, cand)
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


def _interpolate(points: np.ndarray, pick: np.ndarray, near: np.ndarray,
                 lam: np.ndarray, grown: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x + lam (x_nn - x) in that order, x = points[pick] and x_nn =
    points[near] cast to float64, so each row's bytes are those of the
    same expression on one row; ``grown`` and ``x`` are float64 scratch of
    at least len(pick) rows, and ``grown``'s first len(pick) rows are
    returned."""
    grown = _gather(points, near, grown)
    x = _gather(points, pick, x)
    grown -= x
    grown *= lam[:, None]
    grown += x
    return grown


def smote_oversample(features: np.ndarray, labels: np.ndarray, deficits: dict, k: int,
                     seed: int, dest: np.ndarray) -> np.ndarray:
    """Write deficits[cls] synthetic rows per class, classes in str order, into
    ``dest``; return their labels.

    Draw order per synthetic row: class member, then neighbor, then
    lambda, all from one stream seeded by seed.  A class is the indices
    of its rows in ``features``, never a copy of them: its neighbor table
    reads them by index (_neighbor_table), and its members are
    interpolated in float64 with min(k, members - 1) neighbors,
    INTERP_BLOCK rows at a time, each block cast from the rows it reads
    into two scratch blocks allocated once per class and then cast to
    dest's dtype as astype would.  A class whose neighbor table lists a
    distance that overflows, as the table's own distances show, raises
    NumericError naming its lowest such row.
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
        for lo in range(0, len(member_idx), INTERP_BLOCK):
            rows = member_idx[lo:lo + INTERP_BLOCK]
            finite = np.isfinite(features[rows]).all(axis=1)
            if not finite.all():
                raise NumericError(f"class {cls!r}: non-finite feature in row "
                                   f"{int(rows[np.argmin(finite)])}")
        with np.errstate(over="ignore"):  # overflow is reported just below
            neighbors, d2 = _neighbor_table(features, kk, member_idx)
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
        grown = np.empty((min(INTERP_BLOCK, deficit), features.shape[1]))
        x = np.empty_like(grown)
        for lo in range(0, deficit, INTERP_BLOCK):
            hi = min(lo + INTERP_BLOCK, deficit)
            dest[start + lo:start + hi] = _interpolate(
                features, member_idx[pick[lo:hi]], member_idx[near[lo:hi]], lam[lo:hi], grown, x)
        row_labels[start:start + deficit] = cls
        start += deficit
    return row_labels
