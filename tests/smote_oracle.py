"""Independent verification of oversampled rows, used by unit and acceptance tests.

Everything here recomputes from first principles: neighbor lists come
from explicitly sorted pairwise distances, and each synthetic row must
sit on a segment between some class member and one of that member's k
nearest same-class neighbors, with the interpolation factor recovered
coordinate-wise.
"""

import numpy as np

BLOCK_ROWS = 64  # synthetic rows matched per block; bounds memory at ~BLOCK_ROWS x segments


def brute_force_neighbors(points, k):
    """Row i: indices of i's k nearest others, sorted by (distance, index)."""
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    table = []
    for i in range(m):
        d2 = np.sum((points - points[i]) ** 2, axis=1)
        ranked = sorted((j for j in range(m) if j != i), key=lambda j: (d2[j], j))
        table.append(ranked[:k])
    return table


def _candidate_segments(members, neighbor_table):
    """All (member, neighbor) pairs as base points ``a`` and directions ``w``.

    Each segment also carries its pivot (the coordinate of largest |w|,
    from which lambda is recovered) and a probe (the coordinate of
    second-largest |w|, used to discard hopeless pairs cheaply).
    """
    members = np.asarray(members, dtype=np.float64)
    src = np.repeat(np.arange(len(members)), [len(n) for n in neighbor_table])
    nbr = np.concatenate([np.asarray(n, dtype=int) for n in neighbor_table])
    a = members[src]
    w = members[nbr] - a
    size = np.abs(w)
    pivot = np.argmax(size, axis=1)
    size[np.arange(len(src)), pivot] = -1.0  # with d = 1 the probe falls back to the pivot
    probe = np.argmax(size, axis=1)
    return a, w, pivot, probe


def segment_witnesses(rows, segments, tol=1e-9):
    """Boolean per row: True if row = a + lam w for some candidate segment,
    with lam in [0, 1] recovered from the pivot coordinate and every
    coordinate's residual within tol.

    A coincident pair (w = 0) witnesses only rows within tol of its base
    point.  Rows are matched in blocks of BLOCK_ROWS against all segments.
    Step 1 recovers lam for every (row, segment) pair and keeps a pair
    only if lam is in range and the probe coordinate's residual, computed
    by the same expression as step 2, is within tol; any pair it drops
    fails step 2 too.  Step 2 checks all coordinates of the survivors.
    """
    a, w, pivot, probe = segments
    rows = np.asarray(rows, dtype=np.float64)
    seg = np.arange(len(a))
    a_pivot, w_pivot = a[seg, pivot], w[seg, pivot]
    a_probe, w_probe = a[seg, probe], w[seg, probe]
    degenerate = w_pivot == 0.0  # coincident member/neighbor pair: w is all zero
    witnessed = np.zeros(len(rows), dtype=bool)
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start:start + BLOCK_ROWS]
        lam = np.zeros((len(block), len(a)))
        np.divide(block[:, pivot] - a_pivot, w_pivot, out=lam, where=~degenerate)
        probe_resid = np.abs((block[:, probe] - a_probe) - lam * w_probe)
        r, s = np.nonzero((probe_resid <= tol) & (lam >= -tol) & (lam <= 1.0 + tol))
        v = block[r] - a[s]
        lam = lam[r, s]
        resid = np.max(np.abs(v - lam[:, None] * w[s]), axis=1)
        ok = (resid <= tol) & (lam >= -tol) & (lam <= 1.0 + tol)
        ok |= degenerate[s] & (np.max(np.abs(v), axis=1) <= tol)
        witnessed[start + r[ok]] = True
    return witnessed


def _plain(label):
    return label.item() if hasattr(label, "item") else label


def verify_oversampled(features, labels, k, synthetic, before, tol=1e-9):
    """Check every synthetic row against the originals it was drawn from.

    ``features`` and ``labels`` are the oversampler's inputs after the
    call, ``before`` a copy of both taken before it, and ``synthetic``
    its (rows, row_labels).  Returns the number of synthetic rows
    verified; raises AssertionError if the inputs were modified, or
    naming the class and position of the first row with no valid
    (member, neighbor, lambda) witness.
    """
    before_feats, before_labels = before
    assert np.array_equal(features, before_feats), "input features were modified"
    assert np.array_equal(labels, before_labels), "input labels were modified"
    synth_feats, synth_labels = synthetic
    assert len(synth_feats) == len(synth_labels), "one label per synthetic row"
    witnessed = np.zeros(len(synth_labels), dtype=bool)
    for cls in np.unique(synth_labels):
        key = _plain(cls)
        members = before_feats[before_labels == cls]
        kk = min(k, len(members) - 1)
        assert kk >= 1, f"class {key!r} has too few members to interpolate"
        segments = _candidate_segments(members, brute_force_neighbors(members, kk))
        mine = synth_labels == cls
        witnessed[mine] = segment_witnesses(synth_feats[mine], segments, tol=tol)
    if not witnessed.all():
        first = int(np.argmin(witnessed))
        key = _plain(synth_labels[first])
        raise AssertionError(f"synthetic row {first} of class {key!r} "
                             f"lies on no member-neighbor segment")
    return len(synth_labels)
