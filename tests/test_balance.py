import re

import numpy as np
import pytest

from memefuse import balance
from memefuse.balance import knn_indices, smote_oversample
from memefuse.model import NumericError
from smote_oracle import brute_force_neighbors, verify_oversampled


class TestKnnIndices:
    def test_nearest_by_inspection(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        np.testing.assert_array_equal(knn_indices(pts, 0, 1), [1])
        np.testing.assert_array_equal(knn_indices(pts, 0, 2), [1, 2])

    def test_self_excluded(self):
        pts = np.array([[0.0], [0.0], [9.0]])
        assert 0 not in knn_indices(pts, 0, 2)

    def test_ties_broken_by_lower_index(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(knn_indices(pts, 0, 2), [1, 2])

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            knn_indices(np.zeros((3, 2)), 0, 3)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(100, 5))
        oracle = brute_force_neighbors(pts, 7)
        for i in range(100):
            np.testing.assert_array_equal(knn_indices(pts, i, 7), oracle[i])


def _family(name, rng, k):
    """Seeded inputs on which a Gram-form shortlist could go wrong."""
    m, d = int(rng.integers(k + 2, 70)), int(rng.integers(1, 24))
    if name == "large_offset":  # |a|^2 + |b|^2 - 2a.b cancels nearly every digit
        return 1e4 + rng.normal(0.0, 1e-3, size=(m, d))
    if name == "deep_offset":  # cancels further, so that the bounds' slack decides
        return 1e4 + rng.normal(0.0, 1e-4, size=(m, d))
    if name == "far_and_near":  # a far row's Gram rounding dwarfs its near rows' slack
        points = rng.normal(0.0, 1e-12, size=(m, d))
        far = rng.random(m) < 0.3
        points[far] += 1e4 * rng.normal(size=(int(far.sum()), d))
        return points
    if name == "integer_grid":  # dozens of distinct rows at exactly equal distances
        return rng.integers(-1, 2, size=(m, int(rng.integers(2, 5)))).astype(np.float64)
    if name == "equidistant":  # 1e3 +- 3 e_j: exact ties that the Gram form blurs
        axes = 3.0 * np.vstack([np.eye(d + k + 8), -np.eye(d + k + 8)])
        return 1e3 + axes[rng.permutation(len(axes))]
    if name == "duplicate_heavy":  # each distinct row repeated more than k + 8 times
        distinct = rng.normal(size=(int(rng.integers(1, 4)), d))
        return distinct[rng.permutation(np.repeat(np.arange(len(distinct)), k + 9 + m % 5))]
    if name == "signed_zeros":  # rows equal in value, distinct in bytes
        rows = np.where(rng.random((m, d)) < 0.5, -0.0, 0.0)
        rows[rng.random(m) < 0.2] = 1.0
        return rows
    if name == "float32_scaled":
        return rng.normal(size=(m, d)).astype(np.float32).astype(np.float64) * 1e3
    raise ValueError(name)


def _listed_d2(points, table):
    """knn_indices' squared distance from each row to each neighbor it lists:
    the row's own entry is inf, as knn_indices ranks it."""
    out = np.empty(table.shape)
    with np.errstate(over="ignore"):
        for i, listed in enumerate(table):
            d2 = np.sum((points - points[i]) ** 2, axis=1)
            d2[i] = np.inf
            out[i] = d2[listed]
    return out


class TestNeighborTable:
    @pytest.mark.parametrize("family", ["large_offset", "deep_offset", "far_and_near",
                                        "integer_grid", "equidistant", "duplicate_heavy",
                                        "signed_zeros", "float32_scaled"])
    def test_matches_exhaustive_oracle(self, family):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 9))
            points = _family(family, rng, k)
            table, d2 = balance._neighbor_table(points, k, np.arange(len(points)))
            assert table.shape == (len(points), k) and table.dtype == np.intp
            assert d2.shape == table.shape and d2.dtype == np.float64
            oracle = brute_force_neighbors(points, k)
            np.testing.assert_array_equal(table, oracle, err_msg=f"{family}, seed {seed}")
            np.testing.assert_array_equal(d2, _listed_d2(points, np.array(oracle)),
                                          err_msg=f"{family}, seed {seed}")

    @pytest.mark.parametrize("family", ["large_offset", "integer_grid", "equidistant",
                                        "duplicate_heavy", "signed_zeros", "float32_scaled"])
    def test_float32_rows_by_index_match_their_float64_cast(self, family):
        # the class as float32 rows read by index from a larger array, between
        # rows of other classes, gives the bytes of the same rows cast to
        # float64 and passed whole
        for seed in range(12):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 9))
            points = _family(family, rng, k).astype(np.float32)
            mixed = rng.normal(size=(2 * len(points) + 3, points.shape[1])).astype(np.float32)
            rows = np.sort(rng.choice(len(mixed), size=len(points), replace=False))
            mixed[rows] = points
            table, d2 = balance._neighbor_table(mixed, k, rows)
            expected, expected_d2 = balance._neighbor_table(
                points.astype(np.float64), k, np.arange(len(points)))
            assert table.dtype == expected.dtype and d2.dtype == expected_d2.dtype
            assert table.tobytes() == expected.tobytes(), f"{family}, seed {seed}"
            assert d2.tobytes() == expected_d2.tobytes(), f"{family}, seed {seed}"

    def test_block_and_chunk_sizes_change_nothing(self, monkeypatch):
        rng = np.random.default_rng(21)
        points = np.vstack([rng.integers(-1, 2, size=(40, 3)).astype(np.float64)] * 2)
        expected = brute_force_neighbors(points, 6)
        monkeypatch.setattr(balance, "GRAM_BLOCK", 7)
        monkeypatch.setattr(balance, "RERANK_ELEMENTS", 5)
        table, d2 = balance._neighbor_table(points, 6, np.arange(len(points)))
        np.testing.assert_array_equal(table, expected)
        np.testing.assert_array_equal(d2, _listed_d2(points, np.array(expected)))

    def test_overflowing_distances_follow_knn_indices(self):
        # a distance that overflows ties with knn_indices' own inf entry, which
        # then ranks the query among its neighbors; the table keeps that rule
        rng = np.random.default_rng(8)
        points = rng.normal(size=(12, 2)) * np.where(np.arange(12)[:, None] % 3, 1.0, 1e155)
        points[5] = points[2]
        with np.errstate(over="ignore"):
            expected = np.stack([knn_indices(points, i, 6) for i in range(12)])
            table, d2 = balance._neighbor_table(points, 6, np.arange(len(points)))
        assert any(i in expected[i] for i in range(12))
        np.testing.assert_array_equal(table, expected)
        np.testing.assert_array_equal(d2, _listed_d2(points, expected))

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="k=3 needs at least 4 points"):
            balance._neighbor_table(np.zeros((3, 2)), 3, np.arange(3))


class _StubRng:
    """Deterministic stand-in: integers() walks a list, uniform() another."""

    def __init__(self, ints, floats):
        self._ints = list(ints)
        self._floats = list(floats)

    def integers(self, *_args, **_kw):
        return self._ints.pop(0)

    def uniform(self, *_args, **_kw):
        return self._floats.pop(0)


def _oversample(features, labels, deficits, k, seed):
    """smote_oversample into fresh rows of the input's dtype; (rows, row_labels)."""
    rows = np.empty((sum(deficits.values()), features.shape[1]), dtype=features.dtype)
    return rows, smote_oversample(features, labels, deficits, k, seed, rows)


def _majority_deficits(labels):
    """{class: rows to add} raising every present class to the largest one."""
    values, counts = np.unique(labels, return_counts=True)
    return {v.item(): int(counts.max() - c) for v, c in zip(values, counts)}


def _balanced(feats, labels, k=5, seed=0):
    """smote_oversample to majority parity, verified by the oracle; its (rows, labels)."""
    before = (feats.copy(), labels.copy())
    out = _oversample(feats, labels, _majority_deficits(labels), k, seed)
    verify_oversampled(feats, labels, k, out, before)
    return out


class TestSmoteOversample:
    def test_midpoint_with_forced_lambda(self, monkeypatch):
        monkeypatch.setattr(balance, "rng_for", lambda *_: _StubRng([0, 0], [0.5]))
        rows, row_labels = _oversample(np.array([[0.0, 0.0], [1.0, 1.0]]),
                                       np.array([0, 0]), {0: 1}, 1, 0)
        np.testing.assert_allclose(rows, [[0.5, 0.5]], atol=1e-12)
        assert row_labels.tolist() == [0]

    def test_zero_deficit_identity(self):
        feats = np.arange(8.0).reshape(4, 2)
        rows, row_labels = _oversample(feats, np.array([0, 0, 1, 1]), {0: 0, 1: 0}, 5, 0)
        assert rows.shape == (0, 2) and row_labels.shape == (0,)
        np.testing.assert_array_equal(feats, np.arange(8.0).reshape(4, 2))

    def test_singleton_class_with_deficit_rejected(self):
        with pytest.raises(ValueError, match="need 2"):
            _oversample(np.arange(6.0).reshape(3, 2), np.array([0, 0, 1]), {1: 2}, 5, 0)

    def test_originals_first_and_verbatim(self):
        # only synthetic rows are written and the input stays verbatim; the
        # originals-first layout is build_training_set's (test_pipeline)
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(20, 4)).astype(np.float32)
        labels = np.array([0] * 14 + [1] * 6)
        before = feats.copy()
        rows, row_labels = _oversample(feats, labels, {1: 8}, 3, 11)
        assert rows.shape == (8, 4) and rows.dtype == np.float32
        np.testing.assert_array_equal(feats, before)
        assert row_labels.tolist() == [1] * 8

    def test_rows_written_into_the_destination_cast_as_astype(self):
        # float64 draws into a float32 slice of a larger array: the slice gets
        # the float64 rows cast by astype, the rows around it stay untouched
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(20, 4))
        labels = np.array([0] * 14 + [1] * 6)
        rows, row_labels = _oversample(feats, labels, {1: 8}, 3, 11)
        buffer = np.full((12, 4), 7.0, dtype=np.float32)
        assert smote_oversample(feats, labels, {1: 8}, 3, 11, buffer[2:10]).tolist() == [1] * 8
        assert buffer[2:10].tobytes() == rows.astype(np.float32).tobytes()
        assert (buffer[:2] == 7.0).all() and (buffer[10:] == 7.0).all()
        assert row_labels.tolist() == [1] * 8

    @pytest.mark.parametrize("shape", [(7, 4), (9, 4), (8, 3)])
    def test_destination_shape_checked(self, shape):
        labels = np.array([0] * 14 + [1] * 6)
        with pytest.raises(ValueError, match=re.escape(
                f"destination of shape {shape} for 8 synthetic rows of width 4")):
            smote_oversample(np.zeros((20, 4)), labels, {1: 8}, 3, 11, np.empty(shape))

    def test_synthetics_pass_independent_oracle(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(40, 6))
        labels = np.array([0] * 28 + [1] * 12)
        # second input: six copies of one far point, so each copy's k=5
        # neighbors are its twins and every segment from it is coincident (w = 0)
        far = np.full(6, 100.0)
        duplicated = feats.copy()
        duplicated[34:] = far
        for features in (feats, duplicated):
            before = (features.copy(), labels.copy())
            out = _oversample(features, labels, {1: 16}, 5, 9)
            assert verify_oversampled(features, labels, 5, out, before) == 16
        assert (out[0] == far).all(axis=1).any()  # the w = 0 witnesses were needed

    @pytest.mark.parametrize(
        "case", ["off_segment", "extrapolated", "beyond_k", "changed_original"])
    def test_oracle_rejects_bad_rows(self, case):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(40, 6))
        labels = np.array([0] * 28 + [1] * 12)
        before = (feats.copy(), labels.copy())
        rows, row_labels = _oversample(feats, labels, {1: 16}, 5, 9)
        members = feats[labels == 1]
        x = members[0]
        ranked = brute_force_neighbors(members, 6)[0]  # k + 1 nearest
        w = members[ranked[0]] - x
        bad = x + 0.3 * w
        if case == "off_segment":
            # smallest |w| coordinate: neither the pivot (largest) nor the probe (second largest)
            bad[np.argmin(np.abs(w))] += 1e-6
        elif case == "extrapolated":
            bad = x + 1.5 * w
        elif case == "beyond_k":
            bad = x + 0.5 * (members[ranked[5]] - x)
        synthetic = (np.vstack([rows, bad]), np.append(row_labels, 1))
        message = r"synthetic row 16 of class 1 "
        if case == "changed_original":
            feats[3, 2] += 1e-6
            message = "input features were modified"
        with pytest.raises(AssertionError, match=message):
            verify_oversampled(feats, labels, 5, synthetic, before)

    def test_overflow_reports_the_lowest_row_whose_list_overflows(self, monkeypatch):
        # one distinct row per Gram block, and copies of each row scattered
        # through the class, so the table is filled out of row order; the
        # class's members are interleaved with another class's rows
        monkeypatch.setattr(balance, "GRAM_BLOCK", 1)
        raised = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            distinct = rng.normal(size=(int(rng.integers(3, 7)), 3))
            distinct[rng.random(len(distinct)) < 0.4] *= 1e155
            members = distinct[rng.permutation(
                np.repeat(np.arange(len(distinct)), rng.integers(1, 4, len(distinct))))]
            m, k = len(members), int(rng.integers(1, 6))
            kk = min(k, m - 1)
            feats = np.zeros((2 * m, 3))
            feats[1::2] = members
            labels = np.tile([0, 1], m)
            bad = []
            with np.errstate(over="ignore"):
                for i in range(m):
                    listed = knn_indices(members, i, kk)
                    d2 = np.sum((members[listed] - members[i]) ** 2, axis=1)
                    bad.append(bool(np.isinf(d2).any() or i in listed))
            if not any(bad):
                _oversample(feats, labels, {1: 3}, k, seed)
                continue
            row = 2 * bad.index(True) + 1  # the member's index in feats
            with pytest.raises(NumericError, match=re.escape(
                    f"class 1: squared distance from row {row} to a listed neighbor overflows")):
                _oversample(feats, labels, {1: 3}, k, seed)
            raised += 1
        assert 5 <= raised < 20

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(12, 3))
        labels = np.array([0] * 8 + [1] * 4)
        a, _ = _balanced(feats, labels, seed=1)
        b, _ = _balanced(feats, labels, seed=1)
        c, _ = _balanced(feats, labels, seed=2)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_k_clamped_for_tiny_class(self):
        # class of 3 with k=5: clamp to 2 neighbors, still works
        feats = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0], [13.0]])
        labels = np.array([0, 0, 0, 1, 1, 1, 1])
        _, row_labels = _balanced(feats, labels, k=5, seed=4)
        assert row_labels.tolist() == [0]


class TestBalanceToMajority:
    def test_three_classes(self):
        rng = np.random.default_rng(13)
        feats = rng.normal(size=(20, 2))
        labels = np.array([0] * 10 + [1] * 4 + [2] * 6)
        _, row_labels = _balanced(feats, labels, seed=2)
        assert row_labels.tolist() == [1] * 6 + [2] * 4

    def test_already_balanced_unchanged(self):
        rng = np.random.default_rng(17)
        feats = rng.normal(size=(6, 2))
        labels = np.array([0, 0, 0, 1, 1, 1])
        rows, _ = _balanced(feats, labels)
        assert rows.shape == (0, 2)

    def test_single_class_rejected(self):
        # a class absent from the input has nothing to interpolate between
        with pytest.raises(ValueError, match="class 1 has 0 member"):
            _oversample(np.zeros((3, 2)), np.zeros(3, dtype=np.int64), {1: 3}, 5, 0)

    def test_string_labels_supported(self):
        rng = np.random.default_rng(19)
        feats = rng.normal(size=(9, 3))
        labels = np.array(["sarcastic"] * 6 + ["not_sarcastic"] * 3)
        rows, row_labels = _balanced(feats, labels, seed=3)
        assert row_labels.tolist() == ["not_sarcastic"] * 3
        assert rows.shape == (3, 3)
