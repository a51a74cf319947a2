import json

import jsonschema
import numpy as np
import pytest

from memefuse import evalmetrics
from memefuse.evalmetrics import (EvalReport, REPORT_SCHEMA, accuracy, build_report,
                                  confusion, macro_f1)


def _oracle_macro_f1(cm):
    """Per-class brute force with plain python floats."""
    k = len(cm)
    total = 0.0
    for c in range(k):
        tp = float(cm[c][c])
        pred_c = float(sum(cm[r][c] for r in range(k)))
        true_c = float(sum(cm[c][p] for p in range(k)))
        prec = tp / pred_c if pred_c else 0.0
        rec = tp / true_c if true_c else 0.0
        total += (2 * prec * rec / (prec + rec)) if (prec + rec) else 0.0
    return total / k


def _oracle_accuracy(cm):
    k = len(cm)
    correct = sum(cm[c][c] for c in range(k))
    total = sum(cm[r][p] for r in range(k) for p in range(k))
    return correct / total


class TestConfusion:
    def test_perfect_predictions_diagonal(self):
        y = np.array([0, 1, 0, 1, 1, 0, 0, 1, 0, 1])
        cm = confusion(y, y, 2)
        assert cm.trace() == 10
        assert cm.sum() == 10

    def test_empty_inputs_zero_matrix(self):
        cm = confusion([], [], 3)
        np.testing.assert_array_equal(cm, np.zeros((3, 3), dtype=np.int64))

    def test_matches_tally_oracle(self):
        rng = np.random.default_rng(42)
        t = rng.integers(0, 3, size=50)
        p = rng.integers(0, 3, size=50)
        cm = confusion(t, p, 3)
        expect = [[sum(1 for a, b in zip(t, p) if a == i and b == j) for j in range(3)]
                  for i in range(3)]
        np.testing.assert_array_equal(cm, expect)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            confusion([0, 3], [0, 1], 3)
        with pytest.raises(ValueError):
            confusion([0, -1], [0, 1], 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0], 2)


class TestMacroF1:
    def test_perfect_is_one(self):
        assert macro_f1(np.diag([5, 3, 2])) == 1.0

    def test_binary_all_wrong_is_zero(self):
        assert macro_f1(np.array([[0, 4], [6, 0]])) == 0.0

    def test_zero_denominator_class(self):
        # class 2 never true and never predicted: P=R=F1=0 for it
        cm = np.array([[3, 0, 0], [0, 2, 0], [0, 0, 0]])
        np.testing.assert_allclose(macro_f1(cm), 2.0 / 3.0, atol=1e-15)

    def test_random_matrices_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            cm = rng.integers(0, 30, size=(k, k))
            assert abs(macro_f1(cm) - _oracle_macro_f1(cm.tolist())) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        cm = rng.integers(0, 20, size=(3, 3))
        perm = np.array([2, 0, 1])
        permuted = cm[perm][:, perm]
        assert abs(macro_f1(cm) - macro_f1(permuted)) < 1e-15

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            macro_f1(np.array([[5]]))


class TestAccuracy:
    def test_diagonal_only_is_one(self):
        assert accuracy(np.diag([2, 2, 6])) == 1.0

    def test_uniform_2x2_is_half(self):
        assert accuracy(np.full((2, 2), 7)) == 0.5

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            cm = rng.integers(0, 25, size=(3, 3))
            if cm.sum() == 0:
                continue
            assert abs(accuracy(cm) - _oracle_accuracy(cm.tolist())) < 1e-15

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((2, 2)))


class TestBuildReport:
    def _gold(self):
        return {
            "humor": np.array([0, 1, 0, 1]),
            "sarcasm": np.array([0, 0, 1, 1]),
            "motivation": np.array([1, 1, 0, 0]),
            "sentiment": np.array([0, 1, 2, 1]),
        }

    def test_perfect_predictions_all_hundred(self):
        gold = self._gold()
        report = build_report({"imgtxt": dict(gold)}, gold)
        for task, cell in report.variants["imgtxt"].items():
            assert cell["accuracy"] == 100.0
            assert cell["macro_f1"] == 100.0
        assert report.averages["imgtxt"]["macro_f1"] == 100.0

    def test_hand_computed_cells(self):
        gold = {"humor": np.array([0, 0, 1, 1])}
        preds = {"v": {"humor": np.array([0, 1, 1, 1])}}
        report = build_report(preds, gold)
        # cm = [[1,1],[0,2]]: acc 3/4; F1_0 = 2/3, F1_1 = 4/5, macro = 11/15
        cell = report.variants["v"]["humor"]
        np.testing.assert_allclose(cell["accuracy"], 75.0, atol=1e-12)
        np.testing.assert_allclose(cell["macro_f1"], 100.0 * (2 / 3 + 4 / 5) / 2, atol=1e-12)

    def test_average_is_mean_of_cells(self):
        gold = self._gold()
        rng = np.random.default_rng(17)
        preds = {"imgsen": {t: rng.integers(0, 2, size=4) if t != "sentiment"
                            else rng.integers(0, 3, size=4) for t in gold}}
        report = build_report(preds, gold)
        cells = report.variants["imgsen"]
        expect = sum(c["macro_f1"] for c in cells.values()) / 4
        assert abs(report.averages["imgsen"]["macro_f1"] - expect) < 1e-9

    def test_length_mismatch_rejected(self):
        gold = {"humor": np.array([0, 1])}
        with pytest.raises(ValueError, match="humor"):
            build_report({"v": {"humor": np.array([0, 1, 0])}}, gold)

    def test_missing_gold_excluded(self):
        gold = {"humor": np.array([0, 1, -1, -1])}
        preds = {"v": {"humor": np.array([0, 1, 0, 1])}}
        report = build_report(preds, gold)
        assert report.variants["v"]["humor"]["accuracy"] == 100.0


class TestRendering:
    def _report(self):
        gold = {"humor": np.array([0, 1, 0, 1]), "sarcasm": np.array([0, 0, 1, 1]),
                "motivation": np.array([1, 0, 1, 0]), "sentiment": np.array([0, 1, 2, 0])}
        rng = np.random.default_rng(19)
        preds = {}
        for variant in ("imgtxt", "imgsen", "capsen"):
            preds[variant] = {t: rng.integers(0, 3 if t == "sentiment" else 2, size=4)
                              for t in gold}
        return build_report(preds, gold)

    def test_json_validates_against_schema(self):
        payload = self._report().to_json()
        jsonschema.validate(payload, REPORT_SCHEMA)
        # round-trips through json text
        jsonschema.validate(json.loads(json.dumps(payload)), REPORT_SCHEMA)

    def test_json_two_decimals(self):
        payload = self._report().to_json()
        for cells in payload["variants"].values():
            for cell in cells.values():
                for value in cell.values():
                    assert round(value, 2) == value

    def test_text_layout(self):
        text = self._report().to_text()
        assert "accuracy" in text and "macro_f1" in text
        for name in ("imgtxt", "imgsen", "capsen", "humor", "average"):
            assert name in text
        # one row per task plus header and average, per metric section
        assert len([ln for ln in text.splitlines() if ln.startswith("  ")]) == 2 * 6

    def test_values_in_percent_range(self):
        payload = self._report().to_json()
        for cells in payload["variants"].values():
            for cell in cells.values():
                assert 0.0 <= cell["accuracy"] <= 100.0
                assert 0.0 <= cell["macro_f1"] <= 100.0
