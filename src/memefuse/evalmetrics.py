"""Confusion-matrix metrics and per-variant report generation.

Metrics stay in [0, 1] internally; scaling to percent (two decimals)
happens only when a report is rendered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import TASK_CLASSES

REPORT_METRICS = ("accuracy", "macro_f1")

# shape of the JSON report: per-variant per-task cells plus per-variant averages
REPORT_SCHEMA = {
    "type": "object",
    "required": ["variants", "averages"],
    "additionalProperties": False,
    "properties": {
        "variants": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "additionalProperties": {
                    "type": "object",
                    "required": ["accuracy", "macro_f1"],
                    "additionalProperties": False,
                    "properties": {
                        "accuracy": {"type": "number", "minimum": 0, "maximum": 100},
                        "macro_f1": {"type": "number", "minimum": 0, "maximum": 100},
                    },
                },
            },
        },
        "averages": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["accuracy", "macro_f1"],
                "additionalProperties": False,
                "properties": {
                    "accuracy": {"type": "number", "minimum": 0, "maximum": 100},
                    "macro_f1": {"type": "number", "minimum": 0, "maximum": 100},
                },
            },
        },
    },
}


def confusion(true_labels, predicted_labels, n_classes: int) -> np.ndarray:
    """Tally counts[true][predicted] over the paired label arrays."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise ValueError(f"label arrays must be equal-length 1-d, got {t.shape} and {p.shape}")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    if t.size == 0:
        return cm
    if t.min() < 0 or t.max() >= n_classes or p.min() < 0 or p.max() >= n_classes:
        raise ValueError(f"labels outside [0, {n_classes})")
    np.add.at(cm, (t, p), 1)
    return cm


def _check_cm(cm) -> np.ndarray:
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValueError(f"confusion matrix must be square, got shape {cm.shape}")
    return cm


def macro_f1(cm) -> float:
    """Unweighted mean of per-class F1; P, R, and F1 fall to 0 on empty denominators."""
    cm = _check_cm(cm)
    if cm.shape[0] < 2:
        raise ValueError("need at least 2 classes")
    f1s = []
    for c in range(cm.shape[0]):
        tp = float(cm[c, c])
        col = float(cm[:, c].sum())
        row = float(cm[c, :].sum())
        precision = tp / col if col > 0 else 0.0
        recall = tp / row if row > 0 else 0.0
        if precision + recall > 0:
            f1s.append(2.0 * precision * recall / (precision + recall))
        else:
            f1s.append(0.0)
    return float(np.mean(f1s))


def accuracy(cm) -> float:
    cm = _check_cm(cm)
    total = cm.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm)) / float(total)


@dataclass(frozen=True)
class EvalReport:
    """Percent-scaled metric cells per variant and task, plus per-variant means."""

    variants: dict  # {variant: {task: {"accuracy": float, "macro_f1": float}}}
    averages: dict  # {variant: {"accuracy": float, "macro_f1": float}}

    def to_json(self) -> dict:
        def r2(x):
            return round(x, 2)

        return {
            "variants": {v: {t: {m: r2(cell[m]) for m in REPORT_METRICS}
                             for t, cell in tasks.items()}
                         for v, tasks in self.variants.items()},
            "averages": {v: {m: r2(cell[m]) for m in REPORT_METRICS}
                         for v, cell in self.averages.items()},
        }

    def to_text(self) -> str:
        names = list(self.variants)
        tasks = list(next(iter(self.variants.values())))
        width = max(12, *(len(n) + 2 for n in names))
        lines = []
        for metric in REPORT_METRICS:
            lines.append(metric)
            lines.append("  " + "task".ljust(12) + "".join(n.rjust(width) for n in names))
            for task in tasks:
                row = "  " + task.ljust(12)
                row += "".join(f"{self.variants[n][task][metric]:{width}.2f}" for n in names)
                lines.append(row)
            row = "  " + "average".ljust(12)
            row += "".join(f"{self.averages[n][metric]:{width}.2f}" for n in names)
            lines.append(row)
            lines.append("")
        return "\n".join(lines)


def build_report(predictions: dict, gold: dict) -> EvalReport:
    """predictions: {variant: {task: predicted labels}}; gold: {task: true labels}.

    Every variant is scored on the same gold labels; cells are percent.
    """
    variants = {}
    averages = {}
    for variant, per_task in predictions.items():
        cells = {}
        for task, pred in per_task.items():
            true = np.asarray(gold[task])
            pred = np.asarray(pred)
            if true.shape != pred.shape:
                raise ValueError(f"{variant}/{task}: {pred.shape[0]} predictions "
                                 f"for {true.shape[0]} gold labels")
            keep = true >= 0
            cm = confusion(true[keep], pred[keep], len(TASK_CLASSES[task]))
            cells[task] = {"accuracy": 100.0 * accuracy(cm),
                           "macro_f1": 100.0 * macro_f1(cm)}
        variants[variant] = cells
        averages[variant] = {m: float(np.mean([c[m] for c in cells.values()]))
                             for m in REPORT_METRICS}
    return EvalReport(variants, averages)
