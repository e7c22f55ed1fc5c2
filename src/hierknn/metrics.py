"""Confusion-matrix bookkeeping, per-class F1, and macro F1.

Convention: a class with TP + FP + FN = 0 (never in the truth, never
predicted) contributes F1 = 0 to the macro average rather than being
excluded. This is pessimistic but stable when the class list is fixed
up front; every report carries the convention in its header.
"""
from __future__ import annotations

import numpy as np

F1_CONVENTION = "per-class F1 is 0 when the class has no support and no predictions"


class ConfusionMatrix:
    """C x C count grid; rows are true classes, columns predicted classes."""

    def __init__(self, n_classes: int):
        if n_classes < 1:
            raise ValueError(f"need at least one class, got {n_classes}")
        self.n_classes = int(n_classes)
        self.counts = np.zeros((n_classes, n_classes), dtype=np.int64)

    @classmethod
    def from_pairs(cls, truth, preds, n_classes: int) -> "ConfusionMatrix":
        truth = np.asarray(list(truth), dtype=np.int64)
        preds = np.asarray(list(preds), dtype=np.int64)
        if len(truth) != len(preds):
            raise ValueError(f"length mismatch ({len(truth)} truths, {len(preds)} preds)")
        cm = cls(n_classes)
        bad = (np.minimum(truth, preds) < 0) | (np.maximum(truth, preds) >= n_classes)
        if bad.any():
            i = int(np.argmax(bad))
            cm.add(int(truth[i]), int(preds[i]))  # raises, naming the pair
        np.add.at(cm.counts, (truth, preds), 1)
        return cm

    def add(self, true_class: int, pred_class: int) -> None:
        if not (0 <= true_class < self.n_classes and 0 <= pred_class < self.n_classes):
            raise ValueError(
                f"label pair ({true_class}, {pred_class}) out of range for C={self.n_classes}"
            )
        self.counts[true_class, pred_class] += 1


def _per_class(cm: ConfusionMatrix):
    """Per-class precision, recall, F1 and support, as arrays; a ratio over 0 is 0.0."""
    tp = np.diagonal(cm.counts)
    predicted = cm.counts.sum(axis=0)  # TP + FP
    support = cm.counts.sum(axis=1)  # TP + FN
    ratios = [
        np.divide(num, denom, out=np.zeros(cm.n_classes), where=denom > 0)
        for num, denom in ((tp, predicted), (tp, support), (2.0 * tp, predicted + support))
    ]
    return (*ratios, support)


def macro_f1(cm: ConfusionMatrix) -> float:
    """Unweighted mean of per-class F1 over all classes."""
    return sum(_per_class(cm)[2].tolist()) / cm.n_classes


def score_predictions(truth, preds, n_classes: int):
    """Score aligned truth/prediction label lists.

    Returns (ConfusionMatrix, macro F1, report dict). The report holds
    per-class precision, recall, F1 and support plus the convention note.
    """
    truth = list(truth)
    preds = list(preds)
    if not truth:
        raise ValueError("no samples")
    cm = ConfusionMatrix.from_pairs(truth, preds, n_classes)
    precision, recall, f1, support = (column.tolist() for column in _per_class(cm))
    classes = [
        {"index": c, "precision": p, "recall": r, "f1": f, "support": n}
        for c, (p, r, f, n) in enumerate(zip(precision, recall, f1, support))
    ]
    mf1 = sum(f1) / n_classes
    report = {
        "convention": F1_CONVENTION,
        "n_samples": len(truth),
        "macro_f1": mf1,
        "classes": classes,
    }
    return cm, mf1, report
