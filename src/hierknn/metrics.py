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

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        """Element-wise sum, for combining shards scored independently."""
        if other.n_classes != self.n_classes:
            raise ValueError("class count mismatch")
        out = ConfusionMatrix(self.n_classes)
        out.counts = self.counts + other.counts
        return out

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def tp_fp_fn(self, c: int) -> tuple[int, int, int]:
        tp = int(self.counts[c, c])
        fp = int(self.counts[:, c].sum()) - tp
        fn = int(self.counts[c, :].sum()) - tp
        return tp, fp, fn


def per_class_f1(cm: ConfusionMatrix, c: int) -> float:
    """2*TP / (2*TP + FP + FN), or 0.0 when the denominator is zero."""
    if not 0 <= c < cm.n_classes:
        raise ValueError(f"class {c} out of range")
    tp, fp, fn = cm.tp_fp_fn(c)
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2.0 * tp / denom


def macro_f1(cm: ConfusionMatrix) -> float:
    """Unweighted mean of per-class F1 over all classes."""
    return sum(per_class_f1(cm, c) for c in range(cm.n_classes)) / cm.n_classes


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
    classes = []
    for c in range(n_classes):
        tp, fp, fn = cm.tp_fp_fn(c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        classes.append(
            {
                "index": c,
                "precision": precision,
                "recall": recall,
                "f1": per_class_f1(cm, c),
                "support": tp + fn,
            }
        )
    mf1 = macro_f1(cm)
    report = {
        "convention": F1_CONVENTION,
        "n_samples": len(truth),
        "macro_f1": mf1,
        "classes": classes,
    }
    return cm, mf1, report
