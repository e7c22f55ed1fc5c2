"""Confusion-matrix bookkeeping, per-class F1, and macro F1.

Convention: a class with TP + FP + FN = 0 (never in the truth, never
predicted) contributes F1 = 0 to the macro average rather than being
excluded. This is pessimistic but stable when the class list is fixed
up front; every report carries the convention in its header.
"""
from __future__ import annotations

import numpy as np

F1_CONVENTION = "per-class F1 is 0 when the class has no support and no predictions"


def confusion(truth, preds, n_classes: int) -> np.ndarray:
    """C x C count grid of aligned label pairs; rows are true classes, columns predicted."""
    truth = np.asarray(truth, dtype=np.int64)
    preds = np.asarray(preds, dtype=np.int64)
    if len(truth) != len(preds):
        raise ValueError(f"length mismatch ({len(truth)} truths, {len(preds)} preds)")
    c = int(n_classes)
    if c < 1:
        raise ValueError(f"need at least one class, got {n_classes}")
    bad = (truth < 0) | (truth >= c) | (preds < 0) | (preds >= c)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"label pair ({truth[i]}, {preds[i]}) out of range for C={c}")
    cells = truth * c
    cells += preds
    return np.bincount(cells, minlength=c * c).reshape(c, c)


def _per_class(grid: np.ndarray):
    """Per-class precision, recall, F1 and support, as arrays; a ratio over 0 is 0.0."""
    tp = np.diagonal(grid)
    predicted = grid.sum(axis=0)  # TP + FP
    support = grid.sum(axis=1)  # TP + FN
    ratios = [
        np.divide(num, denom, out=np.zeros(len(grid)), where=denom > 0)
        for num, denom in ((tp, predicted), (tp, support), (2.0 * tp, predicted + support))
    ]
    return (*ratios, support)


def macro_f1(grid: np.ndarray) -> float:
    """Unweighted mean of per-class F1 over all classes of a ``confusion`` grid."""
    return sum(_per_class(grid)[2].tolist()) / len(grid)


def score_predictions(truth, preds, n_classes: int):
    """Score aligned truth/prediction leaf-index arrays.

    Returns (``confusion`` grid, macro F1, report dict). The report holds
    per-class precision, recall, F1 and support plus the convention note.
    """
    if not len(truth):
        raise ValueError("no samples")
    grid = confusion(truth, preds, n_classes)
    precision, recall, f1, support = (column.tolist() for column in _per_class(grid))
    classes = [
        {"index": c, "precision": p, "recall": r, "f1": f, "support": n}
        for c, (p, r, f, n) in enumerate(zip(precision, recall, f1, support))
    ]
    mf1 = macro_f1(grid)
    report = {
        "convention": F1_CONVENTION,
        "n_samples": len(truth),
        "macro_f1": mf1,
        "classes": classes,
    }
    return grid, mf1, report
