"""Coarse-to-fine prediction over a feature bank, plus a flat-kNN baseline.

Level 1 is decided by majority vote over the retrieved neighbors. Each finer
level votes only over neighbors whose label sits under the already-predicted
parent, which makes the output path valid by construction. If that
constrained subset of the neighborhood is empty (possible only when bank
entries carry parent-inconsistent label triples), the vote falls back to a
bank-wide retrieval restricted to the valid children, and the prediction
records that the fallback fired.

:func:`classify_batch` is the one entry point: it retrieves each query's
neighbors once and computes the hierarchical and the flat vote from them.
The per-query functions are one-row wrappers around it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bank import FeatureBank
from .errors import InferenceError
from .knn import search
from .taxonomy import LabelPath, Taxonomy


@dataclass(frozen=True)
class HierPrediction:
    """Voted labels per level, with the tallies and fallback flags behind them."""

    y1: int
    y2: int
    y3: int
    tallies: tuple[dict[int, int], dict[int, int], dict[int, int]]
    fallback_used: tuple[bool, bool, bool]

    def label_path(self) -> LabelPath:
        return LabelPath(self.y1, self.y2, self.y3)


class BatchPrediction(NamedTuple):
    """Columns of :func:`classify_batch` for m queries.

    ``counts[level - 1]`` (m x C_level) is the tally behind ``y<level>``,
    over the fallback's neighbors where ``fallback[:, level - 1]`` is set.
    Without a taxonomy only the flat columns are set.
    """

    flat_leaf: np.ndarray
    flat_counts: np.ndarray
    y1: np.ndarray | None = None
    y2: np.ndarray | None = None
    y3: np.ndarray | None = None
    fallback: np.ndarray | None = None
    counts: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def _vote(labels: np.ndarray, sims: np.ndarray, n_classes: int):
    """Winner and (m, n_classes) counts per row of (m, k) labels; label -1 casts no vote.

    The key is count, then summed similarity, then the lower class index.
    ``bincount`` sums each class's similarities in neighbor order, as a
    running sum would, so near ties resolve exactly as a per-query loop does.
    """
    m = len(labels)
    size = m * n_classes
    voting = labels >= 0
    bins = (labels + np.arange(0, size, n_classes)[:, None])[voting]
    counts = np.bincount(bins, minlength=size).reshape(m, n_classes)
    simsum = np.bincount(bins, weights=sims[voting], minlength=size).reshape(m, n_classes)
    top = counts == counts.max(axis=1, keepdims=True)
    return np.where(top, simsum, -np.inf).argmax(axis=1), counts


def _nonzero(counts: np.ndarray) -> dict[int, int]:
    return {int(c): int(counts[c]) for c in np.flatnonzero(counts)}


def vote_mode(labels, sims) -> int:
    """Most frequent label; ties go to the larger summed similarity, then the lower index."""
    labels = np.asarray(labels, dtype=np.int64).reshape(1, -1)
    if labels.size == 0:
        raise ValueError("empty label list")
    if labels.min() < 0:
        raise ValueError("labels must be >= 0")
    sims = np.asarray(sims, dtype=np.float64).reshape(1, -1)
    return int(_vote(labels, sims, int(labels.max()) + 1)[0][0])


def classify_batch(bank: FeatureBank, Q, k: int, tax: Taxonomy | None = None) -> BatchPrediction:
    """Classify the rows of ``Q`` (m x dim), retrieving each query's neighbors once.

    The flat leaf vote and, given ``tax``, the coarse-to-fine walk of the
    module docstring count the same k neighbors. Without ``tax`` the flat
    tally spans the bank's leaf indices.
    """
    if tax is not None and bank.taxonomy_digest != tax.digest:
        raise InferenceError("bank was built against a different taxonomy (digest mismatch)")
    Q = np.asarray(Q, dtype=np.float64)
    if Q.shape == (0,):
        Q = Q.reshape(0, bank.dim)
    indices, sims = search(bank, Q, k)
    labels = bank.labels[indices].astype(np.int64)
    n_leaves = tax.leaf_count if tax is not None else int(bank.labels[:, 2].max(initial=0)) + 1
    flat = _vote(labels[:, :, 2], sims, n_leaves)
    if tax is None:
        return BatchPrediction(*flat)
    if (labels.max(axis=(0, 1), initial=0) >= tax.sizes).any():
        raise InferenceError("bank label index out of range for the taxonomy")

    y, c = _vote(labels[:, :, 0], sims, tax.node_count(1))
    ys, counts, fallback = [y], [c], np.zeros((len(Q), 3), dtype=bool)
    for level in (2, 3):
        parent = tax.parents(level)
        col = labels[:, :, level - 1]
        under = parent[col] == ys[-1][:, None]
        y, c = _vote(np.where(under, col, -1), sims, len(parent))
        lost = np.flatnonzero(~under.any(axis=1))
        for node in dict.fromkeys(ys[-1][lost].tolist()):  # re-query the children's entries
            rows = np.flatnonzero(parent[bank.labels[:, level - 1]] == node)
            if rows.size == 0:
                raise InferenceError(
                    f"no bank entry under predicted level-{level - 1} node "
                    f"{tax.name_of(level - 1, node)!r}"
                )
            sel = lost[ys[-1][lost] == node]
            fb_indices, fb_sims = search(bank, Q[sel], k, rows)
            fb_labels = bank.labels[fb_indices, level - 1].astype(np.int64)
            y[sel], c[sel] = _vote(fb_labels, fb_sims, len(parent))
            fallback[sel, level - 1] = True
        ys.append(y)
        counts.append(c)
    return BatchPrediction(*flat, *ys, fallback, tuple(counts))


def predict_hierarchical(
    bank: FeatureBank, q, k: int, tax: Taxonomy
) -> HierPrediction:
    """Classify ``q`` coarse-to-fine; a one-row :func:`classify_batch`."""
    res = classify_batch(bank, np.asarray(q)[None], k, tax)
    return HierPrediction(
        int(res.y1[0]), int(res.y2[0]), int(res.y3[0]),
        tuple(_nonzero(c[0]) for c in res.counts),
        tuple(res.fallback[0].tolist()),
    )


def flat_vote(bank: FeatureBank, q, k: int) -> tuple[int, dict[int, int]]:
    """Leaf-level vote over the raw neighborhood; returns (leaf, tally)."""
    res = classify_batch(bank, np.asarray(q)[None], k)
    return int(res.flat_leaf[0]), _nonzero(res.flat_counts[0])


def predict_flat(bank: FeatureBank, q, k: int) -> int:
    """Unconstrained leaf prediction: majority vote over the k nearest neighbors."""
    leaf, _ = flat_vote(bank, q, k)
    return leaf


def vote_margin(tally: dict[int, int], k: int) -> float:
    """(top count - runner-up count) / k; runner-up is 0 for a unanimous tally."""
    ranked = sorted(tally.values(), reverse=True)
    runner_up = ranked[1] if len(ranked) > 1 else 0
    return (ranked[0] - runner_up) / k
