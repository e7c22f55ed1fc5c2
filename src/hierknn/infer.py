"""Coarse-to-fine prediction over a feature bank, plus a flat-kNN baseline.

Level 1 is decided by majority vote over the retrieved neighbors. Each finer
level votes only over neighbors whose label sits under the already-predicted
parent, which makes the output path valid by construction. If that
constrained subset of the neighborhood is empty (possible only when bank
entries carry parent-inconsistent label triples), the vote falls back to a
bank-wide retrieval restricted to the valid children, and the prediction
records that the fallback fired.

:func:`classify_batch` is the one entry point. It retrieves each query's
neighbors once, and :func:`_walk` tallies them once, over the nodes of all
three levels (``Taxonomy.edges``); every vote, the flat leaf included, picks
from that tally, so it always takes the taxonomy. :func:`predict_hierarchical`
is its one-row form.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bank import FeatureBank
from .errors import InferenceError
from .knn import search
from .taxonomy import Taxonomy


@dataclass(frozen=True)
class HierPrediction:
    """Voted labels per level, with the tallies and fallback flags behind them."""

    y1: int
    y2: int
    y3: int
    tallies: tuple[dict[int, int], dict[int, int], dict[int, int]]
    fallback_used: tuple[bool, bool, bool]


class BatchPrediction(NamedTuple):
    """Columns of :func:`classify_batch` for m queries.

    ``counts[level - 1]`` (m x C_level) is the tally behind ``y<level>``,
    over the fallback's neighbors where ``fallback[:, level - 1]`` is set.
    """

    flat_leaf: np.ndarray
    flat_counts: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    y3: np.ndarray
    fallback: np.ndarray
    counts: tuple[np.ndarray, np.ndarray, np.ndarray]


def _tally(labels: np.ndarray, sims: np.ndarray, edges):
    """Counts and summed similarities, (m, edges[-1]) each, of (m, k, L) labels.

    Label column l lands in the columns from ``edges[l]`` on, neighbor j of row i
    adding ``sims[i, j]``, summed in neighbor order as a running sum would, so
    near ties resolve exactly as a per-query loop does.
    """
    m, width = len(labels), int(edges[-1])
    bins = (labels + (np.arange(0, m * width, width)[:, None, None] + edges[:-1])).ravel()
    counts = np.bincount(bins, minlength=m * width).reshape(m, width)
    return counts, np.bincount(bins, np.repeat(sims, labels.shape[2]), m * width).reshape(m, width)


def _pick(counts: np.ndarray, simsum: np.ndarray):
    """Per row: the winner (top count, larger similarity sum, lower class), and the top count."""
    top = counts.max(axis=1, keepdims=True)
    return np.where(counts == top, simsum, -np.inf).argmax(axis=1), top


def _vote(labels: np.ndarray, sims: np.ndarray, n_classes: int):
    """Winner and (m, n_classes) counts per row of (m, k) labels in [0, n_classes)."""
    counts, simsum = _tally(labels[:, :, None], sims, (0, n_classes))
    return _pick(counts, simsum)[0], counts


def _nonzero(counts: np.ndarray) -> dict[int, int]:
    return {c: n for c, n in enumerate(counts.tolist()) if n}


def classify_batch(bank: FeatureBank, Q, k: int, tax: Taxonomy) -> BatchPrediction:
    """Classify the rows of ``Q`` (m x dim): one :func:`search`, then :func:`_walk`."""
    if bank.taxonomy_digest != tax.digest:
        raise InferenceError("bank was built against a different taxonomy (digest mismatch)")
    Q = np.asarray(Q, dtype=np.float64)
    if Q.shape == (0,):
        Q = Q.reshape(0, bank.dim)
    indices, sims = search(bank, Q, k)
    if (bank.label_max >= tax.sizes).any():
        raise InferenceError("bank label index out of range for the taxonomy")

    def requery(sel, level, node):
        rows = np.flatnonzero(tax.parents(level)[bank.labels[:, level - 1]] == node)
        if rows.size == 0:
            raise InferenceError(f"no bank entry under predicted level-{level - 1} "
                                 f"node {tax.name_of(level - 1, node)!r}")
        fb_indices, fb_sims = search(bank, Q[sel], k, rows)
        return bank.labels[fb_indices, level - 1], fb_sims

    return _walk(bank.labels[indices], sims, tax, requery)


def _walk(labels: np.ndarray, sims: np.ndarray, tax: Taxonomy, requery) -> BatchPrediction:
    """The flat leaf vote and the coarse-to-fine walk, over given neighbors.

    ``labels`` (m, k, 3) and ``sims`` (m, k) are each query's neighbors. The
    fallback reaches the bank only through ``requery(sel, level, node)``: the
    level labels and similarities of the nearest entries under ``node`` for
    the rows ``sel``.
    """
    e = tax.edges.tolist()
    counts, simsum = _tally(labels, sims, tax.edges)
    flat = _pick(counts[:, e[2]:], simsum[:, e[2]:])[0], counts[:, e[2]:]
    ys, tallies = [_pick(counts[:, :e[1]], simsum[:, :e[1]])[0]], [counts[:, :e[1]]]
    fallback = np.zeros((len(labels), 3), dtype=bool)
    for level in (2, 3):
        parent, block = tax.parents(level), np.s_[:, e[level - 1]:e[level]]
        # a neighbor votes here only for a child of the predicted parent
        c = np.where(parent == ys[-1][:, None], counts[block], 0)
        y, top = _pick(c, simsum[block])
        if not top.all():  # some rows have no neighbor under their parent
            lost = np.flatnonzero(top == 0)
            for node in dict.fromkeys(ys[-1][lost].tolist()):  # re-query its children's entries
                sel = lost[ys[-1][lost] == node]
                y[sel], c[sel] = _vote(*requery(sel, level, node), len(parent))
                fallback[sel, level - 1] = True
        ys.append(y)
        tallies.append(c)
    return BatchPrediction(*flat, *ys, fallback, tuple(tallies))


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
