"""Exact cosine-similarity top-k retrieval over a feature bank.

A full scan, not an approximate index: bank sizes this engine targets make
exactness cheap, and the deterministic tie rule (equal similarity resolves
to the lower entry index) keeps results reproducible across platforms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bank import FeatureBank

DEFAULT_K = 7


@dataclass(frozen=True)
class NeighborSet:
    """Top-k retrieval result; similarities descending, ties by ascending index."""

    entry_indices: tuple[int, ...]
    similarities: tuple[float, ...]
    k_requested: int

    def __len__(self) -> int:
        return len(self.entry_indices)


def cosine_similarity(a, b) -> float:
    """Dot product of two unit-norm vectors, accumulated in float64."""
    av = np.asarray(a)
    bv = np.asarray(b)
    if av.shape != bv.shape:
        raise ValueError(f"dim mismatch ({av.shape} vs {bv.shape})")
    return float(np.dot(av.astype(np.float64), bv.astype(np.float64)))


def _select(sims: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest ``sims``, descending, ties by ascending position.

    Equal to the first k of a full stable sort on ``-sims``: the partition
    finds the k-th value, every position at or above it is kept in index
    order, and only those are sorted stably.
    """
    neg = -sims
    if k >= neg.size:
        return np.argsort(neg, kind="stable")
    kth = np.partition(neg, k - 1)[k - 1]
    if np.isnan(kth):  # fewer than k comparable values: NaNs sort last
        return np.argsort(neg, kind="stable")[:k]
    keep = np.flatnonzero(neg <= kth)
    return keep[np.argsort(neg[keep], kind="stable")[:k]]


def retrieve(bank: FeatureBank, q, k: int, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Entry indices and similarities of the ``k`` entries most similar to ``q``.

    Similarities descend and ties go to the lower entry index. ``rows``, an
    ascending array of entry indices, restricts the scan to those entries.
    Fewer than ``k`` results come back when fewer entries are scanned.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(bank) == 0:
        raise ValueError("empty bank")
    qv = np.asarray(q)
    if qv.shape != (bank.dim,):
        raise ValueError(f"query shape {qv.shape} != ({bank.dim},)")
    vectors = bank.vectors64 if rows is None else bank.vectors64[rows]
    sims = vectors @ qv.astype(np.float64)
    order = _select(sims, k)
    return (order if rows is None else rows[order]), sims[order]


def top_k(bank: FeatureBank, q, k: int) -> NeighborSet:
    """The ``k`` bank entries most cosine-similar to ``q`` (all of them if k exceeds the bank)."""
    indices, sims = retrieve(bank, q, k)
    return NeighborSet(tuple(indices.tolist()), tuple(sims.tolist()), k)


def top_k_filtered(
    bank: FeatureBank, q, k: int, level: int, allowed
) -> NeighborSet:
    """Top-k among entries whose level-``level`` label is in ``allowed``.

    Returns an empty NeighborSet when no entry qualifies.
    """
    if level not in (1, 2, 3):
        raise ValueError(f"level must be 1, 2, or 3, got {level}")
    allowed_arr = np.asarray(sorted(set(int(a) for a in allowed)), dtype=np.int64)
    if allowed_arr.size == 0:
        raise ValueError("allowed node set is empty")
    rows = np.flatnonzero(np.isin(bank.labels[:, level - 1], allowed_arr))
    indices, sims = retrieve(bank, q, k, rows)
    return NeighborSet(tuple(indices.tolist()), tuple(sims.tolist()), k)
