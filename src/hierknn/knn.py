"""Exact cosine-similarity top-k retrieval over a feature bank.

An exact search, not an approximate index, built like FAISS's exact flat
index (Johnson, Douze and Jegou, arXiv:1702.08734): a blocked f32 GEMM
shortlists each query's candidates, then an f64 rescore ranks them. Bank
sizes this engine targets make exactness cheap, and the deterministic tie
rule (equal similarity resolves to the lower entry index) keeps results
reproducible across platforms and BLAS thread counts.
"""
from __future__ import annotations

import numpy as np

from .bank import FeatureBank
from .errors import InferenceError

DEFAULT_K = 7

_EPS32 = 2.0 ** -24  # unit roundoff of float32
_QUERY_BLOCK = 32  # queries per f32 GEMM: enough to repay its packing of the bank
_SCORE_BYTES = 1 << 22  # cap on one GEMM's (queries x rows) f32 score block


def _select(sims: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest ``sims``, descending, ties by ascending position."""
    return np.argsort(-sims, kind="stable")[:k]


def _slack(bank: FeatureBank) -> float:
    """Bound on |f32 shortlist score - exact score| of any row, for a unit query.

    Rounding the unit query to f32 moves a score by at most 2^-24 |u||b|;
    an f32 dot of length d, summed in any order, errs by at most
    gamma_d |u||b| with gamma_d = d 2^-24 / (1 - d 2^-24) (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., section 3.1). Together
    that is below (d + 1) 2^-24 / (1 - d 2^-24) |b|. The extra 2^-24 |b|
    covers the f64 normalization and rescore, and the absolute term the f32
    products that underflow. A bank whose rows could overflow f32 gets no
    finite bound: every row is then rescored.
    """
    if not bank.max_norm < 2.0 ** 127:
        return np.inf
    d = bank.dim
    return (d + 2) * _EPS32 / (1 - d * _EPS32) * bank.max_norm + d * 2.0 ** -148


def search(bank: FeatureBank, Q, k: int, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Entry indices and similarities of the ``k`` entries nearest each row of ``Q``.

    ``Q`` is an (m, dim) query block; both results are (m, min(k, scanned)),
    similarities descending, ties to the lower entry index. ``rows``, an
    ascending array of entry indices, restricts the scan to those entries
    for every query. A similarity is the f64 dot product of the query, as
    given, with the entry.

    The block's rows are normalized in f64 and scored against the bank in
    one f32 GEMM per block of queries. Every entry whose f32 score is within
    twice :func:`_slack` of the k-th best is rescored in f64 as an
    elementwise product and a row sum, an order that does not depend on the
    entry's position, so equal entries get equal similarities; the k best
    are then chosen from the shortlist alone. The shortlist holds every
    entry of the exact top k, so the result equals a full f64 scan's.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[1] != bank.dim:
        raise ValueError(f"query block shape {Q.shape} != (m, {bank.dim})")
    if len(bank) == 0 and len(Q):
        raise ValueError("empty bank")
    peak = np.abs(Q).max(axis=1, keepdims=True)
    usable = (peak > 0) & (peak < np.inf)  # NaN fails both
    if not usable.all():
        raise InferenceError(f"query {int(np.argmin(usable))}: vector is non-finite or all zero")
    vectors = bank.vectors if rows is None else bank.vectors[rows]
    n = len(vectors)
    indices = np.empty((len(Q), min(k, n)), dtype=np.intp)
    sims = np.empty(indices.shape)
    if n == 0:
        return indices, sims
    unit = Q / peak  # scaled first, so its norm can neither overflow nor underflow
    unit = (unit / np.sqrt(np.einsum("ij,ij->i", unit, unit))[:, None]).astype(np.float32)
    slack = 2 * _slack(bank)
    kth = n - indices.shape[1]  # ascending position of the k-th best score
    step = max(1, min(_QUERY_BLOCK, _SCORE_BYTES // (4 * n)))
    for lo in range(0, len(Q), step):
        for i, row in enumerate(unit[lo:lo + step] @ vectors.T, lo):
            floor = np.partition(row, kth)[kth] - slack
            short = np.flatnonzero(~(row < floor))  # NaN keeps every row
            exact = np.add.reduce(vectors.take(short, axis=0) * Q[i], axis=1)  # f32 * f64 is f64
            order = _select(exact, k)
            indices[i], sims[i] = short[order], exact[order]
    return (indices if rows is None else rows[indices]), sims

