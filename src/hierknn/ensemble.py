"""Majority-vote aggregation of leaf predictions from several member banks.

A member is a bank, typically built from a different train split or model
export. Each member classifies the queries independently
(:func:`member_outputs`) and reports a confidence margin from its own leaf
vote; the ensemble (:func:`combine_members`) takes the most frequent leaf,
breaking ties per the chosen policy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bank import FeatureBank
from .infer import BatchPrediction, _vote, classify_batch
from .metrics import confusion, macro_f1
from .taxonomy import Taxonomy

TIE_POLICIES = ("similarity-margin", "first-member")


def _outputs(res: BatchPrediction, k: int, flat: bool) -> tuple[np.ndarray, np.ndarray]:
    """Leaves and leaf-vote margins, (top count - runner-up count) / k, of a member's batch."""
    leaves, counts = (res.flat_leaf, res.flat_counts) if flat else (res.y3, res.counts[2])
    ranked = np.sort(counts, axis=1)
    runner_up = ranked[:, -2] if ranked.shape[1] > 1 else 0
    return leaves, (ranked[:, -1] - runner_up) / k


def member_outputs(
    bank: FeatureBank, queries, k: int, tax: Taxonomy, flat: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Run one member over query vectors: its per-query leaf and leaf-vote margin columns."""
    return _outputs(classify_batch(bank, queries, k, tax), k, flat)


def combine_members(leaves, margins, policy: str = "similarity-margin") -> list[int]:
    """Ensemble-vote each query across the members: the most frequent leaf.

    ``leaves`` and ``margins`` are (queries, members) arrays, column j
    holding member j's :func:`member_outputs`. ``similarity-margin`` breaks
    a count tie by the larger summed margin among the tied leaves, then by
    the earliest predicting member; ``first-member`` goes straight to the
    earliest predicting member. All queries are voted in one pass, in
    O(queries x members) memory, by the routine
    :func:`~hierknn.infer.classify_batch` votes with.
    """
    leaves, margins = np.asarray(leaves), np.asarray(margins, dtype=np.float64)
    if leaves.ndim != 2 or leaves.shape != margins.shape:
        raise ValueError(f"leaves {leaves.shape} and margins {margins.shape} are not "
                         "aligned (queries, members) arrays")
    n, n_members = leaves.shape
    if not n_members:
        raise ValueError("no members")
    if policy not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {policy!r}")
    # A stable sort of each row puts equal leaves in runs, in member order.
    # Each run is coded by its first member, so _vote's "lower code wins a
    # full tie" is "the earliest member wins", and a leaf's margins are
    # summed in member order, as a running tally adds them.
    order = np.argsort(leaves, axis=1, kind="stable")
    ranked = np.take_along_axis(leaves, order, axis=1)
    run_start = np.where(ranked != np.roll(ranked, 1, axis=1), np.arange(n_members), 0)
    codes = np.take_along_axis(order, np.maximum.accumulate(run_start, axis=1), axis=1)
    if policy == "first-member":
        margins = np.zeros(leaves.shape)
    winners, _ = _vote(codes, np.take_along_axis(margins, order, axis=1), n_members)
    return leaves[np.arange(n), winners].tolist()


@dataclass(frozen=True)
class AblationRow:
    members: int
    without_hierarchy_mf1: float
    with_hierarchy_mf1: float


def ablation_grid(
    banks: list[FeatureBank],
    query_vectors,
    truth_leaves,
    k: int,
    tax: Taxonomy,
    policy: str = "similarity-margin",
) -> list[AblationRow]:
    """Macro F1 for every ensemble size 1..len(banks), flat and hierarchical.

    Each bank classifies the queries once, giving both its flat and its
    hierarchical columns; size m votes the first m of them. Retrieval is
    paid once per bank, but the votes grow with the square of the bank
    count: size m votes (queries x m) arrays, for every m.
    """
    vectors = np.asarray(query_vectors, dtype=np.float64)
    # (mode, query, member): mode 0 is the flat vote, mode 1 the hierarchical
    leaves = np.empty((2, len(vectors), len(banks)), dtype=np.intp)
    margins = np.empty(leaves.shape)
    for j, bank in enumerate(banks):
        res = classify_batch(bank, vectors, k, tax)
        for mode in (0, 1):
            leaves[mode, :, j], margins[mode, :, j] = _outputs(res, k, flat=not mode)

    def mf1(mode: int, m: int) -> float:
        preds = combine_members(leaves[mode, :, :m], margins[mode, :, :m], policy)
        return macro_f1(confusion(truth_leaves, preds, tax.leaf_count))

    return [AblationRow(m, mf1(0, m), mf1(1, m)) for m in range(1, len(banks) + 1)]
