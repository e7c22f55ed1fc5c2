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


@dataclass(frozen=True, eq=False)
class MemberOutputs:
    """One member's per-query leaf and margin columns, reusable across ensemble sizes."""

    leaves: np.ndarray
    margins: np.ndarray

    def __post_init__(self):
        if len(self.leaves) != len(self.margins):
            raise ValueError(f"leaves and margins are not aligned "
                             f"({len(self.leaves)} vs {len(self.margins)} queries)")


def _outputs(res: BatchPrediction, k: int, flat: bool) -> MemberOutputs:
    """Leaves and leaf-vote margins, (top count - runner-up count) / k, of a member's batch."""
    leaves, counts = (res.flat_leaf, res.flat_counts) if flat else (res.y3, res.counts[2])
    ranked = np.sort(counts, axis=1)
    runner_up = ranked[:, -2] if ranked.shape[1] > 1 else 0
    margins = (ranked[:, -1] - runner_up) / k
    return MemberOutputs(leaves, margins)


def member_outputs(
    bank: FeatureBank, queries, k: int, tax: Taxonomy, flat: bool = False
) -> MemberOutputs:
    """Run one member over query vectors; margin is the member's own leaf-vote margin."""
    return _outputs(classify_batch(bank, queries, k, tax), k, flat)


def combine_members(members: list[MemberOutputs], policy: str = "similarity-margin") -> list[int]:
    """Ensemble-vote each query across the given members: the most frequent leaf.

    ``similarity-margin`` breaks a count tie by the larger summed margin
    among the tied leaves, then by the earliest predicting member;
    ``first-member`` goes straight to the earliest predicting member. All
    queries are voted in one pass over (queries, members) arrays, by the
    routine :func:`~hierknn.infer.classify_batch` votes with.
    """
    if not members:
        raise ValueError("no members")
    n = len(members[0].leaves)
    if any(len(m.leaves) != n for m in members):
        raise ValueError("members scored different query counts")
    if policy not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {policy!r}")
    leaves = np.stack([m.leaves for m in members], axis=1)
    # each member's leaf is coded by the first member that voted for it, so
    # _vote's "lower code wins a full tie" is "the earliest member wins"
    codes = (leaves[:, :, None] == leaves[:, None, :]).argmax(axis=2)
    if policy == "similarity-margin":
        margins = np.stack([m.margins for m in members], axis=1)
    else:
        margins = np.zeros(leaves.shape)
    winners, _ = _vote(codes, margins, len(members))
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
    hierarchical outputs, which are reused across sizes; so the grid costs
    the same as scoring each member once.
    """
    vectors = np.asarray(query_vectors, dtype=np.float64)
    flat_members, hier_members = [], []
    for bank in banks:
        res = classify_batch(bank, vectors, k, tax)
        flat_members.append(_outputs(res, k, flat=True))
        hier_members.append(_outputs(res, k, flat=False))

    def mf1(members: list[MemberOutputs]) -> float:
        preds = combine_members(members, policy)
        return macro_f1(confusion(truth_leaves, preds, tax.leaf_count))

    return [
        AblationRow(m, mf1(flat_members[:m]), mf1(hier_members[:m]))
        for m in range(1, len(banks) + 1)
    ]
