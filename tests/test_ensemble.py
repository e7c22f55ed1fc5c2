"""Majority voting across member banks and the ensemble-size ablation grid."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from hierknn import (
    InferenceError,
    ablation_grid,
    classify_batch,
    combine_members,
    load_taxonomy,
    member_outputs,
    predict_hierarchical,
)
from hierknn.ensemble import TIE_POLICIES
from conftest import (
    all_cases,
    angled_bank,
    axis_query,
    bank_from_arrays,
    crossed_label_bank,
    margins_by_hand,
    unit_rows,
)


def random_outputs(rng, n_members: int, n_queries: int) -> tuple[np.ndarray, np.ndarray]:
    """(queries, members) leaf and margin columns."""
    return (rng.integers(0, 13, (n_queries, n_members)),
            rng.random((n_queries, n_members)))


def vote_one(member_preds, member_margins, policy: str = "similarity-margin") -> int:
    """One query's vote: a one-row column of each member, through ``combine_members``."""
    return combine_members(np.array([member_preds]), np.array([member_margins]), policy)[0]


class TestVote:
    def test_strict_majority(self, tax):
        bl, ly = tax.index_of(3, "BL"), tax.index_of(3, "LY")
        assert vote_one([bl, bl, ly], [0.2, 0.2, 0.9]) == bl

    def test_single_member_identity(self, tax):
        sne = tax.index_of(3, "SNE")
        assert vote_one([sne], [0.3]) == sne

    def test_count_tie_broken_by_margin(self, tax):
        bl, ly = tax.index_of(3, "BL"), tax.index_of(3, "LY")
        assert vote_one([bl, ly], [0.12, 0.30]) == ly
        assert vote_one([bl, ly], [0.30, 0.12]) == bl

    def test_full_tie_falls_to_lower_member_index(self):
        assert vote_one([9, 4], [0.5, 0.5]) == 9
        assert vote_one([4, 9], [0.5, 0.5]) == 4

    def test_first_member_policy(self):
        assert vote_one([9, 4], [0.1, 0.9], policy="first-member") == 9

    def test_hand_vote_table(self):
        """Three disagreeing members resolved case by case by hand."""
        cases = [
            (([5, 5, 2], [0.1, 0.1, 0.9]), 5),
            (([5, 2, 2], [0.9, 0.1, 0.1]), 2),
            (([1, 2, 3], [0.2, 0.5, 0.3]), 2),
            (([1, 2, 3], [0.2, 0.2, 0.2]), 1),
        ]
        for (preds, margins), want in cases:
            assert vote_one(preds, margins) == want

    def test_errors(self):
        with pytest.raises(ValueError, match="no members"):
            combine_members(np.empty((3, 0)), np.empty((3, 0)))
        with pytest.raises(ValueError, match="aligned"):
            combine_members(np.array([[1], [2]]), np.array([[0.5]]))
        with pytest.raises(ValueError, match="tie policy"):
            vote_one([1], [0.5], policy="coin-flip")


class TestCombine:
    def test_one_member_is_identity(self):
        rng = np.random.default_rng(0)
        leaves, margins = random_outputs(rng, 1, 30)
        assert combine_members(leaves, margins) == list(leaves[:, 0])

    def test_identical_members_equal_single(self):
        rng = np.random.default_rng(1)
        leaves, margins = random_outputs(rng, 1, 25)
        for copies in (2, 5, 7):
            assert combine_members(np.tile(leaves, copies), np.tile(margins, copies)) == \
                list(leaves[:, 0])

    def test_unanimous_members_keep_the_leaf(self):
        """Seven members agreeing on every query cannot be outvoted."""
        rng = np.random.default_rng(2)
        leaves = rng.integers(0, 13, 20)
        assert combine_members(np.tile(leaves[:, None], 7), rng.random((20, 7))) == list(leaves)

    def test_permutation_robustness(self):
        """Member order does not change winners when margins are generic."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            leaves, margins = random_outputs(rng, int(rng.integers(2, 8)), 12)
            base = combine_members(leaves, margins)
            perm = rng.permutation(leaves.shape[1])
            assert combine_members(leaves[:, perm], margins[:, perm]) == base

    def test_adding_an_agreeing_member_never_flips(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            leaves, margins = random_outputs(rng, int(rng.integers(1, 6)), 10)
            base = combine_members(leaves, margins)
            assert combine_members(np.column_stack([leaves, base]),
                                   np.column_stack([margins, rng.random(10)])) == base

    @staticmethod
    def reference_vote(preds, margins, policy):
        """Per-query vote as running tallies over the members, in order."""
        counts, margin_sum, first = {}, {}, {}
        for i, (leaf, margin) in enumerate(zip(preds, margins)):
            counts[leaf] = counts.get(leaf, 0) + 1
            margin_sum[leaf] = margin_sum.get(leaf, 0.0) + margin
            first.setdefault(leaf, i)
        if policy == "similarity-margin":
            return min(counts, key=lambda leaf: (-counts[leaf], -margin_sum[leaf], first[leaf]))
        return min(counts, key=lambda leaf: (-counts[leaf], first[leaf]))

    @pytest.mark.parametrize("policy", ["similarity-margin", "first-member"])
    def test_matches_running_tally_reference(self, policy):
        """Heavy count ties, margins in k-fractions whose sums depend on the
        order they are added in, and sparse or negative leaf values."""
        rng = np.random.default_rng(31)
        for _ in range(300):
            n, n_members = int(rng.integers(0, 25)), int(rng.integers(1, 10))
            values = rng.choice([0, 1, 2, 5, 12, -3, 10**6], size=int(rng.integers(1, 5)),
                                replace=False)
            leaves = rng.choice(values, size=(n_members, n))
            k = int(rng.choice([3, 7, 10, 35]))
            margins = rng.integers(0, k + 1, size=(n_members, n)) / k
            want = [self.reference_vote(leaves[:, j].tolist(), margins[:, j].tolist(), policy)
                    for j in range(n)]
            assert combine_members(leaves.T, margins.T, policy) == want
            for j in range(min(n, 3)):
                assert vote_one(leaves[:, j], margins[:, j], policy) == want[j]

    @pytest.mark.gate
    @pytest.mark.parametrize("policy", TIE_POLICIES)
    @pytest.mark.parametrize("n_members", [1, 2, 3])
    def test_every_small_member_vote(self, policy, n_members):
        """Every leaf assignment of the members over 8 leaves, times every weak
        order of their margins (dyadic, with 0, so sums are exact and tie)."""
        leaves, margins = all_cases(8, n_members, (0.5, 0.25, 0.0))
        want = [self.reference_vote(l, m, policy)
                for l, m in zip(leaves.tolist(), margins.tolist())]
        assert combine_members(leaves, margins, policy) == want

    def test_unknown_policy_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="tie policy"):
            combine_members(*random_outputs(rng, 2, 4), policy="coin-flip")

    def test_mismatched_query_counts_rejected(self):
        rng = np.random.default_rng(5)
        leaves, _ = random_outputs(rng, 2, 10)
        _, margins = random_outputs(rng, 2, 11)
        with pytest.raises(ValueError, match=r"\(10, 2\) and margins \(11, 2\) are not aligned"):
            combine_members(leaves, margins)

    def test_misaligned_member_columns_rejected(self):
        """Leaves and margins must be (queries, members) arrays of one shape."""
        rng = np.random.default_rng(7)
        for leaf_shape, margin_shape in (((3, 2), (3, 1)), ((0, 1), (1, 1)), ((5,), (5,)),
                                         ((2, 2, 1), (2, 2, 1))):
            with pytest.raises(ValueError, match=rf"leaves \({', '.join(map(str, leaf_shape))}"):
                combine_members(rng.integers(0, 13, leaf_shape), rng.random(margin_shape))

    @pytest.mark.gate
    @pytest.mark.parametrize("policy", TIE_POLICIES)
    def test_thousand_members_vote_in_bounded_memory(self, policy):
        """1,000 members over the stock 389 queries: the vote's peak stays far
        below a (queries x members x members) temporary's 389 MB, and it still
        equals the running tally."""
        rng = np.random.default_rng(32)
        leaves = rng.choice([0, 3, 12, -3, 10**6], size=(389, 1000))
        margins = rng.integers(0, 36, size=leaves.shape) / 35
        tracemalloc.start()
        try:
            preds = combine_members(leaves, margins, policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert preds[:20] == [self.reference_vote(l, m, policy) for l, m in
                              zip(leaves[:20].tolist(), margins[:20].tolist())]


class TestMemberOutputs:
    def test_margins_and_leaves_match_direct_prediction(self, tax):
        rng = np.random.default_rng(6)
        bank = bank_from_arrays(tax, unit_rows(rng, 50, 6), list(rng.integers(0, 13, 50)))
        queries = [unit_rows(rng, 1, 6)[0] for _ in range(8)]
        leaves, margins = member_outputs(bank, queries, 5, tax)
        for q, leaf in zip(queries, leaves):
            assert leaf == predict_hierarchical(bank, q, 5, tax).y3
        flat_leaves, _ = member_outputs(bank, queries, 5, tax, flat=True)
        for q, leaf in zip(queries, flat_leaves):
            assert leaf == classify_batch(bank, [q], 5, tax).flat_leaf[0]
        assert all(0.0 <= m <= 1.0 for m in margins)


class TestMemberChecks:
    def test_bank_for_another_tree_rejected_in_both_modes(self, tax):
        """The flat vote runs without the tree, yet still checks the bank's digest."""
        other = load_taxonomy("[level1]\nA\n[level2]\nm -> A\n[level3]\nx -> m\ny -> m\n")
        rng = np.random.default_rng(9)
        bank = bank_from_arrays(other, unit_rows(rng, 3, 5), [0, 1, 0])
        for flat in (False, True):
            with pytest.raises(InferenceError, match="digest mismatch"):
                member_outputs(bank, unit_rows(rng, 3, 5), 1, tax, flat)


class TestMemberEnsemble:
    """An ensemble as the ``ensemble`` command runs it: one ``member_outputs``
    per bank, then ``combine_members``."""

    def test_single_member_matches_direct_calls(self, tax):
        rng = np.random.default_rng(10)
        bank = bank_from_arrays(tax, unit_rows(rng, 60, 6), list(rng.integers(0, 13, 60)))
        queries = unit_rows(rng, 12, 6).astype(np.float64)
        leaves, margins = member_outputs(bank, queries, 5, tax)
        preds = combine_members(leaves[:, None], margins[:, None])
        assert preds == [predict_hierarchical(bank, q, 5, tax).y3 for q in queries]

    def test_identical_members_match_single(self, tax):
        rng = np.random.default_rng(11)
        bank = bank_from_arrays(tax, unit_rows(rng, 60, 6), list(rng.integers(0, 13, 60)))
        queries = unit_rows(rng, 10, 6).astype(np.float64)
        for flat in (False, True):
            leaves, margins = (c[:, None] for c in member_outputs(bank, queries, 7, tax, flat))
            assert combine_members(np.tile(leaves, 3), np.tile(margins, 3)) == \
                combine_members(leaves, margins)


class TestAblationGrid:
    def test_grid_shape_and_prefix_semantics(self, tax):
        """Row m scores the first m members; the members column counts up."""
        rng = np.random.default_rng(12)
        banks = [
            bank_from_arrays(tax, unit_rows(rng, 40, 6), list(rng.integers(0, 13, 40)))
            for _ in range(3)
        ]
        queries = [unit_rows(rng, 1, 6)[0] for _ in range(15)]
        truth = list(rng.integers(0, 13, 15))
        rows = ablation_grid(banks, queries, truth, 5, tax)
        assert [r.members for r in rows] == [1, 2, 3]
        assert all(0.0 <= r.without_hierarchy_mf1 <= 1.0 for r in rows)
        assert all(0.0 <= r.with_hierarchy_mf1 <= 1.0 for r in rows)
        first_again = ablation_grid(banks[:1], queries, truth, 5, tax)
        assert rows[0] == first_again[0]

    def test_perfect_member_scores_one(self, tax):
        """A bank equal to the labeled queries retrieves itself perfectly."""
        rng = np.random.default_rng(13)
        vecs = unit_rows(rng, 26, 8)
        truth = [i % 13 for i in range(26)]
        bank = bank_from_arrays(tax, vecs, truth)
        rows = ablation_grid([bank], [v.astype(np.float64) for v in vecs], truth, 1, tax)
        assert rows[0].without_hierarchy_mf1 == 1.0
        assert rows[0].with_hierarchy_mf1 == 1.0


class TestSharedInference:
    def test_one_member_ensemble_equals_classify_on_float64_near_tie(self, tax):
        """A query that ties two entries only after rounding to float32 is
        still decided in float64, exactly as classify decides it."""
        bl, ly = tax.index_of(3, "BL"), tax.index_of(3, "LY")
        bank = bank_from_arrays(tax, np.eye(2, dtype=np.float32), [bl, ly])
        q = np.array([0.5, 0.5 + 1e-12])
        q /= np.linalg.norm(q)
        assert q.astype(np.float32)[0] == q.astype(np.float32)[1]
        assert predict_hierarchical(bank, q, 1, tax).y3 == ly
        assert classify_batch(bank, [q], 1, tax).flat_leaf[0] == ly
        for flat in (False, True):
            leaves, margins = member_outputs(bank, q[None], 1, tax, flat)
            assert combine_members(leaves[:, None], margins[:, None]) == [ly]

    def test_margins_match_vote_margin(self, tax):
        """Both member modes' margins are the vote margin, (top count -
        runner-up count) / k of the leaf tally each mode voted with."""
        rng = np.random.default_rng(14)
        bank = bank_from_arrays(tax, unit_rows(rng, 70, 6), list(rng.integers(0, 13, 70)))
        margins = margins_by_hand(bank, unit_rows(rng, 20, 6), 9, tax)
        assert len(margins[True]) == len(margins[False]) == 20

    def test_ablation_retrieves_each_pair_once(self, tax, monkeypatch):
        """One kernel query row per (bank, query), plus one per fallback re-query."""
        import hierknn.infer

        calls = []
        real = hierknn.infer.search
        monkeypatch.setattr(hierknn.infer, "search",
                            lambda bank, Q, *a: calls.extend(Q) or real(bank, Q, *a))
        rng = np.random.default_rng(15)
        banks = [crossed_label_bank(tax, rng, n_near=6) for _ in range(2)]
        banks.append(bank_from_arrays(tax, unit_rows(rng, 50, 6), list(rng.integers(0, 13, 50))))
        queries = unit_rows(rng, 25, 6).astype(np.float64)
        fallbacks = sum(int(classify_batch(b, queries, 4, tax).fallback.sum()) for b in banks)
        assert fallbacks > 0
        calls.clear()
        ablation_grid(banks, queries, list(rng.integers(0, 13, 25)), 4, tax)
        assert len(calls) == len(banks) * len(queries) + fallbacks
