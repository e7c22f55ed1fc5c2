"""Majority voting across member banks and the ensemble-size ablation grid."""
from __future__ import annotations

import numpy as np
import pytest

from hierknn import (
    EnsembleConfig,
    FeatureBank,
    InferenceError,
    QuerySet,
    ablation_grid,
    classify_batch,
    combine_members,
    load_taxonomy,
    member_outputs,
    predict_hierarchical,
    run_ensemble,
    vote_margin,
)
from hierknn.ensemble import MemberOutputs
from conftest import bank_from_arrays, crossed_label_bank, unit_rows


def random_outputs(rng, n_members: int, n_queries: int) -> list[MemberOutputs]:
    return [
        MemberOutputs(rng.integers(0, 13, n_queries), rng.random(n_queries))
        for _ in range(n_members)
    ]


def vote_one(member_preds, member_margins, policy: str = "similarity-margin") -> int:
    """One query's vote: each member a one-query ``MemberOutputs``, through ``combine_members``."""
    members = [MemberOutputs(np.array([p]), np.array([m]))
               for p, m in zip(member_preds, member_margins)]
    return combine_members(members, policy)[0]


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
            combine_members([])
        with pytest.raises(ValueError, match="aligned"):
            MemberOutputs(np.array([1, 2]), np.array([0.5]))
        with pytest.raises(ValueError, match="tie policy"):
            vote_one([1], [0.5], policy="coin-flip")


class TestCombine:
    def test_one_member_is_identity(self):
        rng = np.random.default_rng(0)
        (m,) = random_outputs(rng, 1, 30)
        assert combine_members([m]) == list(m.leaves)

    def test_identical_members_equal_single(self):
        rng = np.random.default_rng(1)
        (m,) = random_outputs(rng, 1, 25)
        for copies in (2, 5, 7):
            assert combine_members([m] * copies) == list(m.leaves)

    def test_unanimous_members_keep_the_leaf(self):
        """Seven members agreeing on every query cannot be outvoted."""
        rng = np.random.default_rng(2)
        leaves = rng.integers(0, 13, 20)
        members = [MemberOutputs(leaves, rng.random(20)) for _ in range(7)]
        assert combine_members(members) == list(leaves)

    def test_permutation_robustness(self):
        """Member order does not change winners when margins are generic."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            members = random_outputs(rng, int(rng.integers(2, 8)), 12)
            base = combine_members(members)
            perm = list(rng.permutation(len(members)))
            assert combine_members([members[i] for i in perm]) == base

    def test_adding_an_agreeing_member_never_flips(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            members = random_outputs(rng, int(rng.integers(1, 6)), 10)
            base = combine_members(members)
            extra = MemberOutputs(np.array(base), rng.random(10))
            assert combine_members(members + [extra]) == base

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
            members = [MemberOutputs(l, m) for l, m in zip(leaves, margins)]
            want = [self.reference_vote(leaves[:, j].tolist(), margins[:, j].tolist(), policy)
                    for j in range(n)]
            assert combine_members(members, policy) == want
            for j in range(min(n, 3)):
                assert vote_one(leaves[:, j], margins[:, j], policy) == want[j]

    def test_unknown_policy_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="tie policy"):
            combine_members(random_outputs(rng, 2, 4), policy="coin-flip")

    def test_mismatched_query_counts_rejected(self):
        rng = np.random.default_rng(5)
        a = random_outputs(rng, 1, 10)[0]
        b = random_outputs(rng, 1, 11)[0]
        with pytest.raises(ValueError, match="query counts"):
            combine_members([a, b])

    def test_misaligned_member_columns_rejected(self):
        """A member's leaf and margin columns must cover the same queries."""
        rng = np.random.default_rng(7)
        for n_leaves, n_margins in ((3, 2), (0, 1), (5, 9)):
            with pytest.raises(ValueError, match=rf"not aligned \({n_leaves} vs {n_margins} "):
                MemberOutputs(rng.integers(0, 13, n_leaves), rng.random(n_margins))


class TestMemberOutputs:
    def test_margins_and_leaves_match_direct_prediction(self, tax):
        rng = np.random.default_rng(6)
        bank = bank_from_arrays(tax, unit_rows(rng, 50, 6), list(rng.integers(0, 13, 50)))
        queries = [unit_rows(rng, 1, 6)[0] for _ in range(8)]
        out = member_outputs(bank, queries, 5, tax)
        for q, leaf in zip(queries, out.leaves):
            assert leaf == predict_hierarchical(bank, q, 5, tax).y3
        flat = member_outputs(bank, queries, 5, tax, flat=True)
        for q, leaf in zip(queries, flat.leaves):
            assert leaf == classify_batch(bank, [q], 5).flat_leaf[0]
        assert all(0.0 <= m <= 1.0 for m in out.margins)


class TestConfig:
    def test_validation(self, tax):
        rng = np.random.default_rng(7)
        bank = bank_from_arrays(tax, unit_rows(rng, 4, 5), [0, 1, 2, 3])
        with pytest.raises(ValueError, match="at least one member"):
            EnsembleConfig(())
        with pytest.raises(ValueError, match="k must be"):
            EnsembleConfig((bank,), k=0)
        with pytest.raises(ValueError, match="tie policy"):
            EnsembleConfig((bank,), tie_policy="random")
        with pytest.raises(InferenceError, match="empty member bank"):
            EnsembleConfig((bank, FeatureBank.empty(5, tax.digest)))

    def test_member_dim_mismatch_rejected(self, tax):
        rng = np.random.default_rng(8)
        a = bank_from_arrays(tax, unit_rows(rng, 3, 5), [0, 1, 2])
        b = bank_from_arrays(tax, unit_rows(rng, 3, 6), [0, 1, 2])
        with pytest.raises(InferenceError, match="dim mismatch"):
            EnsembleConfig((a, b))

    def test_member_digest_mismatch_rejected(self, tax):
        other = load_taxonomy("[level1]\nA\n[level2]\nm -> A\n[level3]\nx -> m\ny -> m\n")
        rng = np.random.default_rng(9)
        a = bank_from_arrays(tax, unit_rows(rng, 3, 5), [0, 1, 2])
        b = bank_from_arrays(other, unit_rows(rng, 3, 5), [0, 1, 0])
        with pytest.raises(InferenceError, match="taxonomy digest"):
            EnsembleConfig((a, b))


class TestRunEnsemble:
    def queries(self, rng, n, dim):
        vectors = [unit_rows(rng, 1, dim)[0] for _ in range(n)]
        return QuerySet([f"q{i}" for i in range(n)], np.asarray(vectors, dtype=np.float64))

    def test_single_member_matches_direct_calls(self, tax):
        rng = np.random.default_rng(10)
        bank = bank_from_arrays(tax, unit_rows(rng, 60, 6), list(rng.integers(0, 13, 60)))
        queries = self.queries(rng, 12, 6)
        preds = run_ensemble(EnsembleConfig((bank,), k=5), queries, tax)
        assert tuple(qid for qid, _ in preds) == queries.ids
        for q, (_, leaf) in zip(queries.vectors, preds):
            assert leaf == predict_hierarchical(bank, q, 5, tax).y3

    def test_identical_members_match_single(self, tax):
        rng = np.random.default_rng(11)
        bank = bank_from_arrays(tax, unit_rows(rng, 60, 6), list(rng.integers(0, 13, 60)))
        queries = self.queries(rng, 10, 6)
        one = run_ensemble(EnsembleConfig((bank,), k=7), queries, tax)
        three = run_ensemble(EnsembleConfig((bank,) * 3, k=7), queries, tax)
        assert one == three


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
        assert classify_batch(bank, [q], 1).flat_leaf[0] == ly
        queries = QuerySet(["near-tie"], q[None])
        for flat in (False, True):
            got = run_ensemble(EnsembleConfig((bank,), k=1), queries, tax, flat=flat)
            assert got == [("near-tie", ly)]

    def test_margins_match_vote_margin(self, tax):
        rng = np.random.default_rng(14)
        bank = bank_from_arrays(tax, unit_rows(rng, 70, 6), list(rng.integers(0, 13, 70)))
        queries = [unit_rows(rng, 1, 6)[0] for _ in range(20)]
        hier = member_outputs(bank, queries, 9, tax)
        flat = member_outputs(bank, queries, 9, tax, flat=True)
        for q, hm, fm in zip(queries, hier.margins, flat.margins):
            assert hm == vote_margin(predict_hierarchical(bank, q, 9, tax).tallies[2], 9)
            flat_counts = classify_batch(bank, [q], 9).flat_counts[0]
            assert fm == vote_margin({c: n for c, n in enumerate(flat_counts.tolist()) if n}, 9)

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
