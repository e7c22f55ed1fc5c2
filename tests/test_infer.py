"""Coarse-to-fine voting, its fallback path, and the flat baseline."""
from __future__ import annotations

import math

import numpy as np
import pytest

from hierknn import (
    FeatureBank,
    InferenceError,
    bank_build,
    classify_batch,
    load_taxonomy,
    predict_hierarchical,
    vote_margin,
)
from hierknn.infer import _vote
from conftest import (
    angled_bank,
    axis_query,
    bank_from_arrays,
    crossed_label_bank,
    unit_rows,
)


def consistent(tax, pred) -> bool:
    return tax.paths[pred.y3].tolist() == [pred.y1, pred.y2, pred.y3]


class TestVoteMode:
    """``infer._vote`` on one row: count, then summed similarity, then the lower label."""

    def test_strict_majority(self):
        assert _vote(np.array([[4, 4, 7]]), np.array([[0.5, 0.5, 0.9]]), 8)[0][0] == 4

    def test_count_tie_broken_by_similarity_sum(self):
        assert _vote(np.array([[4, 7]]), np.array([[0.9, 0.8]]), 8)[0][0] == 4
        assert _vote(np.array([[4, 7]]), np.array([[0.8, 0.9]]), 8)[0][0] == 7

    def test_full_tie_broken_by_lower_index(self):
        assert _vote(np.array([[7, 4]]), np.array([[0.5, 0.5]]), 8)[0][0] == 4


class TestVoteMargin:
    def test_unanimous_margin_is_one(self):
        assert vote_margin({3: 5}, 5) == 1.0

    def test_split_margin(self):
        assert vote_margin({3: 3, 9: 2}, 5) == pytest.approx(0.2)


class TestHierarchical:
    def test_unanimous_neighborhood(self, tax):
        """Five SNE neighbors give the full SNE path with no fallback."""
        bank = angled_bank(tax, ["SNE"] * 5)
        pred = predict_hierarchical(bank, axis_query(), 5, tax)
        assert pred.y3 == tax.index_of(3, "SNE")
        assert pred.y2 == tax.index_of(2, "mature_granulocytes")
        assert pred.y1 == tax.index_of(1, "Myeloid")
        assert pred.fallback_used == (False, False, False)

    def test_lineage_majority_restricts_lower_votes(self, tax):
        """3 SNE vs 2 LY: Myeloid wins level 1, so only SNE entries vote below."""
        bank = angled_bank(tax, ["SNE", "SNE", "SNE", "LY", "LY"])
        pred = predict_hierarchical(bank, axis_query(), 5, tax)
        assert pred.y1 == tax.index_of(1, "Myeloid")
        assert pred.y3 == tax.index_of(3, "SNE")

    def test_restricted_subset_wins_without_fallback(self, tax):
        """2 BL + 1 PMY in the neighborhood: the 2 BL entries carry level 2."""
        bank = angled_bank(tax, ["BL", "BL", "PMY", "BL", "BL", "BL"])
        pred = predict_hierarchical(bank, axis_query(), 3, tax)
        assert pred.y1 == tax.index_of(1, "Blast")
        assert pred.y2 == tax.index_of(2, "blast")
        assert pred.y3 == tax.index_of(3, "BL")
        assert pred.fallback_used == (False, False, False)

    def test_flat_and_hierarchical_can_disagree(self, tax):
        """3 BL against 4 spread Lymphoid leaves: flat keeps BL, levels differ."""
        bank = angled_bank(tax, ["BL", "BL", "BL", "LY", "VLY", "PLY", "PC"])
        q = axis_query()
        flat = classify_batch(bank, [q], 7, tax).flat_leaf[0]
        assert flat == tax.index_of(3, "BL")
        pred = predict_hierarchical(bank, q, 7, tax)
        assert pred.y1 == tax.index_of(1, "Lymphoid")
        assert consistent(tax, pred)

    def test_k_one_returns_nearest_path(self, tax):
        bank = angled_bank(tax, ["MO", "BL", "LY"])
        pred = predict_hierarchical(bank, axis_query(), 1, tax)
        assert [pred.y1, pred.y2, pred.y3] == tax.paths[tax.index_of(3, "MO")].tolist()
        assert classify_batch(bank, [axis_query()], 1, tax).flat_leaf[0] == tax.index_of(3, "MO")

    def test_tallies_count_the_neighborhood(self, tax):
        bank = angled_bank(tax, ["SNE", "SNE", "SNE", "LY", "LY"])
        pred = predict_hierarchical(bank, axis_query(), 5, tax)
        myeloid = tax.index_of(1, "Myeloid")
        lymphoid = tax.index_of(1, "Lymphoid")
        assert pred.tallies[0] == {myeloid: 3, lymphoid: 2}
        assert sum(pred.tallies[0].values()) <= 5

    def test_repeat_calls_identical(self, tax):
        rng = np.random.default_rng(0)
        bank = bank_from_arrays(tax, unit_rows(rng, 60, 6), list(rng.integers(0, 13, 60)))
        q = unit_rows(rng, 1, 6)[0]
        a = predict_hierarchical(bank, q, 9, tax)
        b = predict_hierarchical(bank, q, 9, tax)
        assert a == b

    def test_digest_mismatch_rejected(self, tax):
        other = load_taxonomy("[level1]\nA\n[level2]\nm -> A\n[level3]\nx -> m\ny -> m\n")
        bank = bank_build(
            [{"id": "a", "label": "x", "vector": [1.0, 0.0, 0.0, 0.0]}], other
        )
        with pytest.raises(InferenceError, match="different taxonomy"):
            predict_hierarchical(bank, axis_query(), 1, tax)


class TestFallback:
    def test_crossed_labels_trigger_fallback(self, tax):
        """Wrong-branch labels in the neighborhood force a filtered re-query."""
        rng = np.random.default_rng(17)
        bank = crossed_label_bank(tax, rng)
        q = bank.vectors[0].astype(np.float64)
        pred = predict_hierarchical(bank, q, 4, tax)
        assert pred.fallback_used[1]
        assert pred.y1 == tax.index_of(1, "Blast")
        assert consistent(tax, pred)

    def test_fallback_without_support_errors(self, tax):
        """No entry anywhere under the winning parent is a hard error."""
        rng = np.random.default_rng(18)
        near = unit_rows(rng, 4, 5)
        blast = tax.index_of(1, "Blast")
        labels = np.asarray(
            [[blast, tax.index_of(2, "monocytic"), tax.index_of(3, "MO")]] * 4,
            dtype=np.uint16,
        )
        bank = FeatureBank(5, ["a", "b", "c", "d"], labels, near, tax.digest)
        with pytest.raises(InferenceError, match="no bank entry"):
            predict_hierarchical(bank, near[0].astype(np.float64), 4, tax)

    def test_fuzzed_predictions_stay_consistent(self, tax):
        """Consistency holds on random banks and on engineered fallback banks."""
        rng = np.random.default_rng(515)
        fallbacks = 0
        for round_idx in range(30):
            if round_idx % 2 == 0:
                n = int(rng.integers(20, 80))
                bank = bank_from_arrays(
                    tax, unit_rows(rng, n, 6), list(rng.integers(0, 13, n))
                )
            else:
                bank = crossed_label_bank(tax, rng, n_near=int(rng.integers(3, 9)))
            for _ in range(20):
                k = int(rng.integers(1, 12))
                pred = predict_hierarchical(bank, unit_rows(rng, 1, 6)[0], k, tax)
                assert consistent(tax, pred)
                fallbacks += any(pred.fallback_used)
        assert fallbacks > 0


class TestFlat:
    def test_unanimous_leaf(self, tax):
        bank = angled_bank(tax, ["EO"] * 4)
        assert classify_batch(bank, [axis_query()], 4, tax).flat_leaf[0] == tax.index_of(3, "EO")

    def test_agrees_with_hierarchical_when_unanimous(self, tax):
        """Shared-leaf neighborhoods collapse both predictors to that leaf."""
        rng = np.random.default_rng(21)
        for _ in range(10):
            leaf = int(rng.integers(0, 13))
            n = int(rng.integers(3, 9))
            bank = bank_from_arrays(tax, unit_rows(rng, n, 5), [leaf] * n)
            q = unit_rows(rng, 1, 5)[0]
            assert classify_batch(bank, [q], n, tax).flat_leaf[0] == leaf
            assert predict_hierarchical(bank, q, n, tax).y3 == leaf

    def test_tally_totals_bounded_by_k(self, tax):
        rng = np.random.default_rng(22)
        bank = bank_from_arrays(tax, unit_rows(rng, 40, 5), list(rng.integers(0, 13, 40)))
        res = classify_batch(bank, unit_rows(rng, 1, 5), 7, tax)
        leaf, tally = res.flat_leaf[0], as_dict(res.flat_counts[0])
        assert sum(tally.values()) == 7
        assert tally[leaf] == max(tally.values())


def reference_walk(bank, q, k, tax):
    """Plain-Python coarse-to-fine walk, written from the documented rules.

    Similarities are exact fsum dot products; ranking is a full sort by
    (-similarity, index); a vote is won by count, then summed similarity
    (added in neighbor order), then the lower class index. A level whose
    neighbors hold no child of the parent re-queries the children's entries.
    """
    n = len(bank)
    labels = [tuple(int(x) for x in row) for row in bank.labels]
    sims = [math.fsum(float(a) * float(b) for a, b in zip(bank.vectors[i], q)) for i in range(n)]

    def nearest(rows):
        return sorted(rows, key=lambda i: (-sims[i], i))[:k]

    def vote(pairs):
        count, total = {}, {}
        for label, sim in pairs:
            count[label] = count.get(label, 0) + 1
            total[label] = total.get(label, 0.0) + sim
        return min(count, key=lambda c: (-count[c], -total[c], c)), count

    neighbors = nearest(range(n))
    flat = vote([(labels[i][2], sims[i]) for i in neighbors])
    y1, tally1 = vote([(labels[i][0], sims[i]) for i in neighbors])
    path, tallies, fallback = [y1], [tally1], [False, False, False]
    for level in (2, 3):
        kids = set(np.flatnonzero(tax.parents(level) == path[-1]).tolist())
        pairs = [(labels[i][level - 1], sims[i]) for i in neighbors
                 if labels[i][level - 1] in kids]
        if not pairs:
            rows = [i for i in range(n) if labels[i][level - 1] in kids]
            pairs = [(labels[i][level - 1], sims[i]) for i in nearest(rows)]
            fallback[level - 1] = True
        winner, tally = vote(pairs)
        path.append(winner)
        tallies.append(tally)
    return path, tallies, fallback, flat


def rounded(vectors: np.ndarray) -> np.ndarray:
    """Entries rounded to multiples of 1/8: every dot product is exact, and
    equal similarities (ties in ranking and in summed votes) are common."""
    return (np.round(vectors.astype(np.float64) * 8) / 8).astype(np.float32)


def as_dict(counts_row) -> dict[int, int]:
    return {int(c): int(counts_row[c]) for c in np.flatnonzero(counts_row)}


class TestClassifyBatch:
    def test_matches_reference_walk(self, tax):
        """Batched votes equal the plain-Python walk on tie-heavy fuzzed banks."""
        rng = np.random.default_rng(3003)
        checked = fallbacks = 0
        for case in range(36):
            dim = 6
            if case % 3 == 0:
                crossed = crossed_label_bank(tax, rng, n_near=int(rng.integers(3, 9)), dim=dim)
                bank = FeatureBank(dim, crossed.ids, crossed.labels,
                                   rounded(crossed.vectors), tax.digest)
            else:
                n = int(rng.integers(10, 90))
                vectors = rounded(unit_rows(rng, n, dim))
                dup = int(rng.integers(1, 6))
                vectors[n - dup:] = vectors[:dup]
                bank = bank_from_arrays(tax, vectors, list(rng.integers(0, 13, n)))
            queries = rounded(unit_rows(rng, 12, dim)).astype(np.float64)
            queries = queries[queries.any(axis=1)]
            k = (1, 2, 5, 7, 15, 35)[case % 6]
            res = classify_batch(bank, queries, k, tax)
            for i, q in enumerate(queries):
                path, tallies, fallback, (flat_leaf, flat_tally) = reference_walk(bank, q, k, tax)
                assert [res.y1[i], res.y2[i], res.y3[i]] == path, (case, i)
                assert res.fallback[i].tolist() == fallback
                assert [as_dict(c[i]) for c in res.counts] == tallies
                assert res.flat_leaf[i] == flat_leaf
                assert as_dict(res.flat_counts[i]) == flat_tally
                checked += 1
                fallbacks += any(fallback)
        assert checked > 300 and fallbacks > 0

    def test_edge_shapes_match_reference_walk(self, tax):
        """Empty and one-row blocks, and k from 1 to twice the bank, on tie-heavy banks."""
        rng = np.random.default_rng(3005)
        fallbacks = 0
        for case in range(12):
            if case % 2 == 0:
                crossed = crossed_label_bank(tax, rng, n_near=int(rng.integers(2, 7)))
                bank = FeatureBank(6, crossed.ids, crossed.labels,
                                   rounded(crossed.vectors), tax.digest)
            else:
                vectors = rounded(unit_rows(rng, int(rng.integers(2, 12)), 6))
                vectors[-1] = vectors[0]
                bank = bank_from_arrays(tax, vectors, list(rng.integers(0, 13, len(vectors))))
            queries = rounded(unit_rows(rng, 6, 6)).astype(np.float64)
            for k in (1, 3, len(bank), len(bank) + 1, 2 * len(bank)):
                empty = classify_batch(bank, queries[:0], k, tax)
                assert empty.flat_counts.shape == (0, tax.leaf_count)
                assert [c.shape for c in empty.counts] == [(0, n) for n in tax.sizes]
                for q in queries[queries.any(axis=1)]:
                    res = classify_batch(bank, q[None], k, tax)
                    path, tallies, fallback, flat = reference_walk(bank, q, k, tax)
                    assert [res.y1[0], res.y2[0], res.y3[0]] == path, (case, k)
                    assert res.fallback[0].tolist() == fallback
                    assert [as_dict(c[0]) for c in res.counts] == tallies
                    assert (res.flat_leaf[0], as_dict(res.flat_counts[0])) == flat
                    fallbacks += any(fallback)
        assert fallbacks > 0

    def test_out_of_range_label_rejected_anywhere_in_bank(self, tax):
        """A label beyond the tree is an error even on an entry no query retrieves."""
        bank = angled_bank(tax, ["SNE", "LY", "MO"])
        labels = bank.labels.copy()
        labels[2, 1] = tax.node_count(2)
        bad = FeatureBank(bank.dim, bank.ids, labels, bank.vectors, tax.digest)
        with pytest.raises(InferenceError, match="out of range for the taxonomy"):
            classify_batch(bad, [axis_query()], 1, tax)

    def test_one_row_wrappers_agree_with_batch(self, tax):
        rng = np.random.default_rng(3004)
        bank = crossed_label_bank(tax, rng, n_near=5)
        queries = unit_rows(rng, 20, 6).astype(np.float64)
        res = classify_batch(bank, queries, 4, tax)
        for i, q in enumerate(queries):
            pred = predict_hierarchical(bank, q, 4, tax)
            assert (pred.y1, pred.y2, pred.y3) == (res.y1[i], res.y2[i], res.y3[i])
            assert pred.fallback_used == tuple(res.fallback[i].tolist())
            assert pred.tallies == tuple(as_dict(c[i]) for c in res.counts)
            one = classify_batch(bank, [q], 4, tax)
            assert (one.flat_leaf[0], as_dict(one.flat_counts[0])) == (res.flat_leaf[i],
                                                                       as_dict(res.flat_counts[i]))

    def test_wrappers_reach_classify_batch(self, tax, monkeypatch):
        import hierknn.infer

        calls = []
        real = hierknn.infer.classify_batch
        monkeypatch.setattr(hierknn.infer, "classify_batch",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        bank = angled_bank(tax, ["SNE", "SNE", "LY"])
        predict_hierarchical(bank, axis_query(), 3, tax)
        assert len(calls) == 1

    def test_empty_query_block(self, tax):
        bank = angled_bank(tax, ["SNE", "LY"])
        res = classify_batch(bank, [], 2, tax)
        assert res.y3.shape == (0,) and res.fallback.shape == (0, 3)
        assert res.counts[2].shape == (0, tax.leaf_count)

    @pytest.mark.parametrize("bad", [[float("nan"), 0.0, 0.0, 0.0], [0.0] * 4,
                                     [float("inf"), 1.0, 0.0, 0.0]])
    def test_unusable_query_rejected(self, tax, bad):
        bank = angled_bank(tax, ["SNE", "LY"])
        with pytest.raises(InferenceError, match="query 1"):
            classify_batch(bank, [axis_query(), bad], 2, tax)
