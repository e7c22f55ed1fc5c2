"""Coarse-to-fine voting, its fallback path, and the flat baseline."""
from __future__ import annotations

import itertools
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
)
from hierknn.infer import _vote, _walk
from conftest import (
    all_cases,
    angled_bank,
    axis_query,
    bank_from_arrays,
    crossed_label_bank,
    margins_by_hand,
    unit_rows,
    weak_orders,
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
    """A member's margin, (top count - runner-up count) / k, in both modes."""

    def test_unanimous_margin_is_one(self, tax):
        bank = angled_bank(tax, ["SNE"] * 5)
        assert margins_by_hand(bank, [axis_query()], 5, tax) == {True: [1.0], False: [1.0]}

    def test_split_margin(self, tax):
        bank = angled_bank(tax, ["SNE", "BNE", "SNE", "BNE", "SNE"])
        assert margins_by_hand(bank, [axis_query()], 5, tax) == {True: [0.2], False: [0.2]}


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
    """Plain-Python retrieval, then :func:`reference_vote_walk` over the neighbors.

    Similarities are exact fsum dot products; ranking is a full sort by
    (-similarity, index), for the query's neighbors and for a re-query
    restricted to the entries under a node.
    """
    n = len(bank)
    labels = [tuple(int(x) for x in row) for row in bank.labels]
    sims = [math.fsum(float(a) * float(b) for a, b in zip(bank.vectors[i], q)) for i in range(n)]

    def nearest(rows):
        return sorted(rows, key=lambda i: (-sims[i], i))[:k]

    def requery(level, node):
        kids = set(np.flatnonzero(tax.parents(level) == node).tolist())
        rows = nearest(i for i in range(n) if labels[i][level - 1] in kids)
        return [labels[i][level - 1] for i in rows], [sims[i] for i in rows]

    neighbors = nearest(range(n))
    return reference_vote_walk([labels[i] for i in neighbors], [sims[i] for i in neighbors],
                               tax, requery)


def reference_vote_walk(labels, sims, tax, requery):
    """Plain-Python coarse-to-fine walk over one query's given neighbors.

    Written from the documented rules: ``labels`` are the neighbors' label
    triples and ``sims`` their similarities. A vote is won by count, then
    summed similarity (added in neighbor order), then the lower class index.
    A level whose neighbors hold no child of the parent votes instead over
    the labels and similarities ``requery(level, parent)`` returns.
    """
    def vote(pairs):
        count, total = {}, {}
        for label, sim in pairs:
            count[label] = count.get(label, 0) + 1
            total[label] = total.get(label, 0.0) + sim
        return min(count, key=lambda c: (-count[c], -total[c], c)), count

    flat = vote([(triple[2], sim) for triple, sim in zip(labels, sims)])
    y1, tally1 = vote([(triple[0], sim) for triple, sim in zip(labels, sims)])
    path, tallies, fallback = [y1], [tally1], [False, False, False]
    for level in (2, 3):
        kids = set(np.flatnonzero(tax.parents(level) == path[-1]).tolist())
        pairs = [(triple[level - 1], sim) for triple, sim in zip(labels, sims)
                 if triple[level - 1] in kids]
        if not pairs:
            pairs = list(zip(*requery(level, path[-1])))
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
    @pytest.mark.gate
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


SMALL_TREE = """
[level1]
A
B
[level2]
a0 -> A
a1 -> A
b0 -> B
b1 -> B
[level3]
x0 -> a0
x1 -> a0
y0 -> a1
y1 -> a1
z0 -> b0
z1 -> b0
w0 -> b1
w1 -> b1
"""

# dyadic, so every sum is exact; a negative one makes a masked-out sum of 0 win
SMALL_SIMS = (0.5, 0.25, -0.25)


@pytest.mark.gate
class TestSmallScope:
    """Every small case of the walk against :func:`reference_vote_walk`.

    On a tree of 2 lineages x 2 groups x 2 leaves: every neighbor list of up
    to 3 leaves times every weak order of their similarities, and every list
    of up to 2 arbitrary label triples (so the fallback fires).
    ``TestCombine.test_every_small_member_vote`` does the same for the
    ensemble vote.
    """

    @pytest.fixture(scope="class")
    def small(self):
        return load_taxonomy(SMALL_TREE)

    def check_walk(self, small, labels, sims, requery, ref_requery):
        res = _walk(labels, sims, small, requery)
        cols = [res.y1.tolist(), res.y2.tolist(), res.y3.tolist(), res.fallback.tolist(),
                res.flat_leaf.tolist(), res.flat_counts, *res.counts]
        for i, (triples, row_sims) in enumerate(zip(labels.tolist(), sims.tolist())):
            path, tallies, fallback, (flat_leaf, flat_tally) = reference_vote_walk(
                triples, row_sims, small, ref_requery)
            y1, y2, y3, fb, leaf, flat_counts, *counts = (col[i] for col in cols)
            assert [y1, y2, y3] == path, (triples, row_sims)
            assert fb == fallback, (triples, row_sims)
            assert [as_dict(c) for c in counts] == tallies, (triples, row_sims)
            assert (leaf, as_dict(flat_counts)) == (flat_leaf, flat_tally), (triples, row_sims)
        return res

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_walk_over_every_consistent_neighborhood(self, small, k):
        leaves, sims = all_cases(small.leaf_count, k, SMALL_SIMS)
        assert len(leaves) == small.leaf_count ** k * len(weak_orders(k))

        def no_requery(*args):
            raise AssertionError(f"fallback on parent-consistent labels: {args}")

        res = self.check_walk(small, small.paths[leaves], sims, no_requery, no_requery)
        assert not res.fallback.any()

    @pytest.mark.parametrize("k", [1, 2])
    def test_walk_over_every_label_triple(self, small, k):
        triples = np.array(list(itertools.product(*(range(n) for n in small.sizes))))
        picks, sims = all_cases(len(triples), k, SMALL_SIMS)
        assert len(picks) == len(triples) ** k * len(weak_orders(k))

        def fixed(level, node):
            """A stand-in re-query: the node's children, last first; an odd node's
            last child nearer, an even node's two children tied."""
            kids = np.flatnonzero(small.parents(level) == node)[::-1].tolist()
            return kids, [0.5, 0.25 if node % 2 else 0.5]

        calls = []

        def requery(sel, level, node):
            calls.append((level, node))
            kids, kid_sims = fixed(level, node)
            return np.tile(kids, (len(sel), 1)), np.tile(kid_sims, (len(sel), 1))

        res = self.check_walk(small, triples[picks], sims, requery, fixed)
        assert len(calls) == len(set(calls))  # one re-query per (level, node)
        assert res.fallback[:, 1].any() and res.fallback[:, 2].any()
