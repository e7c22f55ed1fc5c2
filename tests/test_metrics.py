"""Confusion-matrix scoring against an exact rational recount oracle."""
from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hierknn import F1_CONVENTION, confusion, macro_f1, score_predictions


def recount_macro_f1(truth, preds, n_classes: int) -> float:
    """Recount TP/FP/FN per class from raw pairs in exact rational arithmetic."""
    total = Fraction(0)
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(truth, preds) if t == c and p == c)
        fp = sum(1 for t, p in zip(truth, preds) if t != c and p == c)
        fn = sum(1 for t, p in zip(truth, preds) if t == c and p != c)
        denom = 2 * tp + fp + fn
        total += Fraction(2 * tp, denom) if denom else Fraction(0)
    return float(total / n_classes)


def report_f1(grid) -> list[float]:
    """Per-class F1 from score_predictions's report, scoring the pairs the count grid holds."""
    grid = np.asarray(grid)
    pairs = [(t, p) for (t, p), n in np.ndenumerate(grid) for _ in range(int(n))]
    truth, preds = zip(*pairs)
    _, _, report = score_predictions(truth, preds, grid.shape[0])
    return [row["f1"] for row in report["classes"]]


class TestPerClassF1:
    def test_diagonal_matrix_is_perfect(self):
        assert report_f1(np.diag([4, 1, 7])) == [1.0, 1.0, 1.0]

    def test_all_misses_scores_zero(self):
        assert report_f1([[0, 5], [0, 0]])[0] == 0.0

    def test_hand_counts(self):
        """TP=3, FP=1, FN=2 gives 2*3 / (2*3 + 1 + 2) = 6/9."""
        assert report_f1([[3, 2], [1, 4]])[0] == pytest.approx(6 / 9, abs=1e-12)

    def test_absent_class_scores_zero_by_convention(self):
        assert report_f1(np.diag([3, 0, 3]))[1] == 0.0
        assert "no support" in F1_CONVENTION


class TestMacroF1:
    def test_perfect_thirteen_class(self):
        assert macro_f1(np.diag([2] * 13)) == 1.0

    def test_two_class_hand_matrix(self):
        """[[3,1],[2,4]] averages 6/9 and 8/11 to 23/33 = 0.696969..."""
        got = macro_f1(np.array([[3, 1], [2, 4]]))
        assert got == pytest.approx(23 / 33, abs=1e-12)

    def test_all_wrong_is_zero(self):
        assert macro_f1(np.array([[0, 3], [2, 0]])) == 0.0

    def test_bounded_and_one_only_when_diagonal(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            c = int(rng.integers(1, 8))
            grid = rng.integers(0, 6, (c, c))
            value = macro_f1(grid)
            assert 0.0 <= value <= 1.0
            if value == 1.0:
                off = grid - np.diag(np.diag(grid))
                assert off.sum() == 0 and np.all(np.diag(grid) > 0)

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c = int(rng.integers(2, 9))
            truth = list(rng.integers(0, c, 120))
            preds = list(rng.integers(0, c, 120))
            perm = list(rng.permutation(c))
            base = confusion(truth, preds, c)
            moved = confusion([perm[t] for t in truth], [perm[p] for p in preds], c)
            assert macro_f1(base) == pytest.approx(macro_f1(moved), abs=1e-12)


class TestScorePredictions:
    def test_perfect_agreement(self):
        truth = [0, 1, 2, 1, 0]
        grid, mf1, report = score_predictions(truth, truth, 3)
        assert mf1 == 1.0
        assert grid.sum() == 5
        assert report["macro_f1"] == 1.0
        assert report["convention"] == F1_CONVENTION

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            score_predictions([], [], 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            score_predictions([0, 1], [0], 2)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            score_predictions([0, 3], [0, 1], 3)

    def test_report_per_class_fields(self):
        _, _, report = score_predictions([0, 0, 1, 1], [0, 1, 1, 1], 2)
        row = report["classes"][0]
        assert row["support"] == 2
        assert row["recall"] == pytest.approx(0.5)
        assert row["precision"] == pytest.approx(1.0)

    def test_five_hundred_sample_recount(self):
        """A fuzzed 500-pair scoring matches the rational recount oracle."""
        rng = np.random.default_rng(2)
        truth = list(rng.integers(0, 13, 500))
        preds = list(rng.integers(0, 13, 500))
        _, mf1, _ = score_predictions(truth, preds, 13)
        assert mf1 == pytest.approx(recount_macro_f1(truth, preds, 13), abs=1e-12)

    def test_fuzzed_datasets_match_recount(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            c = int(rng.integers(1, 15))
            n = int(rng.integers(1, 300))
            truth = list(rng.integers(0, c, n))
            preds = [
                int(t) if rng.random() < 0.4 else int(rng.integers(0, c)) for t in truth
            ]
            _, mf1, _ = score_predictions(truth, preds, c)
            assert mf1 == pytest.approx(recount_macro_f1(truth, preds, c), abs=1e-12)


class TestMerge:
    def test_shard_merge_equals_whole(self):
        """Summing the counts of two scored shards equals scoring the union."""
        rng = np.random.default_rng(4)
        truth = list(rng.integers(0, 5, 200))
        preds = list(rng.integers(0, 5, 200))
        whole = confusion(truth, preds, 5)
        merged = confusion(truth[:90], preds[:90], 5) + confusion(truth[90:], preds[90:], 5)
        assert np.array_equal(merged, whole)
        assert macro_f1(merged) == macro_f1(whole)


class TestFromPairs:
    def test_equals_pair_by_pair_adds(self):
        """The vectorized count equals adding each pair in turn, repeats included."""
        rng = np.random.default_rng(5)
        for _ in range(30):
            c = int(rng.integers(1, 9))
            n = int(rng.integers(0, 150))
            truth = list(rng.integers(0, c, n))
            preds = [int(p) for p in rng.integers(0, c, n)]
            one_by_one = np.zeros((c, c), dtype=np.int64)
            for t, p in zip(truth, preds):
                one_by_one[t, p] += 1
            assert np.array_equal(confusion(truth, preds, c), one_by_one)

    @pytest.mark.parametrize("truth, preds", [([0, 1, 3], [0, 1, 2]), ([0, -1], [0, 0]),
                                              ([0, 0], [2, 5])])
    def test_first_out_of_range_pair_named(self, truth, preds):
        i = next(j for j, (t, p) in enumerate(zip(truth, preds)) if not (0 <= t < 3 and 0 <= p < 3))
        with pytest.raises(ValueError, match=rf"\({truth[i]}, {preds[i]}\) out of range for C=3"):
            confusion(truth, preds, 3)

    def test_array_pairs_are_not_copied_to_lists(self):
        """Two 1,000,000-entry int64 label arrays are counted as arrays: the
        traced peak stays below three times one input's size."""
        rng = np.random.default_rng(6)
        truth = rng.integers(0, 13, 1_000_000)
        preds = rng.integers(0, 13, 1_000_000)
        tracemalloc.start()
        try:
            grid = confusion(truth, preds, 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.sum() == 1_000_000
        assert peak < 3 * truth.nbytes, peak
