"""Exact top-k cosine retrieval against an independent full-sort oracle."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import hierknn.knn
from hierknn import classify_batch, search
from hierknn.knn import _select
from conftest import bank_from_arrays, unit_rows


def oracle_order(bank, q: np.ndarray, k: int, rows=None) -> list[int]:
    """Brute-force ranking: fsum dot products, full sort, index tie-break.

    Accumulates each similarity with math.fsum over python floats, which is
    a different summation path than the library's vectorized product, then
    sorts all entries by descending similarity with ascending-index ties.
    """
    rows = range(len(bank)) if rows is None else rows
    sims = {
        i: math.fsum(float(a) * float(b) for a, b in zip(bank.vectors[i], q))
        for i in rows
    }
    ranked = sorted(sims, key=lambda i: (-sims[i], i))
    return ranked[:k]


def nearest(bank, q, k: int, rows=None) -> tuple[list[int], list[float]]:
    """Entry indices and similarities of one query: row 0 of a one-row :func:`search`."""
    indices, sims = search(bank, np.asarray(q, dtype=np.float64)[None], k, rows)
    return indices[0].tolist(), sims[0].tolist()


class TestCosine:
    """A similarity is the dot product of the query with the entry."""

    def test_self_similarity_is_one(self, tax):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(16)
        u /= np.linalg.norm(u)
        bank = bank_from_arrays(tax, u[None].astype(np.float32), [0])
        assert abs(nearest(bank, u, 1)[1][0] - 1.0) <= 1e-6

    def test_orthogonal_is_zero(self, tax):
        bank = bank_from_arrays(tax, np.array([[0.0, 1.0]], dtype=np.float32), [0])
        assert nearest(bank, [1.0, 0.0], 1)[1] == [0.0]

    def test_antipodal_is_minus_one(self, tax):
        bank = bank_from_arrays(tax, np.array([[-1.0, 0.0]], dtype=np.float32), [0])
        assert nearest(bank, [1.0, 0.0], 1)[1] == [-1.0]

    def test_dim_mismatch_rejected(self, tax):
        bank = bank_from_arrays(tax, np.array([[1.0, 0.0, 0.0]], dtype=np.float32), [0])
        with pytest.raises(ValueError, match=r"query block shape \(1, 2\) != \(m, 3\)"):
            nearest(bank, [1.0, 0.0], 1)


class TestTopK:
    def test_two_entry_bank(self, tax):
        """Nearest of {e1, e2} to a query equal to e1 is entry 0 at sim 1."""
        vecs = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        bank = bank_from_arrays(tax, vecs, [tax.index_of(3, "BL"), tax.index_of(3, "LY")])
        indices, sims = nearest(bank, [1.0, 0.0], 1)
        assert indices == [0]
        np.testing.assert_allclose(sims, [1.0], atol=1e-7)

    def test_k_equal_to_bank_size_returns_all(self, tax):
        rng = np.random.default_rng(1)
        bank = bank_from_arrays(tax, unit_rows(rng, 9, 6), [0] * 9)
        indices, sims = nearest(bank, unit_rows(rng, 1, 6)[0], 9)
        assert sorted(indices) == list(range(9))
        assert sims == sorted(sims, reverse=True)

    def test_k_beyond_bank_size_capped(self, tax):
        rng = np.random.default_rng(2)
        bank = bank_from_arrays(tax, unit_rows(rng, 4, 5), [1] * 4)
        indices, sims = search(bank, unit_rows(rng, 1, 5), 50)
        assert indices.shape == sims.shape == (1, 4)

    def test_invalid_k_rejected(self, tax):
        bank = bank_from_arrays(tax, unit_rows(np.random.default_rng(3), 2, 4), [0, 1])
        with pytest.raises(ValueError, match="k must be"):
            nearest(bank, [1.0, 0.0, 0.0, 0.0], 0)

    def test_query_shape_checked(self, tax):
        bank = bank_from_arrays(tax, unit_rows(np.random.default_rng(4), 2, 4), [0, 1])
        with pytest.raises(ValueError, match="query block shape"):
            nearest(bank, [1.0, 0.0], 1)

    def test_matches_oracle_on_random_banks(self, tax):
        """Retrieval order equals the brute-force oracle on 40 random cases."""
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(5, 201))
            dim = int(rng.integers(2, 9))
            k = int(rng.integers(1, 8))
            bank = bank_from_arrays(
                tax, unit_rows(rng, n, dim), list(rng.integers(0, 13, n))
            )
            q = unit_rows(rng, 1, dim)[0].astype(np.float64)
            indices, _ = nearest(bank, q, k)
            assert indices == oracle_order(bank, q, k)

    def test_exact_ties_break_by_ascending_index(self, tax):
        """Duplicated vectors produce identical sims; lower index wins."""
        rng = np.random.default_rng(5)
        base = unit_rows(rng, 3, 6)
        vecs = np.vstack([base, base[1], base[0]]).astype(np.float32)
        bank = bank_from_arrays(tax, vecs, [0, 1, 2, 3, 4])
        q = base[1].astype(np.float64)
        indices, _ = nearest(bank, q, 5)
        assert indices == oracle_order(bank, q, 5)
        assert indices[0] == 1 and indices[1] == 3

    def test_similarities_non_increasing(self, tax):
        rng = np.random.default_rng(6)
        bank = bank_from_arrays(tax, unit_rows(rng, 120, 7), [0] * 120)
        for _ in range(10):
            _, sims = nearest(bank, unit_rows(rng, 1, 7)[0], 15)
            sims = np.asarray(sims)
            assert np.all(np.diff(sims) <= 0)
            assert np.all(np.abs(sims) <= 1 + 1e-6)


class TestTopKFiltered:
    """Retrieval restricted to the entries under given level nodes: ``search`` over their rows."""

    def build(self, tax, rng, n=80, dim=6):
        return bank_from_arrays(
            tax, unit_rows(rng, n, dim), list(rng.integers(0, 13, n))
        )

    @staticmethod
    def under(bank, level, allowed):
        return np.flatnonzero(np.isin(bank.labels[:, level - 1], allowed))

    def test_allow_everything_matches_top_k(self, tax):
        rng = np.random.default_rng(7)
        bank = self.build(tax, rng)
        q = unit_rows(rng, 1, 6)[0]
        plain = nearest(bank, q, 9)
        filtered = nearest(bank, q, 9, self.under(bank, 1, range(tax.node_count(1))))
        assert filtered == plain

    def test_no_qualifying_entries_gives_empty_set(self, tax):
        """Filtering on a lineage absent from the bank returns no hits."""
        rng = np.random.default_rng(8)
        myeloid_leaves = [tax.index_of(3, n) for n in ("SNE", "MO", "EO")]
        bank = bank_from_arrays(
            tax, unit_rows(rng, 10, 5), list(rng.choice(myeloid_leaves, 10))
        )
        rows = self.under(bank, 1, [tax.index_of(1, "Blast")])
        indices, sims = nearest(bank, unit_rows(rng, 1, 5)[0], 3, rows)
        assert indices == [] and sims == []

    def test_matches_sub_bank_oracle(self, tax):
        """Filtered retrieval equals brute force over the qualifying subset."""
        rng = np.random.default_rng(9)
        myeloid = tax.index_of(1, "Myeloid")
        for _ in range(15):
            bank = self.build(tax, rng)
            q = unit_rows(rng, 1, 6)[0].astype(np.float64)
            keep = [i for i in range(len(bank)) if int(bank.labels[i, 0]) == myeloid]
            indices, _ = nearest(bank, q, 5, self.under(bank, 1, [myeloid]))
            assert indices == oracle_order(bank, q, 5, rows=keep)


class TestRetrieve:
    def test_partial_selection_equals_full_stable_sort(self):
        """The k-selection is the first k of a plain sort by (NaN last, -sim, index)."""
        rng = np.random.default_rng(12)
        for case in range(3000):
            n = int(rng.integers(1, 60))
            sims = rng.integers(-4, 5, n) / 4.0  # few distinct values: many ties
            if case % 5 == 0:
                sims[rng.random(n) < 0.3] = np.nan
            k = int(rng.integers(1, n + 3))
            values = sims.tolist()

            def key(i):
                return (True, 0.0, i) if math.isnan(values[i]) else (False, -values[i], i)
            assert _select(sims, k).tolist() == sorted(range(n), key=key)[:k], case

    def test_rows_subset_matches_oracle(self, tax):
        """Scanning an ascending subset gives the oracle's order over that subset."""
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(5, 120))
            vectors = unit_rows(rng, n, 5)
            vectors[n // 2:] = vectors[: n - n // 2]  # exact duplicate rows
            bank = bank_from_arrays(tax, vectors, list(rng.integers(0, 13, n)))
            rows = np.flatnonzero(rng.random(n) < 0.6)
            q = unit_rows(rng, 1, 5)[0].astype(np.float64)
            k = int(rng.integers(1, 12))
            indices, sims = nearest(bank, q, k, rows)
            assert indices == oracle_order(bank, q, k, rows=rows.tolist())
            rescored = (bank.vectors[indices].astype(np.float64) * q).sum(axis=1)
            assert sims == rescored.tolist()

    def test_empty_rows_give_no_hits(self, tax):
        bank = bank_from_arrays(tax, unit_rows(np.random.default_rng(14), 4, 3), [0, 1, 2, 3])
        indices, sims = nearest(bank, [1.0, 0.0, 0.0], 3, np.array([], dtype=np.intp))
        assert indices == [] and sims == []


class TestSearch:
    """The batched kernel against the full-sort fsum oracle, edge cases included."""

    def check(self, bank, Q, k, rows=None):
        indices, sims = search(bank, Q, k, rows)
        for i, q in enumerate(Q):
            want = oracle_order(bank, q, k, rows=None if rows is None else rows.tolist())
            assert indices[i].tolist() == want, i
            exact = [math.fsum(float(a) * float(b) for a, b in zip(bank.vectors[j], q))
                     for j in want]
            np.testing.assert_allclose(sims[i], exact, rtol=1e-12, atol=0)

    def test_duplicate_head_and_tail_rows_tie_by_index(self, tax):
        """Rows 0 and n-1 are equal: equal sims, and row 0 ranks first."""
        rng = np.random.default_rng(5)
        for _ in range(150):
            n = int(rng.integers(9, 200))
            dim = int(rng.integers(8, 65))
            vectors = unit_rows(rng, n, dim)
            vectors[-1] = vectors[0]
            leaves = list(rng.integers(0, 13, n))
            leaves[-1] = (leaves[0] + 1) % 13
            bank = bank_from_arrays(tax, vectors, leaves)
            indices, sims = nearest(bank, unit_rows(rng, 1, dim)[0], n)
            first, last = indices.index(0), indices.index(n - 1)
            assert sims[first] == sims[last]
            assert first < last
            # k = 1 on the duplicated row itself: the vote shows which copy ranked first
            res = classify_batch(bank, vectors[[0, -1]], 1, tax)
            assert res.flat_leaf.tolist() == [leaves[0]] * 2
            assert res.y3.tolist() == [leaves[0]] * 2

    def test_query_blocks_k_beyond_bank_and_rows(self, tax, monkeypatch):
        """More queries than one score block, k >= n, and a rows mask."""
        rng = np.random.default_rng(21)
        n, dim = 60, 12
        bank = bank_from_arrays(tax, unit_rows(rng, n, dim), list(rng.integers(0, 13, n)))
        monkeypatch.setattr(hierknn.knn, "_SCORE_BYTES", 4 * n * 3)  # 3 queries per block
        Q = unit_rows(rng, 10, dim).astype(np.float64)
        rows = np.flatnonzero(rng.random(n) < 0.5)
        for k in (1, 7, n, n + 5):
            self.check(bank, Q, k)
            self.check(bank, Q, k, rows)

    def test_rows_one_f32_ulp_apart(self, tax):
        """Rows one f32 ulp apart, which f32 scores tie or misorder, rank by f64."""
        rng = np.random.default_rng(22)
        dim = 16
        base = unit_rows(rng, 3, dim)
        near = np.repeat(base, 12, axis=0)
        at = np.arange(len(near)), rng.integers(0, dim, len(near))
        up = np.float32(np.inf)
        near[at] = np.nextafter(near[at], np.where(rng.random(len(near)) < 0.5, up, -up))
        vectors = np.vstack([unit_rows(rng, 40, dim), near, base])
        bank = bank_from_arrays(tax, vectors, list(rng.integers(0, 13, len(vectors))))
        Q = base.astype(np.float64) + 1e-9 * rng.standard_normal((3, dim))
        f32_best = np.argmax(Q.astype(np.float32) @ vectors.T, axis=1)
        assert f32_best.tolist() != [oracle_order(bank, q, 1)[0] for q in Q]
        for k in (1, 2, 5, 13):
            self.check(bank, Q, k)

    @pytest.mark.parametrize("scale", [1e-200, 1e-30, 1e30, 1e200])
    def test_query_norm_extremes(self, tax, scale):
        """Queries far from unit norm, which overflow or underflow if cast to f32 first."""
        rng = np.random.default_rng(23)
        n, dim = 80, 9
        bank = bank_from_arrays(tax, unit_rows(rng, n, dim), list(rng.integers(0, 13, n)))
        Q = unit_rows(rng, 6, dim).astype(np.float64) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow, underflow or 0/0 on the way
            for k in (1, 5):
                self.check(bank, Q, k)

    def test_rows_near_f32_overflow(self, tax):
        """Entries whose f32 scores can overflow: every entry is rescored, still exact."""
        rng = np.random.default_rng(25)
        n, dim = 50, 16
        signs = rng.choice([-1.0, 1.0], (n, dim)) * rng.uniform(0.2, 1.0, (n, dim))
        vectors = (signs * 3e38).astype(np.float32)
        vectors[7] = vectors[3]
        bank = bank_from_arrays(tax, vectors, list(rng.integers(0, 13, n)))
        Q = np.vstack([vectors[3], unit_rows(rng, 4, dim)]).astype(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in (1, 2, 6):
                self.check(bank, Q, k)

    def test_unusable_query_named(self, tax):
        bank = bank_from_arrays(tax, unit_rows(np.random.default_rng(24), 5, 3), [0] * 5)
        for bad in (0.0, np.nan, np.inf):
            Q = np.ones((3, 3))
            Q[1] = bad
            with pytest.raises(hierknn.InferenceError, match="query 1: vector is non-finite"):
                search(bank, Q, 2)
