"""Exact top-k cosine retrieval against an independent full-sort oracle."""
from __future__ import annotations

import math

import numpy as np
import pytest

from hierknn import cosine_similarity, retrieve, top_k, top_k_filtered
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


class TestCosine:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(16)
        u /= np.linalg.norm(u)
        assert abs(cosine_similarity(u, u) - 1.0) <= 1e-6

    def test_orthogonal_is_zero(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_antipodal_is_minus_one(self):
        assert cosine_similarity([1.0, 0.0], [-1.0, 0.0]) == -1.0

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim mismatch"):
            cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])


class TestTopK:
    def test_two_entry_bank(self, tax):
        """Nearest of {e1, e2} to a query equal to e1 is entry 0 at sim 1."""
        vecs = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        bank = bank_from_arrays(tax, vecs, [tax.index_of(3, "BL"), tax.index_of(3, "LY")])
        hits = top_k(bank, [1.0, 0.0], 1)
        assert hits.entry_indices == (0,)
        np.testing.assert_allclose(hits.similarities, [1.0], atol=1e-7)

    def test_k_equal_to_bank_size_returns_all(self, tax):
        rng = np.random.default_rng(1)
        bank = bank_from_arrays(tax, unit_rows(rng, 9, 6), [0] * 9)
        hits = top_k(bank, unit_rows(rng, 1, 6)[0], 9)
        assert sorted(hits.entry_indices) == list(range(9))
        assert list(hits.similarities) == sorted(hits.similarities, reverse=True)

    def test_k_beyond_bank_size_capped(self, tax):
        rng = np.random.default_rng(2)
        bank = bank_from_arrays(tax, unit_rows(rng, 4, 5), [1] * 4)
        hits = top_k(bank, unit_rows(rng, 1, 5)[0], 50)
        assert len(hits) == 4
        assert hits.k_requested == 50

    def test_invalid_k_rejected(self, tax):
        bank = bank_from_arrays(tax, unit_rows(np.random.default_rng(3), 2, 4), [0, 1])
        with pytest.raises(ValueError, match="k must be"):
            top_k(bank, [1.0, 0.0, 0.0, 0.0], 0)

    def test_query_shape_checked(self, tax):
        bank = bank_from_arrays(tax, unit_rows(np.random.default_rng(4), 2, 4), [0, 1])
        with pytest.raises(ValueError, match="query shape"):
            top_k(bank, [1.0, 0.0], 1)

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
            hits = top_k(bank, q, k)
            assert list(hits.entry_indices) == oracle_order(bank, q, k)

    def test_exact_ties_break_by_ascending_index(self, tax):
        """Duplicated vectors produce identical sims; lower index wins."""
        rng = np.random.default_rng(5)
        base = unit_rows(rng, 3, 6)
        vecs = np.vstack([base, base[1], base[0]]).astype(np.float32)
        bank = bank_from_arrays(tax, vecs, [0, 1, 2, 3, 4])
        q = base[1].astype(np.float64)
        hits = top_k(bank, q, 5)
        assert list(hits.entry_indices) == oracle_order(bank, q, 5)
        assert hits.entry_indices[0] == 1 and hits.entry_indices[1] == 3

    def test_similarities_non_increasing(self, tax):
        rng = np.random.default_rng(6)
        bank = bank_from_arrays(tax, unit_rows(rng, 120, 7), [0] * 120)
        for _ in range(10):
            hits = top_k(bank, unit_rows(rng, 1, 7)[0], 15)
            sims = np.asarray(hits.similarities)
            assert np.all(np.diff(sims) <= 0)
            assert np.all(np.abs(sims) <= 1 + 1e-6)


class TestTopKFiltered:
    def build(self, tax, rng, n=80, dim=6):
        return bank_from_arrays(
            tax, unit_rows(rng, n, dim), list(rng.integers(0, 13, n))
        )

    def test_allow_everything_matches_top_k(self, tax):
        rng = np.random.default_rng(7)
        bank = self.build(tax, rng)
        q = unit_rows(rng, 1, 6)[0]
        plain = top_k(bank, q, 9)
        filtered = top_k_filtered(bank, q, 9, 1, range(tax.node_count(1)))
        assert filtered.entry_indices == plain.entry_indices
        assert filtered.similarities == plain.similarities

    def test_no_qualifying_entries_gives_empty_set(self, tax):
        """Filtering on a lineage absent from the bank returns no hits."""
        rng = np.random.default_rng(8)
        myeloid_leaves = [tax.index_of(3, n) for n in ("SNE", "MO", "EO")]
        bank = bank_from_arrays(
            tax, unit_rows(rng, 10, 5), list(rng.choice(myeloid_leaves, 10))
        )
        hits = top_k_filtered(bank, unit_rows(rng, 1, 5)[0], 3, 1, [tax.index_of(1, "Blast")])
        assert len(hits) == 0
        assert hits.entry_indices == ()

    def test_matches_sub_bank_oracle(self, tax):
        """Filtered retrieval equals brute force over the qualifying subset."""
        rng = np.random.default_rng(9)
        myeloid = tax.index_of(1, "Myeloid")
        for _ in range(15):
            bank = self.build(tax, rng)
            q = unit_rows(rng, 1, 6)[0].astype(np.float64)
            keep = [i for i in range(len(bank)) if int(bank.labels[i, 0]) == myeloid]
            hits = top_k_filtered(bank, q, 5, 1, [myeloid])
            assert list(hits.entry_indices) == oracle_order(bank, q, 5, rows=keep)

    def test_empty_allowed_set_rejected(self, tax):
        rng = np.random.default_rng(10)
        bank = self.build(tax, rng, n=5)
        with pytest.raises(ValueError, match="allowed node set is empty"):
            top_k_filtered(bank, unit_rows(rng, 1, 6)[0], 2, 1, [])

    def test_bad_level_rejected(self, tax):
        rng = np.random.default_rng(11)
        bank = self.build(tax, rng, n=5)
        with pytest.raises(ValueError, match="level"):
            top_k_filtered(bank, unit_rows(rng, 1, 6)[0], 2, 4, [0])


class TestRetrieve:
    def test_partial_selection_equals_full_stable_sort(self):
        """The k-selection equals the first k of a full stable sort, ties and NaNs included."""
        rng = np.random.default_rng(12)
        for case in range(3000):
            n = int(rng.integers(1, 60))
            sims = rng.integers(-4, 5, n) / 4.0  # few distinct values: many ties
            if case % 5 == 0:
                sims[rng.random(n) < 0.3] = np.nan
            k = int(rng.integers(1, n + 3))
            want = np.argsort(-sims, kind="stable")[:k]
            assert _select(sims, k).tolist() == want.tolist(), case

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
            indices, sims = retrieve(bank, q, k, rows)
            assert indices.tolist() == oracle_order(bank, q, k, rows=rows.tolist())
            assert sims.tolist() == (bank.vectors64[indices] @ q).tolist()

    def test_empty_rows_give_no_hits(self, tax):
        bank = bank_from_arrays(tax, unit_rows(np.random.default_rng(14), 4, 3), [0, 1, 2, 3])
        indices, sims = retrieve(bank, [1.0, 0.0, 0.0], 3, np.array([], dtype=np.intp))
        assert indices.size == 0 and sims.size == 0

    def test_wrappers_share_retrieve(self, tax):
        rng = np.random.default_rng(15)
        bank = bank_from_arrays(tax, unit_rows(rng, 30, 4), list(rng.integers(0, 13, 30)))
        q = unit_rows(rng, 1, 4)[0]
        indices, sims = retrieve(bank, q, 6)
        hits = top_k(bank, q, 6)
        assert hits.entry_indices == tuple(indices.tolist())
        assert hits.similarities == tuple(sims.tolist())
