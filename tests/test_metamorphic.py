"""Metamorphic relations: how outputs must move when the queries are transformed.

The oracle tests check `search` against a brute-force scan and the votes
against reference walks, each on given inputs. These relations compare runs
with each other instead, so they catch a result that depends on a query's
scale, on its place in the block, on where the block is cut, on where an
entry sits in the bank, or on which rows a restricted search scans (Chen,
Cheung and Yiu, HKUST-CS98-01, 1998; Xie et al., JSS 84(4), 2011). They run
on the determinism fixture and on the stock bank, with its queries under
moderate drift.
"""
from __future__ import annotations

import numpy as np
import pytest

from hierknn import (
    MODERATE_SHIFT,
    FeatureBank,
    SynthConfig,
    apply_shift,
    classify_batch,
    combine_members,
    generate,
    member_outputs,
    parse_synth_config,
    search,
)
from hierknn.ensemble import TIE_POLICIES
from conftest import SMALL_CONFIG

pytestmark = pytest.mark.gate


@pytest.fixture(scope="module", params=["fixture", "stock"])
def case(request, tax):
    """(bank, query block, k): the determinism fixture at k = 5, or the
    stock bank at k = 15."""
    if request.param == "fixture":
        bank, queries = generate(parse_synth_config(SMALL_CONFIG), tax)
        return bank, queries.vectors.astype(np.float64), 5
    bank, queries = generate(SynthConfig(seed=3), tax)
    return bank, apply_shift(queries, MODERATE_SHIFT, 3).vectors.astype(np.float64), 15


def assert_same_prediction(a, b):
    for name, x, y in zip(a._fields, a, b):
        if name == "counts":
            assert all(np.array_equal(u, v) for u, v in zip(x, y)), name
        else:
            assert np.array_equal(x, y), name


def rows_bank(bank, rows):
    """The bank of exactly the entries ``rows``, in that order: ids, labels and
    vector bits, built through the constructor."""
    ids = bank.ids
    return FeatureBank(bank.dim, [ids[i] for i in rows], bank.labels[rows],
                       bank.vectors[rows], bank.taxonomy_digest)


def member_columns(bank, Q, tax):
    """Six members that often disagree: both modes of the one bank at three k."""
    columns = [member_outputs(bank, Q, k, tax, flat) for k in (3, 9, 15) for flat in (False, True)]
    return tuple(np.column_stack(c) for c in zip(*columns))


@pytest.mark.parametrize("j", [-60, -3, 1, 40])
def test_power_of_two_scaling(case, tax, j):
    """Scaling every query by 2^j keeps every prediction, and scales each
    similarity by exactly 2^j (the dot product of the query as given)."""
    bank, Q, k = case
    indices, sims = search(bank, Q, k)
    scaled_indices, scaled_sims = search(bank, Q * 2.0 ** j, k)
    assert np.array_equal(scaled_indices, indices)
    assert np.array_equal(scaled_sims, sims * 2.0 ** j)
    assert_same_prediction(classify_batch(bank, Q * 2.0 ** j, k, tax),
                           classify_batch(bank, Q, k, tax))


def test_query_permutation(case, tax):
    """Permuting the queries permutes every output, the ensemble vote included."""
    bank, Q, k = case
    perm = np.random.default_rng(41).permutation(len(Q))
    indices, sims = search(bank, Q, k)
    permuted_indices, permuted_sims = search(bank, Q[perm], k)
    assert np.array_equal(permuted_indices, indices[perm])
    assert np.array_equal(permuted_sims, sims[perm])
    base = classify_batch(bank, Q, k, tax)
    assert_same_prediction(classify_batch(bank, Q[perm], k, tax),
                           base._replace(**{name: getattr(base, name)[perm]
                                            for name in base._fields if name != "counts"},
                                         counts=tuple(c[perm] for c in base.counts)))
    leaves, margins = member_columns(bank, Q, tax)
    for policy in TIE_POLICIES:
        want = np.array(combine_members(leaves, margins, policy))[perm].tolist()
        assert combine_members(leaves[perm], margins[perm], policy) == want, policy


@pytest.mark.parametrize("chunk", [1, 31, 33, 97])
def test_block_cut(case, chunk):
    """Searching the queries in chunks gives the whole block's indices and
    similarities, wherever the cuts fall against the kernel's query blocks."""
    bank, Q, k = case
    indices, sims = search(bank, Q, k)
    parts = [search(bank, Q[lo:lo + chunk], k) for lo in range(0, len(Q), chunk)]
    assert np.array_equal(np.concatenate([p[0] for p in parts]), indices)
    assert np.array_equal(np.concatenate([p[1] for p in parts]), sims)


def test_bank_permutation(case, tax):
    """Permuting the bank's entries keeps, for each query with no tie among
    its k + 1 nearest, the similarities and the indices mapped through the
    permutation, and every prediction."""
    bank, Q, k = case
    perm = np.random.default_rng(43).permutation(len(bank))
    permuted = rows_bank(bank, perm)
    sims = search(bank, Q, k + 1)[1]
    untied = np.flatnonzero((sims[:, 1:] < sims[:, :-1]).all(axis=1))
    assert len(untied) >= 0.9 * len(Q)
    indices, sims = search(bank, Q[untied], k)
    permuted_indices, permuted_sims = search(permuted, Q[untied], k)
    assert np.array_equal(perm[permuted_indices], indices)
    assert np.array_equal(permuted_sims, sims)
    assert_same_prediction(classify_batch(permuted, Q[untied], k, tax),
                           classify_batch(bank, Q[untied], k, tax))


def test_restricted_rows(case):
    """``search`` restricted to ``rows`` equals a search of the bank of exactly
    those rows, its indices mapped back: one lineage's entries, a random
    half, and a single row."""
    bank, Q, k = case
    rng = np.random.default_rng(47)
    for rows in (np.flatnonzero(bank.labels[:, 0] == 1),
                 np.sort(rng.choice(len(bank), len(bank) // 2, replace=False)),
                 np.array([int(rng.integers(len(bank)))])):
        indices, sims = search(bank, Q, k, rows)
        sub_indices, sub_sims = search(rows_bank(bank, rows), Q, k)
        assert np.array_equal(indices, rows[sub_indices])
        assert np.array_equal(sims, sub_sims)
