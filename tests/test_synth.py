"""Synthetic dataset generation, config parsing, and domain-shift transforms."""
from __future__ import annotations

import io
import math

import numpy as np
import pytest

from hierknn import (
    MODERATE_SHIFT,
    QuerySet,
    ShiftSpec,
    SynthConfig,
    SynthError,
    apply_shift,
    classify_batch,
    confusion,
    generate,
    generate_member_banks,
    macro_f1,
    parse_synth_config,
    read_manifest,
    write_manifest,
)
from hierknn import bank as bank_module
from hierknn.synth import _draw

SMALL = SynthConfig(
    dim=8,
    per_leaf_counts=(12, 10, 8, 20, 30, 12, 8, 6, 10, 24, 6, 5, 9),
    lineage_separation=3.0,
    leaf_separation=1.4,
    noise_sigma=0.7,
    seed=5,
)


def counts_with(tax, **named) -> tuple:
    counts = [0] * tax.leaf_count
    for name, n in named.items():
        counts[tax.index_of(3, name)] = n
    return tuple(counts)


def assert_same_set(a: QuerySet, b: QuerySet) -> None:
    """Same ids, labels and vector bytes, in the same order."""
    assert a.ids == b.ids
    assert a.labels == b.labels
    assert a.vectors.dtype == b.vectors.dtype
    assert a.vectors.tobytes() == b.vectors.tobytes()


class TestConfig:
    def test_defaults_validate(self):
        cfg = SynthConfig()
        assert cfg.dim >= 4
        assert cfg.lineage_separation > cfg.leaf_separation > 0
        assert len(cfg.per_leaf_counts) == 13

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            SynthConfig(dim=3)
        with pytest.raises(ValueError, match="separation"):
            SynthConfig(lineage_separation=1.0, leaf_separation=2.0)
        with pytest.raises(ValueError, match="noise_sigma"):
            SynthConfig(noise_sigma=0.0)
        with pytest.raises(ValueError, match="counts"):
            SynthConfig(per_leaf_counts=(-1,) * 13)
        with pytest.raises(ValueError, match="noise_sigma must be finite, got 'inf'"):
            SynthConfig(noise_sigma=float("inf"))
        with pytest.raises(ValueError, match="lineage_separation must be finite, got 'nan'"):
            SynthConfig(lineage_separation=float("nan"))
        with pytest.raises(ValueError, match="seed must be >= 0, got '-1'"):
            SynthConfig(seed=-1)

    def test_parse_round_trip(self):
        text = """
        dim = 8
        per_leaf_counts = 12, 10, 8, 20, 30, 12, 8, 6, 10, 24, 6, 5, 9
        lineage_separation = 3.0
        leaf_separation = 1.4
        noise_sigma = 0.7
        seed = 5
        """
        assert parse_synth_config(text) == SMALL

    def test_parse_unknown_key_rejected(self):
        with pytest.raises(SynthError, match="unknown key"):
            parse_synth_config("wobble = 3\n")

    def test_parse_bad_value_rejected(self):
        with pytest.raises(SynthError, match="bad value"):
            parse_synth_config("dim = eight\n")

    def test_parse_bad_line_rejected(self):
        with pytest.raises(SynthError, match="expected"):
            parse_synth_config("just some words\n")


class TestGenerate:
    def test_split_arithmetic_single_leaf(self, tax):
        """A lone leaf count of 10 splits into 8 bank entries and 2 queries."""
        cfg = SynthConfig(per_leaf_counts=counts_with(tax, BL=10), seed=1)
        bank, queries = generate(cfg, tax)
        assert len(bank) == 8
        assert len(queries) == 2
        bl = tax.index_of(3, "BL")
        assert all(int(l3) == bl for l3 in bank.labels[:, 2])
        assert all(r["label"] == "BL" for r in queries)

    def test_split_rule_across_all_leaves(self, tax):
        """Each leaf contributes floor(0.8 * count) bank entries."""
        bank, queries = generate(SMALL, tax)
        hist = bank.leaf_histogram()
        for leaf, count in enumerate(SMALL.per_leaf_counts):
            assert hist.get(leaf, 0) == int(0.8 * count)
        assert len(queries) == sum(SMALL.per_leaf_counts) - len(bank)

    def test_count_one_cannot_split(self, tax):
        cfg_counts = counts_with(tax, BL=1, LY=4)
        with pytest.raises(SynthError, match="too small to split"):
            generate(SynthConfig(per_leaf_counts=cfg_counts), tax)

    def test_same_seed_bit_identical(self, tax):
        bank_a, queries_a = generate(SMALL, tax)
        bank_b, queries_b = generate(SMALL, tax)
        assert bank_a.ids == bank_b.ids
        assert bank_a.vectors.tobytes() == bank_b.vectors.tobytes()
        assert_same_set(queries_a, queries_b)

    def test_different_seed_differs(self, tax):
        bank_a, _ = generate(SMALL, tax)
        cfg = SynthConfig(
            dim=SMALL.dim, per_leaf_counts=SMALL.per_leaf_counts,
            lineage_separation=SMALL.lineage_separation,
            leaf_separation=SMALL.leaf_separation,
            noise_sigma=SMALL.noise_sigma, seed=SMALL.seed + 1,
        )
        bank_b, _ = generate(cfg, tax)
        assert bank_a.vectors.tobytes() != bank_b.vectors.tobytes()

    def test_all_vectors_unit_norm(self, tax):
        bank, queries = generate(SMALL, tax)
        for vecs in (bank.vectors.astype(np.float64), queries.vectors.astype(np.float64)):
            np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-6)

    def test_wide_separation_makes_nearest_neighbor_trivial(self, tax):
        """With tiny noise the nearest bank entry names the right leaf."""
        cfg = SynthConfig(
            dim=10, per_leaf_counts=(24,) * 13, lineage_separation=30.0,
            leaf_separation=8.0, noise_sigma=0.05, seed=3,
        )
        bank, queries = generate(cfg, tax)
        hits = 0
        for rec in queries:
            pred = classify_batch(bank, [rec["vector"]], 1, tax).flat_leaf[0]
            hits += pred == tax.index_of(3, rec["label"])
        assert hits / len(queries) >= 0.99

    def test_count_length_checked(self, tax):
        with pytest.raises(SynthError, match="counts"):
            generate(SynthConfig(per_leaf_counts=(5, 5)), tax)


class TestMemberBanks:
    def test_shared_query_set_and_member_sizes(self, tax):
        banks, queries = generate_member_banks(SMALL, 3, tax)
        assert len(banks) == 3
        single_bank, single_queries = generate(SMALL, tax)
        assert len(queries) == len(single_queries)
        for bank in banks:
            assert len(bank) == len(single_bank)
            assert bank.leaf_histogram() == single_bank.leaf_histogram()

    def test_member_ids_disjoint(self, tax):
        banks, _ = generate_member_banks(SMALL, 3, tax)
        all_ids = [rid for bank in banks for rid in bank.ids]
        assert len(all_ids) == len(set(all_ids))

    def test_members_differ_from_each_other(self, tax):
        banks, _ = generate_member_banks(SMALL, 3, tax)
        assert banks[0].vectors.tobytes() != banks[1].vectors.tobytes()
        assert banks[1].vectors.tobytes() != banks[2].vectors.tobytes()

    def test_deterministic_per_seed(self, tax):
        banks_a, queries_a = generate_member_banks(SMALL, 2, tax)
        banks_b, queries_b = generate_member_banks(SMALL, 2, tax)
        for a, b in zip(banks_a, banks_b):
            assert a.vectors.tobytes() == b.vectors.tobytes()
        assert_same_set(queries_a, queries_b)

    def test_member_vectors_unit_norm(self, tax):
        banks, _ = generate_member_banks(SMALL, 2, tax)
        for bank in banks:
            norms = np.linalg.norm(bank.vectors.astype(np.float64), axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_member_count_validated(self, tax):
        with pytest.raises(ValueError, match="at least one member"):
            generate_member_banks(SMALL, 0, tax)


class TestApplyShift:
    def test_identity_spec_preserves_vectors(self, tax):
        _, queries = generate(SMALL, tax)
        out = apply_shift(queries, ShiftSpec(0.0, 0.0, 0.0), seed=9)
        np.testing.assert_allclose(out.vectors, queries.vectors, atol=1e-7)

    def test_labels_ids_and_order_preserved(self, tax):
        _, queries = generate(SMALL, tax)
        out = apply_shift(queries, MODERATE_SHIFT, seed=4)
        assert out.ids == queries.ids
        assert out.labels == queries.labels

    def test_half_turn_applied_twice_is_identity(self, tax):
        """Rotating by pi in the same seeded plane twice returns the input."""
        _, queries = generate(SMALL, tax)
        spec = ShiftSpec(rotation_angle=math.pi, bias=0.0, extra_noise=0.0)
        once = apply_shift(queries, spec, seed=7)
        twice = apply_shift(once, spec, seed=7)
        np.testing.assert_allclose(twice.vectors, queries.vectors, atol=1e-6)

    def test_shifted_vectors_stay_unit_norm(self, tax):
        _, queries = generate(SMALL, tax)
        out = apply_shift(queries, MODERATE_SHIFT, seed=2)
        np.testing.assert_allclose(
            np.linalg.norm(out.vectors.astype(np.float64), axis=1), 1.0, atol=1e-6
        )

    def test_moderate_shift_degrades_flat_retrieval(self, tax):
        """The stock shift lowers flat vote quality on the stock dataset."""
        bank, queries = generate(SynthConfig(), tax)
        shifted = apply_shift(queries, MODERATE_SHIFT, seed=0)

        def mf1_of(records):
            truth, preds = [], []
            for rec in records:
                preds.append(classify_batch(bank, [rec["vector"]], 7, tax).flat_leaf[0])
                truth.append(tax.index_of(3, rec["label"]))
            return macro_f1(confusion(truth, preds, tax.leaf_count))

        clean = mf1_of(queries)
        degraded = mf1_of(shifted)
        assert degraded < clean

    @staticmethod
    def reference_shift(queries, spec, seed):
        """The shift applied one record at a time, each vector a (1, dim) row."""
        rng = np.random.default_rng(seed)
        dim = queries.vectors.shape[1]
        q, r = np.linalg.qr(rng.standard_normal((dim, 2)))
        plane = q * np.sign(np.diag(r))
        u, v = plane[:, 0], plane[:, 1]
        b = rng.standard_normal(dim)
        bias = spec.bias * (b / np.linalg.norm(b))
        cos_t, sin_t = np.cos(spec.rotation_angle), np.sin(spec.rotation_angle)
        out = []
        for vec in queries.vectors:
            x = np.asarray(vec, dtype=np.float64)[None, :]
            a, c = x @ u, x @ v
            rotated = (x + (cos_t - 1.0) * (np.outer(a, u) + np.outer(c, v))
                       + sin_t * (np.outer(a, v) - np.outer(c, u)))[0]
            shifted = rotated + bias + spec.extra_noise * rng.standard_normal(dim)
            unit = (shifted / np.sqrt(shifted.dot(shifted))).astype(np.float32)
            out.append(unit)
        return QuerySet(queries.ids, np.array(out), queries.labels)

    @pytest.mark.parametrize("dim", [4, 5, 8, 10, 17, 33, 64, 129])
    def test_equals_one_record_at_a_time(self, tax, dim):
        """The batched pass gives the per-record result bit for bit."""
        _, queries = generate(SynthConfig(dim=dim, seed=dim), tax)
        for spec, seed in ((MODERATE_SHIFT, 3), (ShiftSpec(1.1, 0.4, 0.0), 8)):
            expected = self.reference_shift(queries, spec, seed)
            assert_same_set(apply_shift(queries, spec, seed), expected)

    def test_empty_set(self):
        empty = QuerySet((), np.zeros((0, 8), dtype=np.float32), ())
        assert_same_set(apply_shift(empty, MODERATE_SHIFT, seed=1), empty)

    def test_manifest_round_trip(self, tax):
        """A shifted set written as JSON Lines parses back to the same ids,
        labels and vector values: every float32 entry survives as text."""
        _, queries = generate(SynthConfig(dim=33, seed=2), tax)
        shifted = apply_shift(queries, MODERATE_SHIFT, seed=5)
        buf = io.StringIO()
        write_manifest(shifted, buf)
        parsed = QuerySet.from_records(read_manifest(io.StringIO(buf.getvalue())), 33, True)
        assert parsed.ids == shifted.ids
        assert parsed.labels == shifted.labels
        assert parsed.vectors.tobytes() == shifted.vectors.astype(np.float64).tobytes()

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ShiftSpec(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError, match="extra_noise"):
            ShiftSpec(0.0, 0.0, -0.1)


class TestRowBlocks:
    """Draws, shifts and builds go a block of rows at a time; the block size
    never changes a result, bit for bit."""

    def outputs(self, tax):
        rng = np.random.default_rng(6)
        means = rng.standard_normal((tax.leaf_count, 8))
        drawn = _draw(np.random.default_rng(2), means, SMALL.per_leaf_counts, 0.7)
        bank, queries = generate(SMALL, tax)
        shifted = apply_shift(queries, MODERATE_SHIFT, seed=3)
        members, member_queries = generate_member_banks(SMALL, 2, tax)
        return [drawn, bank.vectors, queries.vectors, shifted.vectors,
                *(m.vectors for m in members), member_queries.vectors]

    @pytest.mark.parametrize("values", [1, 8 * 5 + 3])
    def test_blocks_match_one_block(self, tax, monkeypatch, values):
        """Rows of 1, or of 5 dim-8 rows, against a block that holds every set."""
        monkeypatch.setattr(bank_module, "BLOCK_VALUES", 1 << 30)
        whole = self.outputs(tax)
        assert whole[0].dtype == np.float32 and len(whole[0]) == sum(SMALL.per_leaf_counts)
        monkeypatch.setattr(bank_module, "BLOCK_VALUES", values)
        for a, b in zip(self.outputs(tax), whole, strict=True):
            assert a.tobytes() == b.tobytes()
