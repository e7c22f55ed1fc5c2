"""Feature bank construction, normalization, serialization, and merging."""
from __future__ import annotations

import io
import json
import math
import struct
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hierknn import (
    BankError,
    BankFormatError,
    FeatureBank,
    ManifestError,
    QuerySet,
    SynthConfig,
    bank_build,
    bank_build_arrays,
    bank_load,
    bank_merge,
    bank_save,
    classify_batch,
    generate,
    load_taxonomy,
    normalize_rows,
    parse_synth_config,
    read_manifest,
    write_manifest,
)
from hierknn import bank as bank_module
from hierknn.bank import _duplicate_id, _encode_ids, _id_keys
from conftest import bank_from_arrays, unit_rows


SMALL_SYNTH = """
dim = 8
per_leaf_counts = 12, 10, 8, 20, 30, 12, 8, 6, 10, 24, 6, 5, 9
lineage_separation = 3.0
leaf_separation = 1.4
noise_sigma = 0.7
seed = 5
"""  # the determinism fixture's synth config


def with_columns(bank: FeatureBank, labels=None, vectors=None) -> FeatureBank:
    """The bank rebuilt through the constructor with other label or vector columns."""
    return FeatureBank(bank.dim, bank.ids,
                       bank.labels if labels is None else labels,
                       bank.vectors if vectors is None else vectors, bank.taxonomy_digest)


def with_entry(data: bytes, n: int, dim: int, i: int, j: int, value: float) -> bytes:
    """Saved bank bytes with vector entry (i, j) set to ``value``: the vector
    block is the file's last 4 n dim bytes."""
    at = len(data) - 4 * n * dim + 4 * (i * dim + j)
    return data[:at] + struct.pack("<f", value) + data[at + 4:]


def roundtrip(bank: FeatureBank, tax) -> FeatureBank:
    buf = io.BytesIO()
    bank_save(bank, buf)
    buf.seek(0)
    return bank_load(buf, tax)


class Unseekable(io.RawIOBase):
    """A readable stream that cannot seek or tell, like a pipe."""

    def __init__(self, data):
        self.inner = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, b):
        chunk = self.inner.read(len(b))
        b[: len(chunk)] = chunk
        return len(chunk)


def records_for(tax, leaves: list[str], dim: int = 4, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [
        {"id": f"r{i}", "label": leaf, "vector": list(rng.standard_normal(dim))}
        for i, leaf in enumerate(leaves)
    ]


class TestNormalize:
    """One-row blocks through normalize_rows."""

    def test_three_four_five(self):
        np.testing.assert_allclose(normalize_rows([[3.0, 4.0]])[0], [0.6, 0.8], atol=1e-7)

    def test_zero_vector_rejected(self):
        with pytest.raises(BankError, match="zero-norm"):
            normalize_rows([[0.0] * 8])

    def test_empty_vector_rejected(self):
        with pytest.raises(BankError, match="empty"):
            normalize_rows(np.ones((1, 0)))

    def test_non_finite_rejected(self):
        with pytest.raises(BankError, match="non-finite"):
            normalize_rows([[1.0, float("nan")]])

    def test_random_vectors_come_back_unit(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            (v,) = normalize_rows(rng.standard_normal((1, 64)) * rng.uniform(0.01, 100))
            assert v.dtype == np.float32
            assert abs(np.linalg.norm(v.astype(np.float64)) - 1.0) <= 1e-6


class TestNormalizeRows:
    @staticmethod
    def reference(x: np.ndarray) -> np.ndarray:
        """One row at a time, as a single-vector normalizer computes it."""
        return np.stack([(row / np.sqrt(row.dot(row))).astype(np.float32) for row in x])

    def test_equals_per_row_reference_bit_for_bit(self, monkeypatch):
        """Also with row blocks of 1 row, and of a few rows, so that most
        inputs cross several blocks."""
        rng = np.random.default_rng(19)
        dims = [4, 5, 7, 8, 9, 10, 15, 16, 17, 31, 32, 33, 64, 100, 128, 255, 256, 257]
        dims += rng.integers(4, 258, 20).tolist()
        for dim in dims:
            n = int(rng.integers(1, 40))
            x = rng.standard_normal((n, dim)) * rng.uniform(1e-3, 1e3, (n, 1))
            for values in (bank_module.BLOCK_VALUES, 1, 3 * dim + 1):
                monkeypatch.setattr(bank_module, "BLOCK_VALUES", values)
                once = normalize_rows(x)
                assert once.dtype == np.float32
                assert once.tobytes() == self.reference(x).tobytes(), (dim, values)
                # a second pass over already-unit float32 rows, as bank building does
                again = once.astype(np.float64)
                assert normalize_rows(again).tobytes() == self.reference(again).tobytes(), dim
                monkeypatch.undo()

    @pytest.mark.parametrize("bad, why", [
        (np.nan, "non-finite"),
        (np.inf, "non-finite"),
        (0.0, "zero-norm"),
        (1e-14, "zero-norm"),
    ])
    def test_first_unusable_row_named(self, bad, why):
        x = np.ones((6, 4))
        x[2] = bad if why == "zero-norm" else [1.0, bad, 1.0, 1.0]
        x[4] = 0.0
        with pytest.raises(BankError, match=f"row 2: {why} vector"):
            normalize_rows(x)
        with pytest.raises(BankError, match=f"record 'c': {why} vector"):
            normalize_rows(x, ids="abcdef")

    def test_shape_checked(self):
        with pytest.raises(BankError, match="block"):
            normalize_rows(np.ones(4))
        with pytest.raises(BankError, match="empty"):
            normalize_rows(np.ones((3, 0)))
        assert normalize_rows(np.ones((0, 4))).shape == (0, 4)


class TestBuildArrays:
    def test_equals_bank_build(self, tax):
        recs = records_for(tax, ["MO", "BA", "PC", "MO", "BL"], dim=7, seed=8)
        built = bank_build(recs, tax)
        direct = bank_build_arrays(
            [r["id"] for r in recs],
            [tax.index_of(3, r["label"]) for r in recs],
            np.asarray([r["vector"] for r in recs]),
            tax,
        )
        assert direct.ids == built.ids
        assert direct.labels.tobytes() == built.labels.tobytes()
        assert direct.vectors.tobytes() == built.vectors.tobytes()

    def test_label_paths_follow_the_taxonomy(self, tax):
        leaves = list(range(tax.leaf_count))
        bank = bank_build_arrays(
            [f"e{i}" for i in leaves], leaves, np.ones((len(leaves), 4)), tax
        )
        assert bank.labels.tolist() == [
            [tax.parent_of(2, tax.parent_of(3, leaf)), tax.parent_of(3, leaf), leaf]
            for leaf in leaves
        ]

    def test_bad_records_named_by_id(self, tax):
        vectors = np.ones((3, 4))
        vectors[1] = 0.0
        with pytest.raises(BankError, match="record 'y': zero-norm"):
            bank_build_arrays(["x", "y", "z"], [0, 1, 2], vectors, tax)
        with pytest.raises(BankError, match=f"record 'z': leaf index {tax.leaf_count} out of range"):
            bank_build_arrays(["x", "y", "z"], [0, 1, tax.leaf_count], np.ones((3, 4)), tax)
        with pytest.raises(BankError, match="record 'x': leaf index -1"):
            bank_build_arrays(["x", "y", "z"], [-1, 1, 2], np.ones((3, 4)), tax)

    def test_columns_must_align(self, tax):
        with pytest.raises(BankError, match="differ in length"):
            bank_build_arrays(["x", "y"], [0, 1, 2], np.ones((3, 4)), tax)
        with pytest.raises(BankError, match="no entries"):
            bank_build_arrays([], [], np.ones((0, 4)), tax)
        with pytest.raises(BankError, match="duplicate id"):
            bank_build_arrays(["x", "x"], [0, 1], np.ones((2, 4)), tax)


class TestBuild:
    def test_three_leaves_three_lineages(self, tax):
        """Leaf names resolve to full three-level label paths."""
        bank = bank_build(records_for(tax, ["BL", "LY", "SNE"]), tax)
        assert len(bank) == 3
        l1_names = {tax.name_of(1, int(l1)) for l1 in bank.labels[:, 0]}
        assert l1_names == {"Blast", "Lymphoid", "Myeloid"}

    def test_order_preserved(self, tax):
        recs = records_for(tax, ["MO", "BA", "PC", "MO"], seed=3)
        bank = bank_build(recs, tax)
        assert bank.ids == tuple(r["id"] for r in recs)

    def test_vectors_are_normalized(self, tax):
        bank = bank_build(records_for(tax, ["EO"] * 20, dim=9, seed=5), tax)
        norms = np.linalg.norm(bank.vectors.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_unknown_leaf_rejected(self, tax):
        recs = records_for(tax, ["XYZ"])
        with pytest.raises(BankError, match="unknown leaf"):
            bank_build(recs, tax)

    def test_mixed_dims_rejected(self, tax):
        recs = [
            {"id": "a", "label": "BL", "vector": [1.0, 0.0, 0.0, 0.0]},
            {"id": "b", "label": "LY", "vector": [1.0, 0.0, 0.0, 0.0, 0.0]},
        ]
        with pytest.raises(BankError, match="dim mismatch"):
            bank_build(recs, tax)

    def test_duplicate_id_rejected(self, tax):
        recs = records_for(tax, ["BL", "LY"])
        recs[1]["id"] = recs[0]["id"]
        with pytest.raises(BankError, match="duplicate id"):
            bank_build(recs, tax)

    def test_zero_vector_record_named_in_error(self, tax):
        recs = records_for(tax, ["BL"])
        recs[0]["vector"] = [0.0, 0.0, 0.0, 0.0]
        with pytest.raises(BankError, match="r0"):
            bank_build(recs, tax)

    def test_missing_label_rejected(self, tax):
        with pytest.raises(BankError, match="missing leaf label"):
            bank_build([{"id": "a", "vector": [1.0, 0.0]}], tax)

    def test_empty_manifest_rejected(self, tax):
        with pytest.raises(BankError, match="empty manifest"):
            bank_build([], tax)

    def test_non_numeric_vector_named(self, tax):
        recs = records_for(tax, ["BL", "LY"])
        recs[1]["vector"] = {"a": 1}
        with pytest.raises(BankError, match="record 'r1': vector must be a flat list"):
            bank_build(recs, tax)


class TestColumns:
    def test_columns_are_read_only_views(self, tax):
        """Writing to either column raises, so ``max_norm`` and ``label_max``
        cannot go stale; the caller's arrays are neither copied nor frozen."""
        labels = tax.paths[[0, 12]].astype(np.uint16)
        vectors = unit_rows(np.random.default_rng(8), 2, 4)
        bank = FeatureBank(4, ["a", "b"], labels, vectors, tax.digest)
        assert bank.label_max.tolist() == tax.paths[12].tolist()
        for column in (bank.labels, bank.vectors):
            with pytest.raises(ValueError, match="read-only"):
                column[0, 0] = 1
        assert np.shares_memory(bank.labels, labels) and np.shares_memory(bank.vectors, vectors)
        labels[0, 0] = vectors[0, 0] = 1  # the caller's arrays stay writable


def ceil_norm(row) -> float:
    """The exact norm of a row, rounded up to a float: the sum of its f64 squares
    (each exact for an f32 entry) is rounded once by ``math.fsum``, then settled
    against the exact rational sum."""
    exact = sum(Fraction(x) ** 2 for x in row.tolist())
    r = math.sqrt(math.fsum(x * x for x in row.tolist()))
    while Fraction(r) ** 2 < exact:
        r = math.nextafter(r, math.inf)
    while r > 0 and Fraction(math.nextafter(r, 0.0)) ** 2 >= exact:
        r = math.nextafter(r, 0.0)
    return r


class TestNormBound:
    """``max_norm`` bounds every row's exact norm from above, tightly where no
    f32 square overflows, and is inf where one does."""

    MAGNITUDES = (1e-45, 1e-40, 1e-20, 1.0, 1e18, 1e19)  # subnormal f32 included

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 64, 513, 4096])
    def test_bound_on_mixed_magnitudes(self, tax, dim):
        """Rows mix subnormal, 1e-20, unit, 1e18 and 1e19 entries: f32 squares
        underflow, and at 1e19 (and enough 1e18) overflow. Where no sum of
        squares overflows, the bound is at least the exact norm and at most
        it times 1 + 2^-16 + gamma_d, plus 2^-70 sqrt(d) for squares that
        underflow; where one does, it is inf."""
        rng = np.random.default_rng(dim)
        gamma = dim * 2.0 ** -24 / (1 - dim * 2.0 ** -24)
        overflows = set()
        for trial in range(12):
            kinds = rng.choice(len(self.MAGNITUDES), int(rng.integers(1, 4)), replace=False)
            n = int(rng.integers(1, 6))
            scale = np.array(self.MAGNITUDES)[rng.choice(kinds, (n, dim))]
            vectors = (scale * rng.uniform(0.5, 2.0, (n, dim))
                       * rng.choice([-1.0, 1.0], (n, dim))).astype(np.float32)
            if trial == 0:
                vectors[0] = 2e19  # its f32 square overflows at any dim
            bank = bank_from_arrays(tax, vectors, [0] * n)
            with np.errstate(over="ignore"):
                overflow = not np.isfinite(np.einsum("ij,ij->i", vectors, vectors)).all()
            overflows.add(overflow)
            if overflow:
                assert bank.max_norm == math.inf, trial
                continue
            exact = max(ceil_norm(row) for row in vectors)
            slack = exact * (2.0 ** -16 + gamma) + 2.0 ** -70 * math.sqrt(dim)
            assert exact <= bank.max_norm <= exact + slack, trial
        assert overflows == {True, False}

    @pytest.mark.parametrize("scale", [1.0, 1e19])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named(self, tax, bad, scale):
        """A NaN or inf entry still fails the load, naming its entry, beside
        unit rows and beside rows whose f32 squares overflow."""
        rng = np.random.default_rng(9)
        vectors = (rng.uniform(0.5, 2.0, (4, 16)) * scale).astype(np.float32)
        bank = bank_from_arrays(tax, vectors, [0, 1, 2, 3], ids=["a", "b", "c", "d"])
        buf = io.BytesIO()
        bank_save(bank, buf)
        data = with_entry(buf.getvalue(), 4, 16, 2, 5, bad)
        with pytest.raises(BankFormatError, match="^entry 'c': non-finite vector$"):
            bank_load(io.BytesIO(data), tax)

    @pytest.mark.parametrize("scale", [1.0, 1e19])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_names_non_finite_entry(self, tax, bad, scale):
        """The constructor rejects a NaN or inf entry as the load does, so no
        such bank reaches ``classify_batch``, ``bank_save`` or ``bank_merge``."""
        rng = np.random.default_rng(9)
        vectors = (rng.uniform(0.5, 2.0, (4, 16)) * scale).astype(np.float32)
        vectors[2, 5] = bad
        with pytest.raises(BankError, match="^entry 'c': non-finite vector$"):
            bank_from_arrays(tax, vectors, [0, 1, 2, 3], ids=["a", "b", "c", "d"])


class TestQuerySet:
    def test_duplicate_id_named(self):
        with pytest.raises(ManifestError, match="duplicate id 'b'"):
            QuerySet(["a", "b", "c", "b"], np.ones((4, 2)))

    def test_iterates_as_manifest_records(self):
        vectors = np.array([[1.0, 0.5], [0.25, -1.0]], dtype=np.float32)
        labelled = QuerySet(["a", "b"], vectors, ["BL", "LY"])
        assert [list(rec) for rec in labelled] == [["id", "label", "vector"]] * 2
        assert list(labelled) == [
            {"id": "a", "label": "BL", "vector": [1.0, 0.5]},
            {"id": "b", "label": "LY", "vector": [0.25, -1.0]},
        ]
        assert list(QuerySet(["a"], vectors[:1])) == [{"id": "a", "vector": [1.0, 0.5]}]

    def test_from_records_stacks_float64(self):
        recs = [{"id": "a", "label": "BL", "vector": [1, 0.1]},
                {"id": "b", "label": "LY", "vector": [0.2, 3]}]
        queries = QuerySet.from_records(recs, 2, labelled=True)
        assert queries.ids == ("a", "b") and queries.labels == ("BL", "LY")
        assert queries.vectors.dtype == np.float64
        assert queries.vectors.tolist() == [[1.0, 0.1], [0.2, 3.0]]
        assert QuerySet.from_records(recs, 2).labels is None
        assert QuerySet.from_records([], 5).vectors.shape == (0, 5)

    @pytest.mark.parametrize("vector, why", [
        ({"a": 1}, "flat list"),
        ("abc", "flat list"),
        (["x", 1.0], "flat list"),
        ([[1.0], [2.0]], "flat list"),
        ([10 ** 400, 1.0], "flat list"),
        (None, "flat list"),
        ([1.0, 0.0, 0.0], "dim mismatch: record 'bad' has dim 3, expected 2"),
        ([float("nan"), 1.0], "non-finite"),
        ([0.0, 0.0], "zero-norm"),
        ([True, 1.0], "flat list"),
        (["1.5", 1.0], "flat list"),
    ])
    def test_bad_vector_named(self, vector, why):
        recs = [{"id": "ok", "vector": [1.0, 0.0]}, {"id": "bad", "vector": vector}]
        with pytest.raises(ManifestError, match=why) as info:
            QuerySet.from_records(recs, 2)
        assert "'bad'" in str(info.value)

    def test_missing_label_named(self):
        recs = [{"id": "ok", "label": "BL", "vector": [1.0]}, {"id": "bad", "vector": [1.0]}]
        with pytest.raises(ManifestError, match="record 'bad': missing leaf label"):
            QuerySet.from_records(recs, 1, labelled=True)


def manifest_lines(records):
    """The records as JSON Lines text, one string per line, made as they are read."""
    return (json.dumps(rec) + "\n" for rec in records)


class TestRecordBlocks:
    """QuerySet.from_records parses a stream a block at a time (here: every two
    dim-2 records), and still names the same record, by the same rule, as a
    parse of the whole stream at once."""

    @pytest.fixture(autouse=True)
    def two_records_per_block(self, monkeypatch):
        monkeypatch.setattr(bank_module, "BLOCK_VALUES", 4)

    @staticmethod
    def recs(n, **vectors):
        out = [{"id": f"r{i}", "label": "BL", "vector": [1.0, float(i)]} for i in range(n)]
        for rid, vector in vectors.items():
            out[int(rid[1:])]["vector"] = vector
        return out

    def test_blocks_give_the_one_block_result(self, monkeypatch):
        recs = self.recs(9, r3=[0.5, -2.0], r8=[3, 4])
        blocked = QuerySet.from_records(read_manifest(manifest_lines(recs)), labelled=True)
        monkeypatch.undo()
        whole = QuerySet.from_records(recs, labelled=True)
        assert blocked.ids == whole.ids and blocked.labels == whole.labels
        assert blocked.vectors.dtype == np.float64
        assert blocked.vectors.tobytes() == whole.vectors.tobytes()

    def test_bad_json_after_bad_vector_comes_first(self):
        lines = list(manifest_lines(self.recs(6, r1="abc"))) + ["{not json\n"]
        with pytest.raises(ManifestError, match="line 7: invalid JSON"):
            QuerySet.from_records(read_manifest(iter(lines)), 2)

    def test_bad_vector_in_a_later_block_beats_an_earlier_non_finite_row(self):
        recs = self.recs(8, r0=[float("nan"), 1.0], r5=["x", 1.0])
        with pytest.raises(ManifestError, match="record 'r5': vector must be a flat list"):
            QuerySet.from_records(recs, 2)
        recs[5]["vector"] = [1.0, 2.0]
        with pytest.raises(ManifestError, match="record 'r0': non-finite vector"):
            QuerySet.from_records(recs, 2)

    @pytest.mark.parametrize("dim", [None, 2])
    def test_dim_mismatch_on_the_first_record_of_a_block_named(self, dim):
        recs = self.recs(6, r4=[1.0, 2.0, 3.0])  # blocks: r0 r1 | r2 r3 | r4 r5
        with pytest.raises(ManifestError,
                           match="dim mismatch: record 'r4' has dim 3, expected 2"):
            QuerySet.from_records(recs, dim)

    def test_zero_row_beats_an_earlier_missing_label(self):
        recs = self.recs(6, r5=[0.0, 0.0])
        del recs[0]["label"]
        with pytest.raises(ManifestError, match="record 'r5': zero-norm vector"):
            QuerySet.from_records(recs, 2, labelled=True)
        recs[5]["vector"] = [1.0, 0.0]
        with pytest.raises(ManifestError, match="record 'r0': missing leaf label"):
            QuerySet.from_records(recs, 2, labelled=True)

    def test_repeated_id_across_blocks_named_after_the_vectors(self, tax):
        recs = self.recs(6)
        recs[4]["id"] = "r1"
        with pytest.raises(BankError, match="duplicate id 'r1'"):
            bank_build(recs, tax)
        recs[5]["label"] = "XYZ"
        with pytest.raises(BankError, match="duplicate id 'r1'"):
            bank_build(recs, tax)


class TestIngestMemory:
    """Ingest keeps no whole-set float64 temporary and no parsed record past
    its block: the traced peak (numpy's buffers included) is a small multiple
    of the arrays the call returns."""

    def test_bank_build_over_a_streamed_manifest(self, tax):
        def lines(n, dim):
            rng = np.random.default_rng(3)
            names = tax.names(3)
            for i in range(n):
                yield json.dumps({"id": f"e{i}", "label": names[i % len(names)],
                                  "vector": rng.standard_normal(dim).tolist()}) + "\n"

        tracemalloc.start()
        try:
            bank = bank_build(read_manifest(lines(4096, 64)), tax)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (bank.vectors, bank.labels, bank.id_blob,
                                           bank.id_offsets))
        # a parse that keeps every record until the end reads about 11x
        assert peak <= 6 * returned, (peak, returned)

    def test_generate(self, tax):
        counts = tuple(2 * c for c in SynthConfig().per_leaf_counts)  # 3,872 rows
        cfg = SynthConfig(dim=64, per_leaf_counts=counts, seed=4)
        tracemalloc.start()
        try:
            bank, queries = generate(cfg, tax)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (bank.vectors, bank.labels, bank.id_blob,
                                           bank.id_offsets, queries.vectors))
        # whole-set float64 draws and normalizing copies read about 6.5x
        assert peak <= 4 * returned, (peak, returned)


class TestManifestIO:
    def test_round_trip(self):
        recs = [
            {"id": "a", "label": "BL", "vector": [1.0, 0.5]},
            {"id": "b", "label": "LY", "vector": [0.25, -1.0]},
        ]
        buf = io.StringIO()
        write_manifest(recs, buf)
        assert list(read_manifest(io.StringIO(buf.getvalue()))) == recs

    def test_invalid_json_line_rejected(self):
        with pytest.raises(ManifestError, match="line 2"):
            list(read_manifest(io.StringIO('{"id": "a"}\n{oops\n')))

    def test_non_object_line_rejected(self):
        with pytest.raises(ManifestError, match="not an object"):
            list(read_manifest(io.StringIO("[1, 2]\n")))

    def test_missing_id_rejected(self):
        with pytest.raises(ManifestError, match="'id'"):
            list(read_manifest(io.StringIO('{"label": "BL"}\n')))


class TestSerialization:
    def test_round_trip_bit_identical(self, tax):
        rng = np.random.default_rng(11)
        bank = bank_from_arrays(
            tax,
            unit_rows(rng, 40, 12),
            list(rng.integers(0, tax.leaf_count, 40)),
            ids=[f"id-α{i}" for i in range(40)],
        )
        loaded = roundtrip(bank, tax)
        assert loaded.ids == bank.ids
        assert loaded.dim == bank.dim
        assert np.array_equal(loaded.labels, bank.labels)
        assert loaded.vectors.tobytes() == bank.vectors.tobytes()

    def test_special_float_bit_patterns_survive(self, tax):
        """Negative zero, subnormals, and huge values round-trip exactly."""
        vecs = np.array(
            [[-0.0, 1e-45, 3e38, 1.0], [5e-41, -3e38, -0.0, -1.0]], dtype=np.float32
        )
        bank = bank_from_arrays(tax, vecs, [0, 12])
        loaded = roundtrip(bank, tax)
        assert loaded.vectors.tobytes() == vecs.tobytes()

    def test_empty_bank_round_trips(self, tax):
        empty = FeatureBank.empty(6, tax.digest)
        loaded = roundtrip(empty, tax)
        assert len(loaded) == 0 and loaded.dim == 6

    def test_fuzzed_round_trips(self, tax):
        """Random sizes, dims, and ids all reproduce exact bytes."""
        rng = np.random.default_rng(2024)
        for _ in range(25):
            n = int(rng.integers(0, 60))
            dim = int(rng.integers(2, 33))
            bank = bank_from_arrays(
                tax,
                unit_rows(rng, n, dim) if n else np.zeros((0, dim), dtype=np.float32),
                list(rng.integers(0, tax.leaf_count, n)),
            )
            loaded = roundtrip(bank, tax)
            assert loaded.ids == bank.ids
            assert np.array_equal(loaded.labels, bank.labels)
            assert loaded.vectors.tobytes() == bank.vectors.tobytes()

    def test_bad_magic_rejected(self, tax):
        buf = io.BytesIO()
        bank_save(bank_from_arrays(tax, unit_rows(np.random.default_rng(0), 2, 4), [0, 1]), buf)
        data = bytearray(buf.getvalue())
        data[:4] = b"NOPE"
        with pytest.raises(BankFormatError, match="bad magic"):
            bank_load(io.BytesIO(bytes(data)), tax)

    def test_taxonomy_mismatch_rejected(self, tax):
        other = load_taxonomy("[level1]\nA\n[level2]\nm -> A\n[level3]\nx -> m\n")
        buf = io.BytesIO()
        bank_save(bank_from_arrays(tax, unit_rows(np.random.default_rng(1), 2, 4), [0, 1]), buf)
        buf.seek(0)
        with pytest.raises(BankFormatError, match="taxonomy mismatch"):
            bank_load(buf, other)

    def test_long_id_round_trips(self, tax):
        """There is no per-id length cap: a 70,000-byte id round-trips."""
        ids = ["a", "bb", "x" * 70_000]
        bank = bank_from_arrays(tax, unit_rows(np.random.default_rng(6), 3, 4), [0, 1, 2], ids=ids)
        assert roundtrip(bank, tax).ids == bank.ids

    def test_save_writes_do_not_grow_with_entries(self, tax):
        """Whole blocks go out, not one write per entry: 3,000 entries take
        as many writes as 30."""

        class Sink(io.BytesIO):
            writes = 0

            def write(self, b):
                self.writes += 1
                return super().write(b)

        writes = []
        for n in (30, 3000):
            leaves = [i % tax.leaf_count for i in range(n)]
            bank = bank_from_arrays(tax, unit_rows(np.random.default_rng(7), n, 4), leaves)
            sink = Sink()
            bank_save(bank, sink)
            writes.append(sink.writes)
            sink.seek(0)
            assert bank_load(sink, tax).vectors.tobytes() == bank.vectors.tobytes()
        assert writes[0] == writes[1]

    def test_save_peak_memory_is_within_one_and_a_half_file_sizes(self, tax):
        """bank_save's traced peak stays within 1.5x the bytes it writes: the
        blocks go out from the bank's own arrays, with no copy of the file."""
        rng = np.random.default_rng(8)
        bank = bank_from_arrays(tax, unit_rows(rng, 20_000, 64),
                                list(rng.integers(0, tax.leaf_count, 20_000)))

        class Counter:
            written = 0

            def write(self, b):
                self.written += memoryview(b).nbytes

        sink = Counter()
        tracemalloc.start()
        try:
            bank_save(bank, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.written > 20_000 * 64 * 4
        assert peak <= 1.5 * sink.written, (peak, sink.written)

    def test_out_of_range_label_rejected(self, tax):
        bank = bank_from_arrays(tax, unit_rows(np.random.default_rng(4), 1, 4), [0])
        labels = bank.labels.copy()
        labels[0, 2] = tax.leaf_count
        bank = with_columns(bank, labels=labels)
        buf = io.BytesIO()
        bank_save(bank, buf)
        buf.seek(0)
        with pytest.raises(BankFormatError, match="out of range"):
            bank_load(buf, tax)


def _aligned(offset: int) -> int:
    return -(-offset // 64) * 64


class TestLoadRejectsBadInputV2:
    """Corrupt v2 files: truncation, header, offset, padding and UTF-8 cut
    checks, and out-of-range or non-finite entries."""

    @staticmethod
    def saved(tax, ids=("a", "bé", "ccc"), dim=4):
        rng = np.random.default_rng(5)
        bank = bank_from_arrays(tax, unit_rows(rng, len(ids), dim),
                                list(range(len(ids))), ids=list(ids))
        buf = io.BytesIO()
        bank_save(bank, buf)
        return bank, buf.getvalue()

    @staticmethod
    def layout(bank) -> dict[str, int]:
        """File offset of each section of a saved v2 bank, from the documented layout."""
        n = len(bank)
        blob = 60 + 8 * (n + 1)
        blob_end = blob + len("".join(bank.ids).encode("utf-8"))
        labels = _aligned(blob_end)
        vectors = _aligned(labels + 6 * n)
        return {"blob": blob, "blob_end": blob_end, "labels": labels,
                "vectors": vectors, "end": vectors + 4 * n * bank.dim}

    @classmethod
    def field_boundaries(cls, bank) -> list[int]:
        """Byte offset of every field boundary in a saved v2 bank."""
        at = cls.layout(bank)
        offsets, pos = [], 0
        for size in (4, 4, 4, 8, 32, 8) + (8,) * (len(bank) + 1):  # header, id offsets
            pos += size
            offsets.append(pos)
        for rid in bank.ids:
            pos += len(rid.encode("utf-8"))
            offsets.append(pos)
        offsets += [at["labels"] + 6 * i for i in range(len(bank) + 1)]
        offsets += [at["vectors"] + 4 * bank.dim * i for i in range(len(bank) + 1)]
        return offsets

    def test_id_offsets_are_each_ids_utf8_length(self, tax):
        """The offset table equals the running sum of each id's own UTF-8
        length, for ids of one- to four-byte characters and empty ids."""
        rng = np.random.default_rng(14)
        chars = ["a", "é", "日", "🙂"]
        ids = ["".join(rng.choice(chars, rng.integers(0, 6))) + f"-{i}" for i in range(200)]
        ids[7] = ""
        bank = bank_from_arrays(tax, unit_rows(rng, 200, 3), [0] * 200, ids=ids)
        buf = io.BytesIO()
        bank_save(bank, buf)
        offsets = np.frombuffer(buf.getvalue(), "<u8", 201, 60)
        assert offsets.tolist() == np.cumsum([0] + [len(r.encode("utf-8")) for r in ids]).tolist()
        assert roundtrip(bank, tax).ids == bank.ids

    def test_layout_is_the_documented_one(self, tax):
        bank, data = self.saved(tax)
        at = self.layout(bank)
        blob = "".join(bank.ids).encode("utf-8")
        assert len(data) == at["end"]
        assert data[:12] == b"HBNK" + (2).to_bytes(4, "little") + (4).to_bytes(4, "little")
        assert int.from_bytes(data[12:20], "little") == 3
        assert data[20:52] == tax.digest
        assert int.from_bytes(data[52:60], "little") == len(blob)
        assert np.frombuffer(data, "<u8", 4, 60).tolist() == [0, 1, 4, 7]
        assert data[at["blob"]:at["blob_end"]] == blob
        assert not any(data[at["blob_end"]:at["labels"]])
        assert data[at["labels"]:at["labels"] + 18] == bank.labels.astype("<u2").tobytes()
        assert not any(data[at["labels"] + 18:at["vectors"]])
        assert data[at["vectors"]:] == bank.vectors.astype("<f4").tobytes()

    def test_truncation_at_every_field_boundary(self, tax):
        """Every cut, at a field boundary or inside a field, of a file or a
        pipe, is a truncated stream: never a struct, index or decode error."""
        bank, data = self.saved(tax)
        boundaries = self.field_boundaries(bank)
        assert boundaries[-1] == len(data)
        for cut in range(len(data)):
            for stream in (io.BytesIO, Unseekable):
                with pytest.raises(BankFormatError, match="truncated"):
                    bank_load(stream(data[:cut]), tax)

    def test_trailing_bytes_rejected(self, tax):
        _, data = self.saved(tax)
        with pytest.raises(BankFormatError, match=f"trailing bytes after final entry "
                                                  fr"\(byte {len(data)}\)"):
            bank_load(io.BytesIO(data + b"\0"), tax)

    @pytest.mark.parametrize("section", ["blob_end", "labels_end"])
    def test_nonzero_padding_rejected(self, tax, section):
        """Padding must be zero, so each bank has exactly one encoding."""
        bank, data = self.saved(tax)
        at = self.layout(bank)
        pos = at["blob_end"] if section == "blob_end" else at["labels"] + 6 * len(bank)
        corrupt = bytearray(data)
        corrupt[pos + 1] = 0x20
        with pytest.raises(BankFormatError, match=f"nonzero padding at byte {pos + 1}"):
            bank_load(io.BytesIO(bytes(corrupt)), tax)

    def test_decreasing_offsets_rejected(self, tax):
        _, data = self.saved(tax)
        corrupt = bytearray(data)
        corrupt[68:84] = np.array([2, 1], dtype="<u8").tobytes()  # offsets 1 and 2
        with pytest.raises(BankFormatError, match="entry 1: id offset 1 at byte 76 is below"):
            bank_load(io.BytesIO(bytes(corrupt)), tax)

    @pytest.mark.parametrize("index, value", [(0, 1), (3, 6)], ids=["first", "last"])
    def test_offsets_must_span_the_blob(self, tax, index, value):
        _, data = self.saved(tax)
        corrupt = bytearray(data)
        corrupt[60 + 8 * index:68 + 8 * index] = value.to_bytes(8, "little")
        with pytest.raises(BankFormatError, match="not from 0 to 7"):
            bank_load(io.BytesIO(bytes(corrupt)), tax)

    def test_offset_inside_a_character_names_the_entry(self, tax):
        """An offset that cuts "é" in two leaves the blob valid UTF-8 as a
        whole, but not entry 1's id."""
        bank, data = self.saved(tax)
        blob = self.layout(bank)["blob"]
        corrupt = bytearray(data)
        corrupt[76:84] = (3).to_bytes(8, "little")  # was 4, after b"b\xc3\xa9"
        message = f"entry 1: id at byte {blob + 1} is not valid UTF-8"
        with pytest.raises(BankFormatError, match=message):
            bank_load(io.BytesIO(bytes(corrupt)), tax)

    def test_invalid_utf8_id_names_entry_and_offset(self, tax):
        bank, data = self.saved(tax)
        offset = self.layout(bank)["blob"] + 1  # entry 1's id, after entry 0's "a"
        corrupt = bytearray(data)
        assert corrupt[offset:offset + 1] == b"b"
        corrupt[offset] = 0xFF
        message = f"entry 1: id at byte {offset} is not valid UTF-8"
        with pytest.raises(BankFormatError, match=message):
            bank_load(io.BytesIO(bytes(corrupt)), tax)

    def test_unsupported_version_rejected(self, tax):
        _, data = self.saved(tax)
        corrupt = bytearray(data)
        corrupt[4:8] = (3).to_bytes(4, "little")
        with pytest.raises(BankFormatError, match="unsupported version 3"):
            bank_load(io.BytesIO(bytes(corrupt)), tax)

    def test_version_1_rejected_by_name(self, tax):
        """A version-1 header is named, with the way to rebuild, before any
        size check: an empty v1 bank (52 bytes, shorter than a v2 header)
        and a v1 header over a v2 body alike, from a file or a pipe."""
        _, data = self.saved(tax)
        empty_v1 = struct.pack("<4sIIQ32s", b"HBNK", 1, 4, 0, tax.digest)
        assert len(empty_v1) == 52
        v1_header = b"HBNK" + (1).to_bytes(4, "little") + data[8:]
        for stream in (io.BytesIO, Unseekable):
            for v1 in (empty_v1, v1_header):
                with pytest.raises(BankFormatError, match="version 1.*rebuild") as err:
                    bank_load(stream(v1), tax)
                assert "truncated" not in str(err.value)

    def test_source_needs_only_read(self, tax):
        """The loader needs only ``readinto``: a source that gives at most
        4,096 bytes a call and has no seek, tell or fileno loads byte for byte
        and is left at its end. The bank is over 64 KiB, the first buffer
        for a source of unknown size, so more buffers are read and then
        joined into one of exactly the bytes read."""
        bank = bank_from_arrays(tax, unit_rows(np.random.default_rng(6), 300, 64),
                                [i % 13 for i in range(300)])
        buf = io.BytesIO()
        bank_save(bank, buf)
        data = buf.getvalue()
        assert len(data) > 1 << 16

        class ReadintoOnly:
            def __init__(self):
                self.at = 0

            def readinto(self, b):
                chunk = data[self.at:self.at + min(len(b), 4096)]
                b[:len(chunk)] = chunk
                self.at += len(chunk)
                return len(chunk)

        source = ReadintoOnly()
        loaded = bank_load(source, tax)
        assert source.at == len(data)
        assert loaded.vectors.base.nbytes == len(data)  # no spare room is kept
        assert loaded.ids == bank.ids
        again = io.BytesIO()
        bank_save(loaded, again)
        assert again.getvalue() == data

    def test_oversized_count_named_before_allocation(self, tax):
        _, data = self.saved(tax)
        header = bytearray(data)
        header[12:20] = (2**40).to_bytes(8, "little")
        tracemalloc.start()
        try:
            with pytest.raises(BankFormatError, match=str(2**40)):
                bank_load(io.BytesIO(bytes(header)), tax)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_oversized_dim_rejected(self, tax):
        _, data = self.saved(tax)
        header = bytearray(data)
        header[8:12] = (2**31).to_bytes(4, "little")
        with pytest.raises(BankFormatError, match="entries of dim 2147483648"):
            bank_load(io.BytesIO(bytes(header)), tax)

    def test_nan_vector_named(self, tax):
        bank, data = self.saved(tax)
        data = with_entry(data, len(bank), bank.dim, 1, 2, np.nan)
        with pytest.raises(BankFormatError, match="'bé': non-finite"):
            bank_load(io.BytesIO(data), tax)

    def test_unseekable_stream_still_loads(self, tax):
        bank, data = self.saved(tax)
        loaded = bank_load(Unseekable(data), tax)
        assert loaded.ids == bank.ids
        assert loaded.vectors.tobytes() == bank.vectors.tobytes()

    @pytest.mark.parametrize("field, value", [
        (slice(12, 20), 2**40),  # count
        (slice(8, 12), 2**31),   # dim
    ])
    def test_unseekable_oversized_header_is_truncation(self, tax, field, value):
        """A pipe is read to its end and its header checked against the bytes
        read, as a file's is; nothing is sized from the header alone."""
        _, data = self.saved(tax)
        header = bytearray(data)
        header[field] = value.to_bytes(field.stop - field.start, "little")
        with pytest.raises(BankFormatError, match="truncated"):
            bank_load(Unseekable(bytes(header)), tax)

    def test_out_of_range_label_names_entry_and_level(self, tax):
        bank, _ = self.saved(tax)
        labels = bank.labels.copy()
        labels[2, 0] = tax.node_count(1)
        labels[1, 1] = tax.node_count(2) + 7
        buf = io.BytesIO()
        bank_save(with_columns(bank, labels=labels), buf)
        limit = tax.node_count(2) + 7
        with pytest.raises(BankFormatError, match=f"'bé': level-2 label {limit} out of range"):
            bank_load(io.BytesIO(buf.getvalue()), tax)


ID_CHARS = ("a", "b", "é", "🙂")  # one, two and four UTF-8 bytes


def random_id(rng, nbytes: int) -> str:
    """A random id over ``ID_CHARS`` of exactly ``nbytes`` UTF-8 bytes."""
    chars, left = [], nbytes
    while left:
        char = rng.choice([c for c in ID_CHARS if len(c.encode("utf-8")) <= left])
        chars.append(char)
        left -= len(char.encode("utf-8"))
    return "".join(chars)


class TestIdColumn:
    """Ids stay one UTF-8 column: uniqueness is checked on u64 keys, with
    exact comparison only where keys tie, and nothing decodes until read."""

    def test_key_verdict_matches_set(self):
        """Equal ids always get equal keys, and the uniqueness verdict is the
        set's, for ids of 0-24 bytes that cross the 8- and 16-byte edges."""
        rng = np.random.default_rng(2020)
        for trial in range(40):
            pool = [random_id(rng, int(rng.integers(0, 25))) for _ in range(50)]
            n = int(rng.integers(1, 120))
            ids = [pool[i] for i in rng.integers(0, len(pool), n)]
            if trial % 2:
                ids = list(dict.fromkeys(ids))  # unique, in first-occurrence order
            blob, offsets = _encode_ids(tuple(ids))
            key_of = {}
            for rid, key in zip(ids, _id_keys(blob, offsets).tolist()):
                assert key_of.setdefault(rid, key) == key, rid
            dup = _duplicate_id(blob, offsets)
            assert (dup is None) == (len(set(ids)) == len(ids))
            assert dup == next((rid for rid, c in Counter(ids).items() if c > 1), None)

    @pytest.mark.parametrize("a, b", [("abcdefgh-1-stuvwxyz", "abcdefgh-2-stuvwxyz"),
                                      ("🙂🙂é-1-é🙂🙂", "🙂🙂é-2-é🙂🙂")])
    def test_ids_sharing_length_and_ends(self, tax, a, b):
        """Ids longer than 16 bytes with the same length and first and last 8
        bytes tie on their keys: distinct ones load, equal ones are named."""
        blob, offsets = _encode_ids((a, b))
        keys = _id_keys(blob, offsets)
        assert len(a.encode("utf-8")) > 16 and keys[0] == keys[1]
        ids = (a, "m", b)
        _, data = TestLoadRejectsBadInputV2.saved(tax, ids)
        assert bank_load(io.BytesIO(data), tax).ids == ids
        at = data.index(b.encode("utf-8"))
        dup = data[:at] + a.encode("utf-8") + data[at + len(b.encode("utf-8")):]
        with pytest.raises(BankFormatError, match=f"^duplicate id '{a}'$"):
            bank_load(io.BytesIO(dup), tax)

    def test_ids_tied_on_the_key_match_set(self):
        """Ids built to tie on the key (one byte length over 16, shared first
        and last 8 bytes, the middle varying) are compared as bytes, and get
        the set's verdict."""
        rng = np.random.default_rng(2023)
        for trial in range(60):
            head, tail = random_id(rng, 8), random_id(rng, 8)
            middle = int(rng.integers(1, 40))
            pool = [head + random_id(rng, middle) + tail for _ in range(int(rng.integers(2, 30)))]
            ids = [pool[i] for i in rng.integers(0, len(pool), int(rng.integers(2, 80)))]
            if trial % 2:
                ids = list(dict.fromkeys(ids))
            blob, offsets = _encode_ids(tuple(ids))
            assert len(set(_id_keys(blob, offsets).tolist())) == 1
            dup = _duplicate_id(blob, offsets)
            assert dup == next((rid for rid, c in Counter(ids).items() if c > 1), None)
            assert (dup is None) == (len(set(ids)) == len(ids))

    def test_non_finite_vector_named_before_duplicate_id(self, tax):
        bank, data = TestLoadRejectsBadInputV2.saved(tax, ids=("ab", "cd", "ef"))
        dup = with_entry(data, len(bank), bank.dim, 2, 0, np.inf).replace(b"abcd", b"abab", 1)
        with pytest.raises(BankFormatError, match="^entry 'ef': non-finite vector$"):
            bank_load(io.BytesIO(dup), tax)
        with pytest.raises(BankFormatError, match="^duplicate id 'ab'$"):
            bank_load(io.BytesIO(data.replace(b"abcd", b"abab", 1)), tax)

    @pytest.mark.parametrize("config", [None, SMALL_SYNTH])
    def test_load_keeps_views_of_one_read(self, tax, config):
        """A loaded bank's four columns are read-only views of one ndarray,
        the buffer read, which holds exactly the file's bytes, and cannot be
        made writable; classify and save decode no id, and the save gives
        back the file byte for byte (the stock and the determinism-fixture
        banks)."""
        cfg = SynthConfig() if config is None else parse_synth_config(config)
        bank, queries = generate(cfg, tax)
        buf = io.BytesIO()
        bank_save(bank, buf)
        data = buf.getvalue()
        loaded = bank_load(io.BytesIO(data), tax)
        columns = (loaded.id_offsets, loaded.id_blob, loaded.labels, loaded.vectors)
        base = loaded.vectors.base
        assert isinstance(base, np.ndarray) and base.base is None
        assert base.tobytes() == data  # exactly the bytes read, no spare room
        for column in columns:
            assert column.base is base
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column.flags.writeable = True
        classify_batch(loaded, queries.vectors[:50], 5, tax)
        again = io.BytesIO()
        bank_save(loaded, again)
        assert again.getvalue() == data
        merged = bank_merge(loaded, FeatureBank.empty(loaded.dim, tax.digest))
        assert "ids" not in loaded.__dict__ and "ids" not in merged.__dict__
        assert loaded.ids == bank.ids and merged.ids == bank.ids


class TestMerge:
    def test_two_plus_three(self, tax):
        a = bank_build(records_for(tax, ["BL", "LY"], seed=1), tax)
        b = bank_build(
            [
                {"id": f"s{i}", "label": leaf, "vector": list(np.eye(4)[i % 4])}
                for i, leaf in enumerate(["MO", "EO", "BA"])
            ],
            tax,
        )
        merged = bank_merge(a, b)
        assert len(merged) == 5
        assert merged.ids == a.ids + b.ids
        assert np.array_equal(merged.vectors[:2], a.vectors)
        assert np.array_equal(merged.vectors[2:], b.vectors)

    def test_merge_with_empty_is_identity(self, tax):
        b = bank_build(records_for(tax, ["PMY", "PC"], seed=9), tax)
        merged = bank_merge(FeatureBank.empty(b.dim, tax.digest), b)
        assert merged.ids == b.ids
        assert merged.vectors.tobytes() == b.vectors.tobytes()

    def test_duplicate_id_rejected(self, tax):
        a = bank_build(records_for(tax, ["BL"], seed=2), tax)
        b = bank_build(records_for(tax, ["LY"], seed=3), tax)
        with pytest.raises(BankError, match="duplicate id"):
            bank_merge(a, b)

    def test_dim_mismatch_rejected(self, tax):
        a = bank_build(records_for(tax, ["BL"], dim=4), tax)
        b = bank_build(records_for(tax, ["LY"], dim=5), tax)
        b = FeatureBank(5, ["other"], b.labels, b.vectors, tax.digest)
        with pytest.raises(BankError, match="dim mismatch"):
            bank_merge(a, b)

    def test_digest_mismatch_rejected(self, tax):
        other = load_taxonomy("[level1]\nA\n[level2]\nm -> A\n[level3]\nx -> m\ny -> m\n")
        a = bank_build(records_for(tax, ["BL"]), tax)
        b = bank_build(records_for(other, ["x"]), other)
        with pytest.raises(BankError, match="taxonomy mismatch"):
            bank_merge(a, b)
