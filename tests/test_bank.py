"""Feature bank construction, normalization, serialization, and merging."""
from __future__ import annotations

import io
import tracemalloc

import numpy as np
import pytest

from hierknn import (
    BankError,
    BankFormatError,
    FeatureBank,
    ManifestError,
    QuerySet,
    bank_build,
    bank_build_arrays,
    bank_load,
    bank_merge,
    bank_save,
    l2_normalize,
    load_taxonomy,
    normalize_rows,
    read_manifest,
    write_manifest,
)
from conftest import bank_from_arrays, save_v1, unit_rows


def with_columns(bank: FeatureBank, labels=None, vectors=None) -> FeatureBank:
    """The bank rebuilt through the constructor with other label or vector columns."""
    return FeatureBank(bank.dim, bank.ids,
                       bank.labels if labels is None else labels,
                       bank.vectors if vectors is None else vectors, bank.taxonomy_digest)


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
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-7)

    def test_zero_vector_rejected(self):
        with pytest.raises(BankError, match="zero-norm"):
            l2_normalize([0.0] * 8)

    def test_empty_vector_rejected(self):
        with pytest.raises(BankError, match="empty"):
            l2_normalize([])

    def test_non_finite_rejected(self):
        with pytest.raises(BankError, match="non-finite"):
            l2_normalize([1.0, float("nan")])

    def test_random_vectors_come_back_unit(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = l2_normalize(rng.standard_normal(64) * rng.uniform(0.01, 100))
            assert v.dtype == np.float32
            assert abs(np.linalg.norm(v.astype(np.float64)) - 1.0) <= 1e-6


class TestNormalizeRows:
    @staticmethod
    def reference(x: np.ndarray) -> np.ndarray:
        """One row at a time, as a single-vector normalizer computes it."""
        return np.stack([(row / np.sqrt(row.dot(row))).astype(np.float32) for row in x])

    def test_equals_per_row_reference_bit_for_bit(self):
        rng = np.random.default_rng(19)
        dims = [4, 5, 7, 8, 9, 10, 15, 16, 17, 31, 32, 33, 64, 100, 128, 255, 256, 257]
        dims += rng.integers(4, 258, 20).tolist()
        for dim in dims:
            n = int(rng.integers(1, 40))
            x = rng.standard_normal((n, dim)) * rng.uniform(1e-3, 1e3, (n, 1))
            once = normalize_rows(x)
            assert once.dtype == np.float32
            assert once.tobytes() == self.reference(x).tobytes(), dim
            # a second pass over already-unit float32 rows, as bank building does
            again = once.astype(np.float64)
            assert normalize_rows(again).tobytes() == self.reference(again).tobytes(), dim

    def test_one_row_form_is_l2_normalize(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((25, 10))
        rows = np.stack([l2_normalize(row) for row in x])
        assert rows.tobytes() == normalize_rows(x).tobytes()

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
        assert [tuple(row) for row in bank.labels.tolist()] == [
            tax.path_of(leaf).as_tuple() for leaf in leaves
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

    def test_truncated_stream_rejected(self, tax):
        buf = io.BytesIO()
        save_v1(bank_from_arrays(tax, unit_rows(np.random.default_rng(2), 3, 4), [0, 1, 2]), buf)
        data = buf.getvalue()
        with pytest.raises(BankFormatError, match="truncated"):
            bank_load(io.BytesIO(data[: len(data) - 3]), tax)

    def test_trailing_bytes_rejected(self, tax):
        buf = io.BytesIO()
        save_v1(bank_from_arrays(tax, unit_rows(np.random.default_rng(3), 1, 4), [5]), buf)
        with pytest.raises(BankFormatError, match="trailing"):
            bank_load(io.BytesIO(buf.getvalue() + b"x"), tax)

    def test_long_id_round_trips(self, tax):
        """v2 has no per-id length cap: a 70,000-byte id round-trips. (v1's
        u16 id length capped ids at 65535 bytes; v1 is no longer written.)"""
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

    def test_v1_file_loads_to_the_bank_it_holds(self, tax):
        """A v1 file still loads, to the same ids, labels and vectors, and
        saves again as the v2 bytes of the bank it holds."""
        rng = np.random.default_rng(12)
        bank = bank_from_arrays(tax, unit_rows(rng, 40, 12),
                                list(rng.integers(0, tax.leaf_count, 40)),
                                ids=[f"id-α{i}" for i in range(40)])
        v1, v2 = io.BytesIO(), io.BytesIO()
        save_v1(bank, v1)
        bank_save(bank, v2)
        assert v1.getvalue()[4:8] == (1).to_bytes(4, "little")
        assert v2.getvalue()[4:8] == (2).to_bytes(4, "little")
        loaded = bank_load(io.BytesIO(v1.getvalue()), tax)
        assert loaded.ids == bank.ids
        assert loaded.labels.tobytes() == bank.labels.tobytes()
        assert loaded.vectors.tobytes() == bank.vectors.tobytes()
        again = io.BytesIO()
        bank_save(loaded, again)
        assert again.getvalue() == v2.getvalue()

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


class TestLoadRejectsBadInput:
    """Corrupt v1 files: v1 is still read, so each of its checks still holds."""

    @staticmethod
    def saved(tax, ids=("a", "bb", "ccc"), dim=4):
        rng = np.random.default_rng(5)
        bank = bank_from_arrays(tax, unit_rows(rng, len(ids), dim),
                                list(range(len(ids))), ids=list(ids))
        buf = io.BytesIO()
        save_v1(bank, buf)
        return bank, buf.getvalue()

    @staticmethod
    def field_boundaries(bank) -> list[int]:
        """Byte offset of every field boundary in a saved v1 bank."""
        offsets, pos = [], 0
        for size in (4, 4, 4, 8, 32):  # magic, version, dim, count, digest
            pos += size
            offsets.append(pos)
        for rid in bank.ids:
            for size in (2, len(rid.encode("utf-8")), 6, 4 * bank.dim):
                pos += size
                offsets.append(pos)
        return offsets

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

    def test_invalid_utf8_id_names_entry_and_offset(self, tax):
        _, data = self.saved(tax)
        corrupt = bytearray(data)
        offset = 52 + (2 + 1 + 6 + 16) + 2  # header, entry 0, entry 1's id length
        assert corrupt[offset:offset + 2] == b"bb"
        corrupt[offset] = 0xFF
        message = f"entry 1: id at byte {offset} is not valid UTF-8"
        with pytest.raises(BankFormatError, match=message):
            bank_load(io.BytesIO(bytes(corrupt)), tax)

    def test_source_needs_only_read(self, tax):
        """The loader reads the source once and never seeks or tells."""
        bank, data = self.saved(tax)

        class ReadOnly:
            def __init__(self):
                self.calls = 0

            def read(self, *args):
                self.calls += 1
                return data

        source = ReadOnly()
        loaded = bank_load(source, tax)
        assert source.calls == 1
        assert loaded.ids == bank.ids
        assert loaded.vectors.tobytes() == bank.vectors.tobytes()

    def test_oversized_count_named_before_allocation(self, tax):
        _, data = self.saved(tax)
        header = bytearray(data)
        header[12:20] = (2**40).to_bytes(8, "little")
        with pytest.raises(BankFormatError, match=str(2**40)):
            bank_load(io.BytesIO(bytes(header)), tax)

    def test_oversized_dim_rejected(self, tax):
        _, data = self.saved(tax)
        header = bytearray(data)
        header[8:12] = (2**31).to_bytes(4, "little")
        with pytest.raises(BankFormatError, match="entries of dim 2147483648"):
            bank_load(io.BytesIO(bytes(header)), tax)

    def test_nan_vector_named(self, tax):
        bank, _ = self.saved(tax)
        vectors = bank.vectors.copy()
        vectors[1, 2] = np.nan
        bank = with_columns(bank, vectors=vectors)
        buf = io.BytesIO()
        save_v1(bank, buf)
        with pytest.raises(BankFormatError, match="'bb': non-finite"):
            bank_load(io.BytesIO(buf.getvalue()), tax)

    def test_unseekable_stream_still_loads(self, tax):
        bank, data = self.saved(tax)
        loaded = bank_load(Unseekable(data), tax)
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
        bank = with_columns(bank, labels=labels)
        buf = io.BytesIO()
        save_v1(bank, buf)
        limit = tax.node_count(2) + 7
        with pytest.raises(BankFormatError, match=f"'bb': level-2 label {limit} out of range"):
            bank_load(io.BytesIO(buf.getvalue()), tax)


def _aligned(offset: int) -> int:
    return -(-offset // 64) * 64


class TestLoadRejectsBadInputV2:
    """Corrupt v2 files: the twins of TestLoadRejectsBadInput, and the
    offset, padding and UTF-8 cut checks that only v2 has."""

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

    def test_source_needs_only_read(self, tax):
        """The loader reads the source once and never seeks or tells."""
        bank, data = self.saved(tax)

        class ReadOnly:
            def __init__(self):
                self.calls = 0

            def read(self, *args):
                self.calls += 1
                return data

        source = ReadOnly()
        loaded = bank_load(source, tax)
        assert source.calls == 1
        assert loaded.ids == bank.ids
        assert loaded.vectors.tobytes() == bank.vectors.tobytes()

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
        bank, _ = self.saved(tax)
        vectors = bank.vectors.copy()
        vectors[1, 2] = np.nan
        buf = io.BytesIO()
        bank_save(with_columns(bank, vectors=vectors), buf)
        with pytest.raises(BankFormatError, match="'bé': non-finite"):
            bank_load(io.BytesIO(buf.getvalue()), tax)

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
