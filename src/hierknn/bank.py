"""Immutable store of L2-normalized labeled embeddings, plus its file formats.

Binary bank format, version 2 (little-endian), columnar after the Arrow
variable-size binary layout:

    magic    4 bytes  "HBNK"
    version  u32      2
    dim      u32
    count    u64
    digest   32 bytes taxonomy digest
    id_bytes u64      length of the id blob
    offsets  (count + 1) u64: id i is blob[offsets[i]:offsets[i + 1]];
             starts at 0, never decreases, ends at id_bytes
    blob     id_bytes bytes, the ids' UTF-8, back to back
    zero padding to a 64-byte file offset
    labels   (count, 3) u16: lineage, group, leaf
    zero padding to a 64-byte file offset
    vectors  (count, dim) f32

and nothing after. A version-1 file, from a release before version 2, is
rejected by name: rebuild it with ``bank build`` or ``synth``. A
:class:`FeatureBank` holds its ids in the same column, offsets and blob, so
a loaded bank's four columns are read-only views of the one buffer read.

Manifest format: one JSON object per line with fields ``id`` (string),
``label`` (leaf name), ``vector`` (array of numbers).
"""
from __future__ import annotations

import functools
import json
import math
import os
import struct
from collections import Counter
from itertools import chain
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import BankError, BankFormatError, ManifestError
from .taxonomy import Taxonomy

EPS_NORM = 1e-12

# Values in one row block of the ingest loops (normalize_rows, the records
# QuerySet.from_records parses at a time, synth's draws): 512 KB of float64,
# 1,024 rows at dim 64, so their temporaries do not grow with the set.
BLOCK_VALUES = 1 << 16

_MAGIC = b"HBNK"
_VERSION = 2
_HEADER = struct.Struct("<4sIIQ32sQ")
_ALIGN = 64  # file offset of the label and vector blocks
_LABELS = struct.Struct("<HHH")
_READ_START = 1 << 16  # first buffer size for a source whose size is unknown


def block_rows(dim: int) -> int:
    """Rows of ``dim`` values in one ingest block: at least 1."""
    return max(1, BLOCK_VALUES // max(dim, 1))


def normalize_rows(x, ids=None) -> np.ndarray:
    """Scale each row of an (n, d) block to unit norm; float32 out, float64 arithmetic.

    Each row's squared norm is its own BLAS dot product, summed as the one-row
    ``np.linalg.norm`` sums it, so row i equals ``normalize_rows(x[i:i + 1])``
    bit for bit. The rows go through in blocks of :func:`block_rows` into one
    float32 output, so no float64 temporary spans the whole input. Raises
    BankError naming the first non-finite or near-zero (norm <= 1e-12) row: as
    ``ids[i]`` if ids are given, else by index.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise BankError(f"expected an (n, d) block, got shape {x.shape}")
    if x.shape[1] == 0:
        raise BankError("empty vector")
    out = np.empty(x.shape, np.float32)
    step = block_rows(x.shape[1])
    for start in range(0, len(x), step):
        block = np.ascontiguousarray(x[start:start + step], dtype=np.float64)
        norms = np.sqrt((block[:, None, :] @ block[:, :, None]).ravel())
        finite = np.isfinite(block).all(axis=1)
        bad = ~finite | (norms <= EPS_NORM)
        if bad.any():
            i = start + int(np.argmax(bad))
            row = f"row {i}" if ids is None else f"record {ids[i]!r}"
            why = "zero-norm" if finite[i - start] else "non-finite"
            raise BankError(f"{row}: {why} vector")
        np.divide(block, norms[:, None], out=out[start:start + step], casting="same_kind")
    return out


class _IdColumn(NamedTuple):
    """Ids encoded as a bank file stores them; nothing checks that the n + 1 ``offsets``
    run from 0 to the ``blob``'s end, never decrease and cut its UTF-8 at characters."""

    blob: np.ndarray
    offsets: np.ndarray


class FeatureBank:
    """Ordered, immutable collection of unit-norm embeddings with labels.

    Storage is columnar and read-only: ids as one UTF-8 blob (``id_blob``, a
    uint8 array) cut by n + 1 u64 ``id_offsets``, as a bank file stores them;
    labels as an (n, 3) uint16 array and vectors as an (n, dim) float32
    array. The bounds cached from them therefore cannot go stale:
    ``label_max``, the largest index per level, and ``max_norm``, an upper
    bound on every row's norm (see :func:`_norm_bound`; inf if a row's f32
    sum of squares overflows, that is for norms from about 2^64, or is not
    finite). ``ids`` decodes the blob into a tuple of str on first use and
    keeps it. Entry order is insertion order. The constructor takes str ids,
    encoded once, or an :class:`_IdColumn`, as :func:`bank_load` and
    :func:`bank_merge` pass. Every bank gets the same checks: shapes, then
    finite vectors (the first bad entry named; rows are scanned only where
    ``max_norm`` is inf), then unique ids; but deliberately not per-entry
    label-path consistency, so corrupted or adversarial banks can be
    represented and exercised; the bank builders always derive consistent paths.
    """

    def __init__(self, dim: int, ids: Iterable[str] | _IdColumn, labels: np.ndarray,
                 vectors: np.ndarray, taxonomy_digest: bytes):
        id_blob, id_offsets = ids if isinstance(ids, _IdColumn) else _encode_ids(tuple(ids))
        self.dim = int(dim)
        self.id_blob = np.ascontiguousarray(id_blob, dtype=np.uint8).view()
        self.id_offsets = np.ascontiguousarray(id_offsets, dtype="<u8").view()
        self.labels = np.ascontiguousarray(labels, dtype=np.uint16).view()
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32).view()
        for column in (self.id_blob, self.id_offsets, self.labels, self.vectors):
            column.flags.writeable = False
        self.taxonomy_digest = bytes(taxonomy_digest)
        if self.dim < 1:
            raise BankError(f"bank dim must be >= 1, got {self.dim}")
        if len(self.taxonomy_digest) != 32:
            raise BankError("taxonomy digest must be 32 bytes")
        n = len(self)
        if self.labels.shape != (n, 3):
            raise BankError(f"labels shape {self.labels.shape} != ({n}, 3)")
        if self.vectors.shape != (n, self.dim):
            raise BankError(f"vectors shape {self.vectors.shape} != ({n}, {self.dim})")
        # max_norm bounds the rounding of f32 scores (knn._slack). It is inf where
        # a row's f32 sum of squares overflows or an entry is not finite
        sq_max = np.einsum("ij,ij->i", self.vectors, self.vectors).max(initial=0.0)
        self.max_norm = _norm_bound(float(sq_max), self.dim)
        if not math.isfinite(self.max_norm):
            finite_rows = np.isfinite(self.vectors).all(axis=1)
            if not finite_rows.all():
                i = int(np.argmin(finite_rows))
                raise BankError(f"entry {_id_at(self.id_blob, self.id_offsets, i)!r}: "
                                "non-finite vector")
        dup = _duplicate_id(self.id_blob, self.id_offsets)
        if dup is not None:
            raise BankError(f"duplicate id {dup!r}")
        # per level, for range checks; by column, ~20x faster than along axis 0
        self.label_max = np.array([column.max(initial=0) for column in self.labels.T])

    @classmethod
    def empty(cls, dim: int, taxonomy_digest: bytes) -> "FeatureBank":
        return cls(
            dim,
            (),
            np.zeros((0, 3), dtype=np.uint16),
            np.zeros((0, dim), dtype=np.float32),
            taxonomy_digest,
        )

    @functools.cached_property
    def ids(self) -> tuple[str, ...]:
        """The entries' ids, decoded from the blob on first use."""
        text = str(self.id_blob, "utf-8")
        offsets = self.id_offsets
        if len(text) != len(self.id_blob):  # character offsets: lead bytes before each byte offset
            offsets = np.concatenate(([0], np.cumsum(self.id_blob & 0xC0 != 0x80)))[offsets]
        bounds = offsets.tolist()
        return tuple(text[start:stop] for start, stop in zip(bounds, bounds[1:]))

    def __len__(self) -> int:
        return len(self.id_offsets) - 1

    def leaf_histogram(self) -> dict[int, int]:
        """Entry count per leaf index, leaves with entries only."""
        leaves, counts = np.unique(self.labels[:, 2], return_counts=True)
        return {int(l): int(c) for l, c in zip(leaves, counts)}

    def __repr__(self) -> str:
        return f"FeatureBank(dim={self.dim}, entries={len(self)})"


def _norm_bound(sq_max: float, d: int) -> float:
    """An upper bound on the norm of every row whose f32 sum of squares is at most ``sq_max``.

    The ``d`` squares of a row and their sum are taken in f32, in any
    order. Each square that underflows errs by at most 2^-149, and together
    the rest by at most gamma_d S, with S the exact sum and gamma_d =
    d u / (1 - d u), u = 2^-24 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1). So S <= (sq_max + d 2^-149) /
    (1 - gamma_d), where 1 - gamma_d = (1 - 2 d u) / (1 - d u). Both factors
    are exact in f64, and the few f64 roundings of the formula are covered
    by rounding the result up by 2^-50 relative. inf if ``sq_max`` is not
    finite or 1 - gamma_d is not positive.
    """
    u = 2.0 ** -24
    if not (math.isfinite(sq_max) and d * u < 0.5):
        return math.inf
    return math.sqrt((sq_max + d * 2.0 ** -149) * (1 - d * u) / (1 - 2 * d * u)) * (1 + 2.0 ** -50)


def _id_at(blob: np.ndarray, offsets: np.ndarray, i: int) -> str:
    """Entry ``i``'s id, decoded alone."""
    return str(blob[offsets[i]:offsets[i + 1]], "utf-8")


# Masks that keep an id's first, or last, n <= 8 bytes of a little-endian u64.
_KEEP_FIRST = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)
_KEEP_LAST = np.array([(1 << 64) - (1 << 8 * (8 - n)) for n in range(9)], np.uint64)


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of each u64: a bijection that spreads every input bit."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _id_keys(blob: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """A u64 key per id cut from ``blob``: equal ids always get equal keys.

    The key mixes the id's byte length with its first and its last <= 8
    bytes, each taken in one gather of unaligned u64 words from the blob
    padded with 8 zero bytes at each end.
    """
    padded = np.zeros(len(blob) + 16, np.uint8)
    padded[8:-8] = blob
    words = np.ndarray((len(blob) + 9,), "<u8", padded, 0, (1,))  # word j: padded[j:j + 8]
    starts, ends = offsets[:-1], offsets[1:]
    lengths = ends - starts
    short = np.minimum(lengths, 8)
    first = words[starts + 8] & _KEEP_FIRST[short]
    last = words[ends] & _KEEP_LAST[short]
    return _mix(_mix(first ^ lengths) ^ last)


def _duplicate_id(blob: np.ndarray, offsets: np.ndarray) -> str | None:
    """The first id, by first occurrence, that occurs more than once; None if none does.

    Ids whose keys are all distinct are distinct, so only the ids whose
    keys tie are compared exactly, as bytes.
    """
    keys = _id_keys(blob, offsets)
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return None
    order = np.argsort(keys)
    tie = keys[order[1:]] == keys[order[:-1]]
    tied = np.zeros(len(keys), bool)
    tied[order[1:][tie]] = tied[order[:-1][tie]] = True
    rows = np.flatnonzero(tied)  # in entry order
    raw = blob.tobytes()
    pieces = [raw[start:stop] for start, stop in zip(offsets[rows].tolist(),
                                                     offsets[rows + 1].tolist())]
    if len(set(pieces)) == len(pieces):
        return None
    return next(piece for piece, count in Counter(pieces).items() if count > 1).decode("utf-8")


class QuerySet:
    """Ordered, immutable set of unique ids, optional leaf names and an (m, dim) block.

    A query set from synth to search, or a bank manifest before
    :func:`bank_build`. ``vectors`` keeps its float dtype: float32 from synth,
    float64 from :meth:`from_records`, which parses a record stream a block
    at a time. Iterating yields manifest records
    ``{"id", "label", "vector"}`` in that key order (no ``label`` when
    ``labels`` is None), which :func:`write_manifest` writes as they are.
    """

    def __init__(self, ids: Iterable[str], vectors, labels: Iterable[str] | None = None):
        self.ids: tuple[str, ...] = tuple(ids)
        self.labels: tuple[str, ...] | None = None if labels is None else tuple(labels)
        self.vectors = np.asarray(vectors)
        m = len(self.ids)
        if self.vectors.ndim != 2 or len(self.vectors) != m:
            raise ValueError(f"vectors shape {self.vectors.shape} != ({m}, dim)")
        if self.labels is not None and len(self.labels) != m:
            raise ValueError(f"{len(self.labels)} labels for {m} ids")
        if len(set(self.ids)) != m:
            dup = next(rid for rid, count in Counter(self.ids).items() if count > 1)
            raise ManifestError(f"duplicate id {dup!r}")

    @classmethod
    def from_records(cls, records: Iterable[dict], dim=None, labelled=False) -> "QuerySet":
        """Parse manifest records (as :func:`read_manifest` yields them) into a set.

        Every vector must be a flat list of ``dim`` numbers (default: as many
        as the first record's; ``true`` and ``"1.5"`` are not numbers), finite
        and not all zero; ``labelled`` also requires a leaf ``label``. Errors
        are ManifestErrors naming the first bad record, checked in this order
        over the whole stream: a vector that is not such a list, a non-finite
        or zero vector, a missing label, a repeated id.

        The records are read as a stream: each run of about ``BLOCK_VALUES``
        vector entries becomes one float64 block, so no record outlives its
        block. After a bad vector the stream is still read to its end, so an
        error the stream itself raises (a bad JSON line) comes first.
        """
        ids, labels, blocks = [], [], []
        bad_row = None  # the first non-finite or zero vector's error
        chunks = _chunks(records)
        try:
            for chunk in chunks:
                chunk_ids = [rec["id"] for rec in chunk]
                block = _vector_block(chunk_ids, [rec.get("vector") for rec in chunk], dim)
                dim = block.shape[1]
                finite = np.isfinite(block).all(axis=1)
                bad = ~finite | ~block.any(axis=1)
                if bad_row is None and bad.any():
                    i = int(np.argmax(bad))
                    why = "zero-norm" if finite[i] else "non-finite"
                    bad_row = f"record {chunk_ids[i]!r}: {why} vector"
                ids += chunk_ids
                if labelled:
                    labels += [rec.get("label") for rec in chunk]
                blocks.append(block)
                del chunk, block  # the next chunk is read without them
        except ManifestError:
            for _ in chunks:  # read on: an error of the stream itself comes first
                pass
            raise
        if bad_row is not None:
            raise ManifestError(bad_row)
        for rid, label in zip(ids, labels):
            if not isinstance(label, str):
                raise ManifestError(f"record {rid!r}: missing leaf label")
        vectors = np.concatenate(blocks) if blocks else np.empty((0, dim or 0))
        del blocks
        return cls(ids, vectors, labels if labelled else None)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[dict]:
        for i, rid in enumerate(self.ids):
            rec = {"id": rid} if self.labels is None else {"id": rid, "label": self.labels[i]}
            rec["vector"] = self.vectors[i].tolist()
            yield rec


def _chunks(records: Iterable[dict]) -> Iterator[list[dict]]:
    """The records in lists of about ``BLOCK_VALUES`` vector entries each."""
    chunk, size = [], 0
    for rec in records:
        chunk.append(rec)
        vector = rec.get("vector")
        size += len(vector) if isinstance(vector, list) else 1
        if size >= BLOCK_VALUES:
            yield chunk
            chunk, size = [], 0
    if chunk:
        yield chunk


def _vector_block(ids: list[str], raw: list, dim) -> np.ndarray:
    """One chunk's vectors as an (n, dim) float64 block (``dim`` None: any width).

    A ManifestError names the chunk's first vector that is not a flat list
    of numbers, or whose length differs from ``dim`` (where ``dim`` is None,
    from the chunk's first vector's).
    """
    block = _floats(raw)
    if (block is None or block.ndim != 2 or dim not in (None, block.shape[1])
            or not _numbers(chain.from_iterable(raw))):
        for rid, entries in zip(ids, raw):  # one at a time, to name the first bad one
            v = _floats(entries)  # a missing vector is 0-d
            if v is None or v.ndim != 1 or not _numbers(entries):
                raise ManifestError(f"record {rid!r}: vector must be a flat list of numbers")
            dim = len(v) if dim is None else dim
            if len(v) != dim:
                raise ManifestError(
                    f"dim mismatch: record {rid!r} has dim {len(v)}, expected {dim}"
                )
    return block


def _numbers(entries: Iterable) -> bool:
    """Whether every entry is an int or a float (numpy's too), and none a bool."""
    types = set(map(type, entries))
    return bool not in types and all(issubclass(t, (int, float, np.number)) for t in types)


def _floats(obj) -> np.ndarray | None:
    """``obj`` as a float64 array, or None where numpy cannot read it as numbers."""
    try:
        return np.array(obj, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None


def read_manifest(source: TextIO | Iterable[str]) -> Iterator[dict]:
    """Yield records from line-delimited JSON: one object per nonempty line.

    Field requirements depend on the consumer (bank building needs id,
    label, and vector; prediction streams carry no vectors), so only the
    record shape and a string ``id`` are enforced here.
    """
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"line {lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(rec, dict):
            raise ManifestError(f"line {lineno}: record is not an object")
        if not isinstance(rec.get("id"), str):
            raise ManifestError(f"line {lineno}: missing or non-string 'id'")
        yield rec


def write_manifest(records: Iterable[dict], sink: TextIO) -> None:
    """Write records as one JSON object per line (deterministic float repr)."""
    for rec in records:
        sink.write(json.dumps(rec, separators=(", ", ": ")))
        sink.write("\n")


def leaf_indices(ids: Sequence[str], labels: Sequence, tax: Taxonomy) -> list[int]:
    """Leaf index of each label; a ManifestError names the first record whose label is not one."""
    leaves = tax.names(3)
    for rid, label in zip(ids, labels):
        if label not in leaves:
            raise ManifestError(f"record {rid!r}: unknown leaf {label!r}")
    return [tax.index_of(3, label) for label in labels]


def bank_build(records: Iterable[dict], tax: Taxonomy) -> FeatureBank:
    """Build a bank from manifest records, resolving leaf names to full paths.

    The records parse as a labelled :class:`QuerySet`, as a stream (pass
    :func:`read_manifest` over an open file to keep no record past its
    block), and their labels resolve
    through :func:`leaf_indices`, so every error names the first bad record;
    the columns go to :func:`bank_build_arrays`, which normalizes the rows and
    keeps the input order.
    """
    try:
        entries = QuerySet.from_records(records, labelled=True)
        leaves = leaf_indices(entries.ids, entries.labels, tax)
    except ManifestError as exc:
        raise BankError(str(exc)) from None
    if not len(entries):
        raise BankError("empty manifest: cannot infer vector dim")
    return bank_build_arrays(entries.ids, leaves, entries.vectors, tax)


def bank_build_arrays(ids, leaves, vectors, tax: Taxonomy) -> FeatureBank:
    """Build a bank from parallel columns: ids, leaf indices, (n, d) vectors.

    Rows keep their order and are normalized by :func:`normalize_rows`; label
    paths are the leaves' rows of ``Taxonomy.paths``. Errors name the
    first bad record by id.
    """
    ids = tuple(ids)
    leaves = np.asarray(leaves, dtype=np.int64)
    if not ids:
        raise BankError("no entries")
    if not len(ids) == len(leaves) == len(vectors):
        raise BankError("ids, leaves and vectors differ in length")
    bad = (leaves < 0) | (leaves >= tax.leaf_count)
    if bad.any():
        i = int(np.argmax(bad))
        raise BankError(f"record {ids[i]!r}: leaf index {leaves[i]} out of range")
    if tax.sizes.max() > 0xFFFF:
        raise BankError("taxonomy too large for 16-bit label indices")
    vectors = normalize_rows(vectors, ids)
    return FeatureBank(vectors.shape[1], ids, tax.paths[leaves], vectors, tax.digest)


def _padding(end: int) -> int:
    """Zero bytes after file offset ``end`` up to the next multiple of 64."""
    return -end % _ALIGN


def _encode_ids(ids: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The ids' UTF-8 back to back, as a uint8 array, and the (n + 1) byte offsets that split it.

    One encode of the joined ids; where a character takes more than one
    byte, each id's end is found from its character offset in one pass.
    """
    text = "".join(ids)
    ends = np.cumsum(np.fromiter(map(len, ids), np.int64, len(ids)))
    try:
        blob = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        rid = ids[int(np.searchsorted(ends, exc.start, side="right"))]
        raise BankError(f"id {rid!r} is not encodable as UTF-8") from None
    offsets = np.concatenate(([0], ends))
    if len(blob) != len(text):
        offsets = np.append(np.flatnonzero(np.frombuffer(blob, np.uint8) & 0xC0 != 0x80),
                            len(blob))[offsets]
    return np.frombuffer(blob, np.uint8), offsets.astype("<u8")


def bank_save(bank: FeatureBank, sink: BinaryIO) -> None:
    """Serialize a bank as v2; round-trips bit-exactly through :func:`bank_load`.

    The id column goes out as the bank stores it, and the label and vector
    blocks straight from the bank's arrays, in as many writes for any bank size.
    """
    n = len(bank)
    blob = bank.id_blob
    header = _HEADER.pack(_MAGIC, _VERSION, bank.dim, n, bank.taxonomy_digest, len(blob))
    labels = bank.labels.astype("<u2", copy=False)
    blob_end = _HEADER.size + bank.id_offsets.nbytes + len(blob)
    labels_end = blob_end + _padding(blob_end) + labels.nbytes
    sink.write(header)
    sink.write(bank.id_offsets)
    sink.write(blob)
    sink.write(bytes(_padding(blob_end)))
    sink.write(labels)
    sink.write(bytes(_padding(labels_end)))
    sink.write(bank.vectors.astype("<f4", copy=False))


def bank_load(source: BinaryIO, tax: Taxonomy) -> FeatureBank:
    """Deserialize a v2 bank, checking magic, version, and taxonomy digest.

    The source needs only ``readinto``: it is read once, to its end, into
    one uint8 buffer (see :func:`_read_all`), and no size from the header
    is trusted that the bytes read do not back: every section's size is
    checked against them before any array is made, for files and pipes
    alike. The bank's id offsets, id blob, labels and vectors are then
    read-only views of that buffer: no block is copied, and no id is
    decoded until ``ids`` is first read. A version-1 stream is rejected by
    name, before any size check.
    Offsets, padding and UTF-8 cuts are checked, label indices are
    range-checked against ``tax``, then vectors must be finite, then ids
    unique, and errors come in that order; parent consistency of stored
    triples is not re-derived, matching what was written.
    """
    data = _read_all(source)
    if data[:8].tobytes() == _MAGIC + (1).to_bytes(4, "little"):  # an empty v1 bank is 52 bytes
        raise BankFormatError("version 1 bank is no longer read: "
                              "rebuild it with 'bank build' or 'synth'")
    if len(data) < _HEADER.size:
        raise BankFormatError(f"truncated stream ({len(data)} bytes, header needs {_HEADER.size})")
    magic, version, dim, count, digest, blob_len = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise BankFormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise BankFormatError(f"unsupported version {version}")
    if digest != tax.digest:
        raise BankFormatError("taxonomy mismatch (digest differs)")
    blob, offsets, labels, vectors = _columns(data, dim, count, blob_len)
    over = labels >= tax.sizes
    if over.any():
        i, level = divmod(int(np.argmax(over)), 3)
        rid = _id_at(blob, offsets, i)
        raise BankFormatError(
            f"entry {rid!r}: level-{level + 1} label {labels[i, level]} out of range"
        )
    try:
        return FeatureBank(dim, _IdColumn(blob, offsets), labels, vectors, digest)
    except BankError as exc:
        raise BankFormatError(str(exc)) from None


def _read_all(source: BinaryIO) -> np.ndarray:
    """The source's bytes to its end, as a read-only view of one uint8 buffer.

    Where the source has a descriptor, the first buffer is one byte over the
    file's size, so the read that finds the end needs no more room and the
    bytes stay where they were read. Else (a pipe, whose size reads 0, or an
    in-memory stream) buffers of ``_READ_START`` bytes, then each twice the
    last, are filled in turn. Whenever more than one buffer was read, or more
    than that one byte is left over, the bytes are joined once into a buffer
    of exactly their size, so the bank holds no spare room. Every buffer is
    numpy's own allocation, which numpy advises the kernel to back with huge
    pages.
    """
    try:
        size = os.fstat(source.fileno()).st_size + 1
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        size = 0
    room = max(size, _READ_START)
    chunks = []
    while True:
        buf = np.empty(room, np.uint8)
        filled = 0
        while filled < room and (n := source.readinto(memoryview(buf)[filled:])):
            filled += n
        chunks.append(buf[:filled])
        if filled < room:
            break
        room *= 2
    if len(chunks) > 1 or room - filled > 1:
        buf = np.concatenate(chunks)
        filled = len(buf)
    buf.flags.writeable = False
    return buf[:filled]


def _columns(stream: np.ndarray, dim: int, count: int, blob_len: int):
    """Views of a bank's id blob, count + 1 id offsets, labels and vectors in the bytes read."""
    blob_at = _HEADER.size + 8 * (count + 1)
    labels_at = blob_at + blob_len + _padding(blob_at + blob_len)
    vectors_at = labels_at + _LABELS.size * count + _padding(labels_at + _LABELS.size * count)
    need = vectors_at + 4 * dim * count
    if need > len(stream):
        raise BankFormatError(
            f"truncated stream: header claims {count} entries of dim {dim} and {blob_len} "
            f"id bytes, {need} bytes in all, but {len(stream)} were read"
        )
    if need < len(stream):
        raise BankFormatError(f"trailing bytes after final entry (byte {need})")
    offsets = stream[_HEADER.size:blob_at].view("<u8")
    if offsets[0] != 0 or offsets[-1] != blob_len:
        raise BankFormatError(
            f"id offsets run from {offsets[0]} to {offsets[-1]}, not from 0 to {blob_len}"
        )
    down = offsets[1:] < offsets[:-1]
    if down.any():
        i = int(np.argmax(down))
        raise BankFormatError(
            f"entry {i}: id offset {offsets[i + 1]} at byte {_HEADER.size + 8 * (i + 1)} "
            f"is below the one before it, {offsets[i]}"
        )
    for start, stop in ((blob_at + blob_len, labels_at),
                        (labels_at + _LABELS.size * count, vectors_at)):
        if stream[start:stop].any():
            at = start + int(np.argmax(stream[start:stop] != 0))
            raise BankFormatError(f"nonzero padding at byte {at}")
    blob = stream[blob_at:blob_at + blob_len]
    _check_utf8(blob, offsets, blob_at)
    labels = stream[labels_at:labels_at + _LABELS.size * count].view("<u2").reshape(count, 3)
    vectors = stream[vectors_at:need].view("<f4").reshape(count, dim)
    return blob, offsets, labels, vectors


def _check_utf8(blob: np.ndarray, offsets: np.ndarray, blob_at: int) -> None:
    """Check that each id cut from ``blob`` is valid UTF-8; name the first bad one's entry and byte.

    The blob decodes once. Every id is then valid if the blob is ASCII, or
    if no cut lands on a continuation byte, as each piece of valid UTF-8
    cut at a character boundary is; only when that fails are the ids
    decoded one by one, to name the first bad one.
    """
    try:
        text = str(blob, "utf-8")
    except UnicodeDecodeError:
        text = None
    if text is not None and len(text) == len(blob):
        return
    cuts = offsets[1:-1]
    if text is not None and (blob[cuts[cuts < len(blob)]] & 0xC0 != 0x80).all():
        return
    raw = blob.tobytes()
    for i, (start, stop) in enumerate(zip(offsets[:-1].tolist(), offsets[1:].tolist())):
        try:
            raw[start:stop].decode("utf-8")
        except UnicodeDecodeError:
            raise BankFormatError(
                f"entry {i}: id at byte {blob_at + start} is not valid UTF-8"
            ) from None


def bank_merge(a: FeatureBank, b: FeatureBank) -> FeatureBank:
    """Concatenate two banks (a's entries first); dims and digests must match.

    The id columns are joined as they are stored, with no id decoded.
    """
    if a.dim != b.dim:
        raise BankError(f"dim mismatch ({a.dim} vs {b.dim})")
    if a.taxonomy_digest != b.taxonomy_digest:
        raise BankError("taxonomy mismatch (digest differs)")
    return FeatureBank(
        a.dim,
        _IdColumn(np.concatenate([a.id_blob, b.id_blob]),
                  np.concatenate([a.id_offsets, b.id_offsets[1:] + len(a.id_blob)])),
        np.vstack([a.labels, b.labels]),
        np.vstack([a.vectors, b.vectors]),
        a.taxonomy_digest,
    )
