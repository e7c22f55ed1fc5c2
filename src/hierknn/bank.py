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

and nothing after. Version 1 is read, never written: after the same first
52 bytes (no id_bytes), each entry is a u16 id length, the UTF-8 id, its
three u16 labels and its dim f32 values.

Manifest format: one JSON object per line with fields ``id`` (string),
``label`` (leaf name), ``vector`` (array of numbers).
"""
from __future__ import annotations

import json
import struct
from collections import Counter
from itertools import chain
from typing import BinaryIO, Iterable, Iterator, Sequence, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BankError, BankFormatError, ManifestError
from .taxonomy import Taxonomy

EPS_NORM = 1e-12

_MAGIC = b"HBNK"
_VERSION = 2
_HEADER = struct.Struct("<4sIIQ32sQ")  # v2: v1's header, then the id blob's length
_HEADER_V1 = struct.Struct("<4sIIQ32s")
_ALIGN = 64  # file offset of the label and vector blocks
_U16 = struct.Struct("<H")
_LABELS = struct.Struct("<HHH")


def normalize_rows(x, ids=None) -> np.ndarray:
    """Scale each row of an (n, d) block to unit norm; float32 out, float64 arithmetic.

    Each row's squared norm is its own BLAS dot product, summed as the one-row
    ``np.linalg.norm`` sums it, so row i equals ``l2_normalize(x[i])`` bit for
    bit. Raises BankError naming the first non-finite or near-zero (norm <=
    1e-12) row: as ``ids[i]`` if ids are given, else by index.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise BankError(f"expected an (n, d) block, got shape {x.shape}")
    if x.shape[1] == 0:
        raise BankError("empty vector")
    norms = np.sqrt((x[:, None, :] @ x[:, :, None]).ravel())
    finite = np.isfinite(x).all(axis=1)
    bad = ~finite | (norms <= EPS_NORM)
    if bad.any():
        i = int(np.argmax(bad))
        row = f"row {i}" if ids is None else f"record {ids[i]!r}"
        raise BankError(f"{row}: {'zero-norm' if finite[i] else 'non-finite'} vector")
    return (x / norms[:, None]).astype(np.float32)


def l2_normalize(v) -> np.ndarray:
    """One-row form of :func:`normalize_rows`: ``v`` flattened, scaled to unit norm."""
    return normalize_rows(np.asarray(v, dtype=np.float64).reshape(1, -1))[0]


class FeatureBank:
    """Ordered, immutable collection of unit-norm embeddings with labels.

    Storage is columnar: ids as a tuple, labels as a (n, 3) uint16 array,
    vectors as a (n, dim) float32 array, both read-only views, so the bounds
    cached from them (``max_norm``, ``label_max``) cannot go stale. Entry
    order is insertion order.
    The constructor checks shapes and id uniqueness but deliberately not
    per-entry label-path consistency, so corrupted or adversarial banks can
    be represented and exercised; the bank builders always derive
    consistent paths.
    """

    def __init__(
        self,
        dim: int,
        ids: Iterable[str],
        labels: np.ndarray,
        vectors: np.ndarray,
        taxonomy_digest: bytes,
    ):
        self.dim = int(dim)
        self.ids: tuple[str, ...] = tuple(ids)
        self.labels = np.ascontiguousarray(labels, dtype=np.uint16).view()
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32).view()
        self.labels.flags.writeable = self.vectors.flags.writeable = False
        self.taxonomy_digest = bytes(taxonomy_digest)
        if self.dim < 1:
            raise BankError(f"bank dim must be >= 1, got {self.dim}")
        if len(self.taxonomy_digest) != 32:
            raise BankError("taxonomy digest must be 32 bytes")
        n = len(self.ids)
        if self.labels.shape != (n, 3):
            raise BankError(f"labels shape {self.labels.shape} != ({n}, 3)")
        if self.vectors.shape != (n, self.dim):
            raise BankError(f"vectors shape {self.vectors.shape} != ({n}, {self.dim})")
        if len(set(self.ids)) != n:
            dup = next(rid for rid, count in Counter(self.ids).items() if count > 1)
            raise BankError(f"duplicate id {dup!r}")
        # largest row norm, summed in f64: bounds the rounding of f32 scores
        sq_norms = np.einsum("ij,ij->i", self.vectors, self.vectors, dtype=np.float64)
        self.max_norm = float(np.sqrt(sq_norms.max(initial=0.0)))
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

    def __len__(self) -> int:
        return len(self.ids)

    def leaf_histogram(self) -> dict[int, int]:
        """Entry count per leaf index, leaves with entries only."""
        leaves, counts = np.unique(self.labels[:, 2], return_counts=True)
        return {int(l): int(c) for l, c in zip(leaves, counts)}

    def __repr__(self) -> str:
        return f"FeatureBank(dim={self.dim}, entries={len(self)})"


class QuerySet:
    """Ordered, immutable set of unique ids, optional leaf names and an (m, dim) block.

    A query set from synth to search, or a bank manifest before
    :func:`bank_build`. ``vectors`` keeps its float dtype: float32 from synth,
    float64 from :meth:`from_records`. Iterating yields manifest records
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
        are ManifestErrors naming the first bad record.
        """
        records = list(records)
        ids = [rec["id"] for rec in records]
        raw = [rec.get("vector") for rec in records]
        vectors = _floats(raw)
        if (vectors is None or vectors.ndim != 2 or dim not in (None, vectors.shape[1])
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
            vectors = np.empty((0, dim or 0))  # every record passed, so there were none
        finite = np.isfinite(vectors).all(axis=1)
        bad = ~finite | ~vectors.any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            why = "zero-norm" if finite[i] else "non-finite"
            raise ManifestError(f"record {ids[i]!r}: {why} vector")
        labels = [rec.get("label") for rec in records] if labelled else None
        for rid, label in zip(ids, labels or ()):
            if not isinstance(label, str):
                raise ManifestError(f"record {rid!r}: missing leaf label")
        return cls(ids, vectors, labels)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[dict]:
        for i, rid in enumerate(self.ids):
            rec = {"id": rid} if self.labels is None else {"id": rid, "label": self.labels[i]}
            rec["vector"] = self.vectors[i].tolist()
            yield rec


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

    The records parse as a labelled :class:`QuerySet` and their labels resolve
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


def _encode_ids(ids: tuple[str, ...]) -> tuple[bytes, np.ndarray]:
    """The ids' UTF-8 back to back, and the (n + 1) byte offsets that split it.

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
    return blob, offsets.astype("<u8")


def bank_save(bank: FeatureBank, sink: BinaryIO) -> None:
    """Serialize a bank as v2; round-trips bit-exactly through :func:`bank_load`.

    Every id is encoded before anything is written; the blocks then go out
    straight from the bank's arrays, in as many writes for any bank size.
    """
    blob, offsets = _encode_ids(bank.ids)
    n = len(bank)
    header = _HEADER.pack(_MAGIC, _VERSION, bank.dim, n, bank.taxonomy_digest, len(blob))
    labels = bank.labels.astype("<u2", copy=False)
    blob_end = _HEADER.size + offsets.nbytes + len(blob)
    labels_end = blob_end + _padding(blob_end) + labels.nbytes
    sink.write(header)
    sink.write(offsets)
    sink.write(blob)
    sink.write(bytes(_padding(blob_end)))
    sink.write(labels)
    sink.write(bytes(_padding(labels_end)))
    sink.write(bank.vectors.astype("<f4", copy=False))


def bank_load(source: BinaryIO, tax: Taxonomy) -> FeatureBank:
    """Deserialize a v2 or v1 bank, checking magic, version, and taxonomy digest.

    The stream is read once, to its end, and no size from the header is
    trusted that the bytes read do not back: every section's size is
    checked against them before any array is made, for files and pipes
    alike. A v2 bank's label and vector columns are copied out whole.
    Label indices are range-checked against ``tax`` and vectors must be
    finite; parent consistency of stored triples is not re-derived,
    matching what was written.
    """
    data = source.read()
    header = _HEADER_V1 if data[4:8] == (1).to_bytes(4, "little") else _HEADER
    if len(data) < header.size:
        raise BankFormatError(f"truncated stream ({len(data)} bytes, header needs {header.size})")
    magic, version, dim, count, digest = header.unpack_from(data)[:5]
    if magic != _MAGIC:
        raise BankFormatError(f"bad magic {magic!r}")
    if version not in (1, _VERSION):
        raise BankFormatError(f"unsupported version {version}")
    if digest != tax.digest:
        raise BankFormatError("taxonomy mismatch (digest differs)")
    ids, labels, vectors = (_columns_v1 if version == 1 else _columns)(data, dim, count)
    over = labels >= tax.sizes
    if over.any():
        i, level = divmod(int(np.argmax(over)), 3)
        raise BankFormatError(
            f"entry {ids[i]!r}: level-{level + 1} label {labels[i, level]} out of range"
        )
    if not np.isfinite(vectors).all():
        i = int(np.argmin(np.isfinite(vectors).all(axis=1)))
        raise BankFormatError(f"entry {ids[i]!r}: non-finite vector")
    try:
        return FeatureBank(dim, ids, labels, vectors, digest)
    except BankError as exc:
        raise BankFormatError(str(exc)) from None


def _columns(data: bytes, dim: int, count: int):
    """A v2 bank's ids, (count, 3) labels and (count, dim) vectors, each block taken whole."""
    blob_len = _HEADER.unpack_from(data)[5]
    blob_at = _HEADER.size + 8 * (count + 1)
    labels_at = blob_at + blob_len + _padding(blob_at + blob_len)
    vectors_at = labels_at + _LABELS.size * count + _padding(labels_at + _LABELS.size * count)
    need = vectors_at + 4 * dim * count
    if need > len(data):
        raise BankFormatError(
            f"truncated stream: header claims {count} entries of dim {dim} and {blob_len} "
            f"id bytes, {need} bytes in all, but {len(data)} were read"
        )
    if need < len(data):
        raise BankFormatError(f"trailing bytes after final entry (byte {need})")
    offsets = np.frombuffer(data, "<u8", count + 1, _HEADER.size)
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
    stream = np.frombuffer(data, np.uint8)
    for start, stop in ((blob_at + blob_len, labels_at),
                        (labels_at + _LABELS.size * count, vectors_at)):
        if stream[start:stop].any():
            at = start + int(np.argmax(stream[start:stop] != 0))
            raise BankFormatError(f"nonzero padding at byte {at}")
    ids = _split_ids(data[blob_at:blob_at + blob_len], offsets, blob_at)
    # Copied out of the bytes read, each block in one memcpy: numpy backs a
    # large array with huge pages where the kernel allows, the bytes object
    # is not, and a search scans the vectors about 5 % faster on huge pages.
    # The copies also let the bytes read, ids and offsets included, be freed.
    labels = np.frombuffer(data, "<u2", 3 * count, labels_at).reshape(count, 3).copy()
    vectors = np.frombuffer(data, "<f4", dim * count, vectors_at).reshape(count, dim).copy()
    return ids, labels, vectors


def _split_ids(blob: bytes, offsets: np.ndarray, blob_at: int) -> list[str]:
    """The ids in ``blob``, cut at ``offsets``; a bad one is named with its entry and byte.

    The blob decodes once. Every id is then valid UTF-8 if no cut lands on a
    continuation byte, as each piece of valid UTF-8 cut at a character
    boundary is; only when that fails are the ids decoded one by one, to
    name the first bad one.
    """
    stream = np.frombuffer(blob, np.uint8)
    lead = stream & 0xC0 != 0x80  # the first byte of each character
    cuts = offsets[1:-1]
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError:
        text = None
    if text is None or not lead[cuts[cuts < len(blob)]].all():
        for i, (start, stop) in enumerate(zip(offsets[:-1].tolist(), offsets[1:].tolist())):
            try:
                blob[start:stop].decode("utf-8")
            except UnicodeDecodeError:
                raise BankFormatError(
                    f"entry {i}: id at byte {blob_at + start} is not valid UTF-8"
                ) from None
    if len(text) != len(blob):  # character offsets: lead bytes before each byte offset
        offsets = np.concatenate(([0], np.cumsum(lead)))[offsets]
    bounds = offsets.tolist()
    return [text[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _columns_v1(data: bytes, dim: int, count: int):
    """A v1 bank's ids, (count, 3) labels and (count, dim) vectors, walking its entries."""
    block = _LABELS.size + 4 * dim
    need = count * (_U16.size + block)
    # what the fixed-size fields leave over is all the id bytes there can be
    spare = len(data) - _HEADER_V1.size - need
    if spare < 0:
        raise BankFormatError(
            f"truncated stream: header claims {count} entries of dim {dim}, at least "
            f"{need} bytes, but {len(data) - _HEADER_V1.size} remain"
        )

    ids: list[str] = []
    starts: list[int] = []  # where each entry's labels and vector begin
    pos = _HEADER_V1.size
    for i in range(count):
        (id_len,) = _U16.unpack_from(data, pos)
        spare -= id_len
        if spare < 0:
            raise BankFormatError(f"truncated stream: entry {i} at byte {pos} runs past the end")
        start = pos + _U16.size
        pos = start + id_len + block
        try:
            ids.append(data[start:start + id_len].decode("utf-8"))
        except UnicodeDecodeError:
            raise BankFormatError(f"entry {i}: id at byte {start} is not valid UTF-8") from None
        starts.append(pos - block)
    if spare:
        raise BankFormatError(f"trailing bytes after final entry (byte {pos})")
    if count:  # a window wider than the stream is an error even with no entries to take
        stream = np.frombuffer(data, dtype=np.uint8)
        at = np.array(starts, dtype=np.intp)
        labels = sliding_window_view(stream, _LABELS.size)[at].view("<u2")
        vectors = sliding_window_view(stream, 4 * dim)[at + _LABELS.size].view("<f4")
    else:
        labels = np.empty((0, 3), dtype="<u2")
        vectors = np.empty((0, dim), dtype="<f4")
    return ids, labels, vectors


def bank_merge(a: FeatureBank, b: FeatureBank) -> FeatureBank:
    """Concatenate two banks (a's entries first); dims and digests must match."""
    if a.dim != b.dim:
        raise BankError(f"dim mismatch ({a.dim} vs {b.dim})")
    if a.taxonomy_digest != b.taxonomy_digest:
        raise BankError("taxonomy mismatch (digest differs)")
    return FeatureBank(
        a.dim,
        a.ids + b.ids,
        np.vstack([a.labels, b.labels]),
        np.vstack([a.vectors, b.vectors]),
        a.taxonomy_digest,
    )
