"""Immutable store of L2-normalized labeled embeddings, plus its file formats.

Binary bank format (little-endian):

    magic   4 bytes  "HBNK"
    version u32      1
    dim     u32
    count   u64
    digest  32 bytes taxonomy digest
    entries, each:
        id_len  u16
        id      id_len bytes UTF-8
        l1      u16
        l2      u16
        l3      u16
        vector  dim * f32

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
_VERSION = 1
_HEADER = struct.Struct("<4sIIQ32s")
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


def bank_save(bank: FeatureBank, sink: BinaryIO) -> None:
    """Serialize a bank; round-trips bit-exactly through :func:`bank_load`.

    Every id is encoded and checked before anything is written; the entries
    then go out in one write, their labels and vectors taken from one
    (n, 6 + 4 * dim) byte array.
    """
    n, block = len(bank), _LABELS.size + 4 * bank.dim
    rows = np.empty((n, block), dtype=np.uint8)
    rows[:, :_LABELS.size] = bank.labels.astype("<u2", copy=False).view(np.uint8)
    rows[:, _LABELS.size:] = bank.vectors.astype("<f4", copy=False).view(np.uint8)
    body = memoryview(rows.reshape(-1))
    parts = [_HEADER.pack(_MAGIC, _VERSION, bank.dim, n, bank.taxonomy_digest)]
    for i, rid in enumerate(bank.ids):
        id_bytes = rid.encode("utf-8")
        if len(id_bytes) > 0xFFFF:
            raise BankError(f"id {rid!r} exceeds 65535 UTF-8 bytes")
        parts += (_U16.pack(len(id_bytes)), id_bytes, body[i * block:(i + 1) * block])
    sink.write(b"".join(parts))


def bank_load(source: BinaryIO, tax: Taxonomy) -> FeatureBank:
    """Deserialize a bank, checking magic, version, and taxonomy digest.

    The stream is read once, to its end, and no size from the header is
    trusted that the bytes read do not back: count and dim are checked
    against them before any entry is parsed, for files and pipes alike.
    Label indices are range-checked against ``tax`` and vectors must be
    finite; parent consistency of stored triples is not re-derived,
    matching what was written.
    """
    data = source.read()
    if len(data) < _HEADER.size:
        raise BankFormatError(f"truncated stream ({len(data)} bytes, header needs {_HEADER.size})")
    magic, version, dim, count, digest = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise BankFormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise BankFormatError(f"unsupported version {version}")
    if digest != tax.digest:
        raise BankFormatError("taxonomy mismatch (digest differs)")
    block = _LABELS.size + 4 * dim
    need = count * (_U16.size + block)
    # what the fixed-size fields leave over is all the id bytes there can be
    spare = len(data) - _HEADER.size - need
    if spare < 0:
        raise BankFormatError(
            f"truncated stream: header claims {count} entries of dim {dim}, at least "
            f"{need} bytes, but {len(data) - _HEADER.size} remain"
        )

    ids: list[str] = []
    starts: list[int] = []  # where each entry's labels and vector begin
    pos = _HEADER.size
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
    over = labels >= tax.sizes
    if over.any():
        i, level = divmod(int(np.argmax(over)), 3)
        raise BankFormatError(
            f"entry {ids[i]!r}: level-{level + 1} label {labels[i, level]} out of range"
        )
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        raise BankFormatError(f"entry {ids[int(np.argmin(finite))]!r}: non-finite vector")
    try:
        return FeatureBank(dim, ids, labels, vectors, digest)
    except BankError as exc:
        raise BankFormatError(str(exc)) from None


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
