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
from typing import BinaryIO, Iterable, Iterator, TextIO

import numpy as np

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
    vectors as a (n, dim) float32 array. Entry order is insertion order.
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
        self.labels = np.ascontiguousarray(labels, dtype=np.uint16)
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32)
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
            raise BankError("duplicate id in bank")
        # largest row norm, summed in f64: bounds the rounding of f32 scores
        sq_norms = np.einsum("ij,ij->i", self.vectors, self.vectors, dtype=np.float64)
        self.max_norm = float(np.sqrt(sq_norms.max(initial=0.0)))

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


def bank_build(records: Iterable[dict], tax: Taxonomy) -> FeatureBank:
    """Build a bank from manifest records, resolving leaf names to full paths.

    Every record needs ``id``, ``label`` (leaf name) and ``vector``; the
    checked columns go to :func:`bank_build_arrays`, which normalizes them
    and keeps the input order.
    """
    ids: list[str] = []
    leaves: list[int] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()

    for rec in records:
        rid = rec["id"]
        if rid in seen:
            raise BankError(f"duplicate id {rid!r}")
        seen.add(rid)
        label = rec.get("label")
        if not isinstance(label, str):
            raise BankError(f"record {rid!r}: missing leaf label")
        try:
            leaves.append(tax.index_of(3, label))
        except Exception:
            raise BankError(f"record {rid!r}: unknown leaf {label!r}") from None
        if "vector" not in rec:
            raise BankError(f"record {rid!r}: missing vector")
        vec = np.asarray(rec["vector"], dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise BankError(f"record {rid!r}: vector must be a nonempty flat list")
        if rows and vec.size != rows[0].size:
            raise BankError(
                f"record {rid!r}: dim mismatch (got {vec.size}, expected {rows[0].size})"
            )
        ids.append(rid)
        rows.append(vec)

    if not rows:
        raise BankError("empty manifest: cannot infer vector dim")
    return bank_build_arrays(ids, leaves, np.vstack(rows), tax)


def bank_build_arrays(ids, leaves, vectors, tax: Taxonomy) -> FeatureBank:
    """Build a bank from parallel columns: ids, leaf indices, (n, d) vectors.

    Rows keep their order and are normalized by :func:`normalize_rows`; label
    paths come from the leaves through ``Taxonomy.parents``. Errors name the
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
    if max(tax.node_count(l) for l in (1, 2, 3)) > 0xFFFF:
        raise BankError("taxonomy too large for 16-bit label indices")
    l2 = np.asarray(tax.parents(3))[leaves]
    labels = np.column_stack([np.asarray(tax.parents(2))[l2], l2, leaves])
    vectors = normalize_rows(vectors, ids)
    return FeatureBank(vectors.shape[1], ids, labels, vectors, tax.digest)


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

    view = memoryview(data)
    ids: list[str] = []
    blocks = []
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
        blocks.append(view[pos - block:pos])
    if spare:
        raise BankFormatError(f"trailing bytes after final entry (byte {pos})")
    rows = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(count, block)
    del data, view, blocks  # the joined blocks alone stay while the columns are copied
    labels = rows[:, :_LABELS.size].copy().view("<u2")
    vectors = rows[:, _LABELS.size:].copy().view("<f4")
    over = labels >= [tax.node_count(l) for l in (1, 2, 3)]
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
    overlap = set(a.ids) & set(b.ids)
    if overlap:
        raise BankError(f"duplicate id {sorted(overlap)[0]!r}")
    return FeatureBank(
        a.dim,
        a.ids + b.ids,
        np.vstack([a.labels, b.labels]),
        np.vstack([a.vectors, b.vectors]),
        a.taxonomy_digest,
    )
