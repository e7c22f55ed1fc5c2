"""Shared fixtures and small builders used across the test modules."""
from __future__ import annotations

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hierknn
from hierknn import BankError, FeatureBank, bank_build, default_taxonomy

# Directory holding the hierknn package this test process imported: src/
# under PYTHONPATH=src, the checkout's src/ again under an editable install.
PACKAGE_ROOT = Path(hierknn.__file__).resolve().parent.parent


def run_cli(args, cwd, stdin=None) -> subprocess.CompletedProcess:
    """Run ``python -m hierknn *args`` in a fresh interpreter from ``cwd``.

    The child gets PACKAGE_ROOT first on its PYTHONPATH, so it runs the same
    package as the tests, whatever cwd is; the rest of the environment is
    passed through unchanged. ``stdin`` is handed to the child as is (a
    file descriptor or file object); by default it inherits ours.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_ROOT), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "hierknn", *args],
        cwd=cwd, env=env, stdin=stdin, capture_output=True, text=True, timeout=300,
    )


_V1_MAGIC = b"HBNK"
_V1_VERSION = 1
_V1_HEADER = struct.Struct("<4sIIQ32s")
_V1_U16 = struct.Struct("<H")
_V1_LABELS = struct.Struct("<HHH")


def save_v1(bank: FeatureBank, sink) -> None:
    """Write ``bank`` as a version-1 ``.hbnk`` file, which hierknn reads but no longer writes.

    The header (magic, u32 version 1, u32 dim, u64 count, taxonomy digest)
    is followed by each entry's u16 id length, UTF-8 id, three u16 labels
    and dim f32 values, all in one write; an id over 65535 UTF-8 bytes is
    an error before anything is written.
    """
    n, block = len(bank), _V1_LABELS.size + 4 * bank.dim
    rows = np.empty((n, block), dtype=np.uint8)
    rows[:, :_V1_LABELS.size] = bank.labels.astype("<u2", copy=False).view(np.uint8)
    rows[:, _V1_LABELS.size:] = bank.vectors.astype("<f4", copy=False).view(np.uint8)
    body = memoryview(rows.reshape(-1))
    parts = [_V1_HEADER.pack(_V1_MAGIC, _V1_VERSION, bank.dim, n, bank.taxonomy_digest)]
    for i, rid in enumerate(bank.ids):
        id_bytes = rid.encode("utf-8")
        if len(id_bytes) > 0xFFFF:
            raise BankError(f"id {rid!r} exceeds 65535 UTF-8 bytes")
        parts += (_V1_U16.pack(len(id_bytes)), id_bytes, body[i * block:(i + 1) * block])
    sink.write(b"".join(parts))


@pytest.fixture(scope="session")
def tax():
    """The packaged 3-lineage / 13-leaf taxonomy, loaded once per session."""
    return default_taxonomy()


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n random unit-norm rows, float32, guaranteed nonzero."""
    x = rng.standard_normal((n, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x.astype(np.float32)


def angled_bank(tax, leaf_names: list[str], dim: int = 4, step: float = 0.01):
    """Bank whose entries sit at increasing angles from the axis query.

    Entry i lies at angle step*(i+1) from e1 inside the (e1, e2) plane, so
    cosine similarity to the query [1, 0, ...] strictly decreases with the
    entry index. search with k = len(leaf_names) therefore returns the
    entries in declaration order, which makes vote outcomes easy to stage.
    """
    records = []
    for i, leaf in enumerate(leaf_names):
        a = step * (i + 1)
        vec = [0.0] * dim
        vec[0] = float(np.cos(a))
        vec[1] = float(np.sin(a))
        records.append({"id": f"e{i}", "label": leaf, "vector": vec})
    return bank_build(records, tax)


def axis_query(dim: int = 4) -> np.ndarray:
    q = np.zeros(dim)
    q[0] = 1.0
    return q


def bank_from_arrays(tax, vectors: np.ndarray, leaves: list[int],
                     ids: list[str] | None = None) -> FeatureBank:
    """Directly assemble a FeatureBank from unit rows and leaf indices."""
    n = vectors.shape[0]
    if ids is None:
        ids = [f"r{i}" for i in range(n)]
    labels = tax.paths[np.asarray(leaves, dtype=np.intp)]
    return FeatureBank(int(vectors.shape[1]), ids, labels, vectors, tax.digest)


def crossed_label_bank(tax, rng, n_near: int = 6, dim: int = 6) -> FeatureBank:
    """Bank whose nearest entries carry level-2/3 labels from the wrong branch.

    The near block claims lineage Blast but reuses group and leaf indices
    from other lineages, so the child-constrained vote finds no usable
    neighbor and must fall back to a filtered re-query. A far block of
    correctly labeled entries covering every leaf guarantees the re-query
    always finds support somewhere in the bank.
    """
    near = unit_rows(rng, n_near, dim)
    blast = tax.index_of(1, "Blast")
    wrong_group = tax.index_of(2, "monocytic")
    wrong_leaf = tax.index_of(3, "MO")
    labels = [[blast, wrong_group, wrong_leaf]] * n_near

    far = -near[:1].repeat(tax.leaf_count, axis=0)
    far += 0.01 * unit_rows(rng, tax.leaf_count, dim)
    far /= np.linalg.norm(far, axis=1, keepdims=True)
    labels += tax.paths.tolist()

    vectors = np.vstack([near, far]).astype(np.float32)
    ids = [f"n{i}" for i in range(n_near)] + [f"f{i}" for i in range(tax.leaf_count)]
    return FeatureBank(dim, ids, np.asarray(labels, dtype=np.uint16), vectors, tax.digest)
