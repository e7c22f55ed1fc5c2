"""Shared fixtures and small builders used across the test modules."""
from __future__ import annotations

import itertools
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hierknn
from hierknn import (FeatureBank, Views, bank_build, classify_batch, default_taxonomy,
                     member_outputs)

# Directory holding the hierknn package this test process imported: src/
# under PYTHONPATH=src, the checkout's src/ again under an editable install.
PACKAGE_ROOT = Path(hierknn.__file__).resolve().parent.parent

# The determinism fixture: the synth config whose command outputs
# TestPinnedOutputs pins.
SMALL_CONFIG = """
dim = 8
per_leaf_counts = 12, 10, 8, 20, 30, 12, 8, 6, 10, 24, 6, 5, 9
lineage_separation = 3.0
leaf_separation = 1.4
noise_sigma = 0.7
seed = 5
"""


def run_cli(args, cwd, stdin=None, stdout=subprocess.PIPE, entry=("-m", "hierknn"),
            unset=(), address_space=None, file_size=None) -> subprocess.CompletedProcess:
    """Run ``python -m hierknn *args`` in a fresh interpreter from ``cwd``.

    The child gets PACKAGE_ROOT first on its PYTHONPATH, so it runs the same
    package as the tests, whatever cwd is; the rest of the environment is
    passed through unchanged, less the variables named in ``unset``.
    ``stdin`` and ``stdout`` are handed to the child as is (a file
    descriptor or file object); by default it inherits our stdin, and its
    stdout and stderr are captured as text. ``entry`` replaces
    ``-m hierknn``, to add interpreter options or to run a ``-c`` script.
    ``address_space`` caps the child's virtual memory (``RLIMIT_AS``, in
    bytes), so that a runaway allocation fails fast in the child alone;
    ``file_size`` caps the size of each file it writes (``RLIMIT_FSIZE``).
    """
    env = {key: value for key, value in os.environ.items() if key not in unset}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_ROOT), env.get("PYTHONPATH")) if p
    )
    limits = [(resource.RLIMIT_AS, address_space), (resource.RLIMIT_FSIZE, file_size)]
    limits = [(which, value) for which, value in limits if value is not None]

    def limit():
        for which, value in limits:
            resource.setrlimit(which, (value, value))

    return subprocess.run(
        [sys.executable, *entry, *args], cwd=cwd, env=env, stdin=stdin, stdout=stdout,
        stderr=subprocess.PIPE, text=True, timeout=300, preexec_fn=limit if limits else None,
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "gate: an exact-output check that CI reruns on one BLAS thread and under "
        "other CPU dispatch settings (select these with -m gate)",
    )


@pytest.fixture(scope="session")
def tax():
    """The packaged 3-lineage / 13-leaf taxonomy, loaded once per session."""
    return default_taxonomy()


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n random unit-norm rows, float32, guaranteed nonzero."""
    x = rng.standard_normal((n, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x.astype(np.float32)


def toy_views(rng: np.random.Generator, b: int, d_in: int, n_classes=None) -> Views:
    """b random samples drawn one at a time: teacher view, student view, then a
    label in [0, n_classes), or none (-1) when ``n_classes`` is None."""
    xt, xs = np.empty((b, d_in)), np.empty((b, d_in))
    labels = np.full(b, -1)
    for i in range(b):
        xt[i] = rng.standard_normal(d_in)
        xs[i] = rng.standard_normal(d_in)
        if n_classes is not None:
            labels[i] = rng.integers(0, n_classes)
    return Views(xt, xs, labels)


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


def margins_by_hand(bank, queries, k, tax) -> dict[bool, list[float]]:
    """Each member mode's margins, checked against (top count - runner-up
    count) / k of the leaf tally it voted with: the flat tally, or the walk's
    level-3 tally. Keyed by ``flat``."""
    res = classify_batch(bank, queries, k, tax)
    out = {}
    for flat, counts in ((True, res.flat_counts), (False, res.counts[2])):
        by_hand = []
        for row in counts.tolist():
            top, runner_up = sorted(row, reverse=True)[:2]
            by_hand.append((top - runner_up) / k)
        margins = member_outputs(bank, queries, k, tax, flat)[1].tolist()
        assert margins == by_hand, (k, flat)
        out[flat] = margins
    return out


def weak_orders(n: int) -> list[tuple[int, ...]]:
    """Every weak order of n items, as each item's rank (0 is the largest)."""
    return [r for r in itertools.product(range(n), repeat=n) if set(r) == set(range(max(r) + 1))]


def all_cases(n_values: int, n: int, ladder) -> tuple[np.ndarray, np.ndarray]:
    """Every assignment of n values in [0, n_values), times every weak order
    of n values drawn from ``ladder`` (rank r takes ``ladder[r]``): (cases, n) each."""
    values = np.array(list(itertools.product(range(n_values), repeat=n)), dtype=np.intp)
    orders = np.asarray(ladder)[np.array(weak_orders(n))]
    return (np.repeat(values, len(orders), axis=0).reshape(-1, n),
            np.tile(orders, (len(values), 1)))
