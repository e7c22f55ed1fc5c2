#!/usr/bin/env python3
"""Walk the built-in label tree and round-trip a small feature bank.

Shows the three fixed levels (lineage, group, leaf) as the taxonomy's
arrays (``parents(level)`` for the edges, ``paths`` for each leaf's full
path), and that a bank built in memory survives save/load with identical
bytes. NumPy only.
"""
import argparse
import io

import numpy as np

from hierknn import FeatureBank, bank_load, bank_save, default_taxonomy, normalize_rows


def show_tree(tax) -> None:
    print(f"taxonomy digest: {tax.digest.hex()[:16]}...")
    for l1 in range(tax.node_count(1)):
        print(f"  {tax.name_of(1, l1)}")
        for l2 in np.flatnonzero(tax.parents(2) == l1).tolist():
            leaves = np.flatnonzero(tax.parents(3) == l2).tolist()
            names = ", ".join(tax.name_of(3, leaf) for leaf in leaves)
            print(f"    {tax.name_of(2, l2)}: {names}")


def build_demo_bank(tax, rng, n_per_leaf: int) -> FeatureBank:
    leaves = np.repeat(np.arange(tax.leaf_count), n_per_leaf)
    ids = [f"{name}-{j}" for name in tax.names(3) for j in range(n_per_leaf)]
    labels = tax.paths[leaves].astype(np.uint16)  # one (lineage, group, leaf) row per entry
    vectors = normalize_rows(rng.standard_normal((len(leaves), 8)))
    return FeatureBank(8, ids, labels, vectors, tax.digest)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--per-leaf", type=int, default=2, dest="per_leaf")
    args = parser.parse_args()

    tax = default_taxonomy()
    print("=== label tree ===")
    show_tree(tax)

    print("\n=== leaf paths ===")
    for name in ("BL", "SNE", "PC"):
        leaf = tax.index_of(3, name)
        chain = " > ".join(
            tax.name_of(level, idx)
            for level, idx in zip((1, 2, 3), tax.paths[leaf].tolist())
        )
        print(f"  leaf {leaf:2d} ({name}): {chain}")

    rng = np.random.default_rng(args.seed)
    bank = build_demo_bank(tax, rng, args.per_leaf)
    print(f"\n=== bank round trip ===")
    print(f"built bank: {len(bank)} entries, dim {bank.dim}")

    buf = io.BytesIO()
    bank_save(bank, buf)
    payload = buf.getvalue()
    print(f"serialized size: {len(payload)} bytes")

    loaded = bank_load(io.BytesIO(payload), tax)
    same = (
        loaded.ids == bank.ids
        and np.array_equal(loaded.labels, bank.labels)
        and loaded.vectors.tobytes() == bank.vectors.tobytes()
    )
    print(f"round trip bit-identical: {same}")

    buf2 = io.BytesIO()
    bank_save(loaded, buf2)
    print(f"re-serialization identical: {buf2.getvalue() == payload}")


if __name__ == "__main__":
    main()
