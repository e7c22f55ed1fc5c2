#!/usr/bin/env python3
"""Compare level-constrained inference against a flat leaf vote.

Generates a long-tailed synthetic bank, classifies a drifted query set
both ways, and prints per-query disagreements plus the macro F1 gap.
The level-wise pass decides lineage first, then restricts each later
vote to descendants of the winner, so rare leaves are protected from
being outvoted by neighbors in other lineages.
"""
import argparse

from hierknn import (
    ConfusionMatrix,
    ShiftSpec,
    SynthConfig,
    apply_shift,
    classify_batch,
    default_taxonomy,
    generate,
    macro_f1,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=15)
    parser.add_argument("--rot", type=float, default=0.3, help="query drift angle")
    parser.add_argument("--noise", type=float, default=0.1)
    args = parser.parse_args()

    tax = default_taxonomy()
    cfg = SynthConfig(seed=args.seed)
    bank, queries = generate(cfg, tax)
    queries = apply_shift(
        queries, ShiftSpec(rotation_angle=args.rot, bias=0.1, extra_noise=args.noise),
        seed=args.seed + 1,
    )
    print(f"bank: {len(bank)} entries, dim {bank.dim}; queries: {len(queries)}")

    res = classify_batch(bank, queries.vectors, args.k, tax)
    truth = [tax.index_of(3, label) for label in queries.labels]
    flat_preds, hier_preds = res.flat_leaf.tolist(), res.y3.tolist()
    fallback_hits = int(res.fallback.any(axis=1).sum())
    disagreements = 0
    for qid, label, flat_leaf, y1, y3 in zip(queries.ids, queries.labels, flat_preds,
                                             res.y1.tolist(), hier_preds):
        if flat_leaf != y3 and disagreements < 5:
            disagreements += 1
            print(
                f"  query {qid}: truth={label}"
                f" flat={tax.name_of(3, flat_leaf)}"
                f" hier={tax.name_of(3, y3)}"
                f" (lineage vote: {tax.name_of(1, y1)})"
            )

    n_classes = tax.leaf_count
    mf1_flat = macro_f1(ConfusionMatrix.from_pairs(truth, flat_preds, n_classes))
    mf1_hier = macro_f1(ConfusionMatrix.from_pairs(truth, hier_preds, n_classes))
    total_diff = sum(1 for f, h in zip(flat_preds, hier_preds) if f != h)
    print(f"\nqueries where the two modes disagree: {total_diff}")
    print(f"queries that needed the level fallback: {fallback_hits}")
    print(f"macro F1 flat:         {mf1_flat:.4f}")
    print(f"macro F1 hierarchical: {mf1_hier:.4f}")
    print(f"delta: {mf1_hier - mf1_flat:+.4f}")


if __name__ == "__main__":
    main()
