#!/usr/bin/env python3
"""Sweep ensemble size under distribution shift and print the F1 grid.

Builds several member banks from perturbed exports of the same synthetic
population, pools a few differently-seeded drifted query sets, and scores
every ensemble size 1..N in both flat and level-constrained mode. The
expected picture: more members help, and the level constraints help at
every size.
"""
import argparse
import time

import numpy as np

from hierknn import (
    MODERATE_SHIFT,
    SynthConfig,
    ablation_grid,
    apply_shift,
    default_taxonomy,
    generate_member_banks,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--members", type=int, default=7)
    parser.add_argument("--k", type=int, default=35)
    parser.add_argument("--shifts", type=int, default=3,
                        help="how many drifted query pools to concatenate")
    args = parser.parse_args()

    tax = default_taxonomy()
    cfg = SynthConfig(seed=args.seed)
    t0 = time.perf_counter()
    banks, base_queries = generate_member_banks(cfg, args.members, tax)
    print(f"{len(banks)} member banks of {len(banks[0])} entries each, "
          f"dim {banks[0].dim} ({time.perf_counter() - t0:.1f}s)")

    pools = [
        apply_shift(base_queries, MODERATE_SHIFT, seed=1000 * (j + 1) + args.seed)
        for j in range(args.shifts)
    ]
    truth = [tax.index_of(3, label) for pool in pools for label in pool.labels]
    vectors = np.concatenate([pool.vectors for pool in pools])
    print(f"{len(vectors)} drifted queries "
          f"(rotation {MODERATE_SHIFT.rotation_angle}, bias {MODERATE_SHIFT.bias}, "
          f"extra noise {MODERATE_SHIFT.extra_noise})")

    t0 = time.perf_counter()
    rows = ablation_grid(banks, vectors, truth, args.k, tax)
    print(f"grid computed in {time.perf_counter() - t0:.1f}s\n")

    print("members  flat MF1  hier MF1  delta")
    for row in rows:
        delta = row.with_hierarchy_mf1 - row.without_hierarchy_mf1
        print(f"{row.members:7d}  {row.without_hierarchy_mf1:8.4f}"
              f"  {row.with_hierarchy_mf1:8.4f}  {delta:+.4f}")

    gain_flat = rows[-1].without_hierarchy_mf1 - rows[0].without_hierarchy_mf1
    gain_hier = rows[-1].with_hierarchy_mf1 - rows[0].with_hierarchy_mf1
    print(f"\nensemble gain ({args.members} members vs 1): "
          f"flat {gain_flat:+.4f}, hierarchical {gain_hier:+.4f}")


if __name__ == "__main__":
    main()
