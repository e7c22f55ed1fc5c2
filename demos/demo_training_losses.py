#!/usr/bin/env python3
"""Exercise the two-head toy trainer: gradient checks, EMA, and a full run.

First verifies the analytic gradients of the distillation loss, the
class-balanced cross entropy, and their weighted sum against central
finite differences. Then shows the teacher tracking the student at a few
momenta, and finally trains the linear toy model on separable clusters
and prints the per-epoch trace.
"""
import argparse
import math

import numpy as np

from hierknn import (
    EmaState,
    LossConfig,
    ToyModel,
    ema_update,
    grad_check_report,
    make_toy_dataset,
    train_toy,
)


def show_grad_checks(seed: int, trials: int) -> None:
    print("=== gradient checks (central differences, h=1e-5) ===")
    report = grad_check_report(seed=seed, trials=trials)
    for name, err in sorted(report.items()):
        verdict = "ok" if err < 1e-4 else "FAIL"
        print(f"  {name:12s} worst relative error {err:.3e}  [{verdict}]")


def show_ema(seed: int) -> None:
    print("\n=== EMA teacher tracking a frozen student ===")
    rng = np.random.default_rng(seed)
    student = ToyModel(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
    for m in (0.9, 0.99):
        state = EmaState(ToyModel(np.zeros((4, 3)), np.zeros((4, 2))), m)
        gap0 = math.sqrt(float(np.sum(student.proj**2) + np.sum(student.clf**2)))
        for step in range(1, 101):
            state = ema_update(state, student)
            if step not in (10, 50, 100):
                continue
            gap = math.sqrt(
                float(
                    np.sum((state.teacher.proj - student.proj) ** 2)
                    + np.sum((state.teacher.clf - student.clf) ** 2)
                )
            )
            print(f"  momentum {m}: after {step:3d} steps gap/gap0 = "
                  f"{gap / gap0:.6f} (closed form {m**step:.6f})")


def show_training(seed: int, epochs: int) -> None:
    print("\n=== toy training run ===")
    train, eval_views = make_toy_dataset(3, 8, 40, 4.0, 0.5, seed=seed)
    print(f"train {len(train)} pairs, eval {len(eval_views)} pairs, 3 classes")
    model, trace = train_toy(
        train, eval_views, epochs=epochs, lr=0.1, cfg=LossConfig(),
        proj_dim=6, n_classes=3, seed=seed,
    )
    print("epoch  distill     ce        total     eval MF1")
    stride = max(1, epochs // 10)
    for row in trace:
        if row.epoch % stride == 0 or row.epoch == 1 or row.epoch == epochs:
            print(f"{row.epoch:5d}  {row.dino:.6f}  {row.sup:.6f}"
                  f"  {row.total:.6f}  {row.eval_mf1:.4f}")
    best = max(trace, key=lambda r: r.eval_mf1)
    print(f"best eval MF1 {best.eval_mf1:.4f} at epoch {best.epoch}; "
          f"returned checkpoint keeps that snapshot")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--epochs", type=int, default=60)
    args = parser.parse_args()

    show_grad_checks(args.seed, args.trials)
    show_ema(args.seed)
    show_training(args.seed, args.epochs)


if __name__ == "__main__":
    main()
