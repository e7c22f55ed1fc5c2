"""Release gate: one test per shipping criterion, full-size where it counts.

Each test prints nothing extra; the pass/fail line per criterion comes from
pytest -v verbosity. Reduced-size versions of several of these checks also
live in the per-module test files; the versions here run at the sizes and
tolerances the release gate requires.
"""
from __future__ import annotations

import filecmp
import io
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hierknn import (
    EmaState,
    FeatureBank,
    LossConfig,
    MODERATE_SHIFT,
    SynthConfig,
    ToyModel,
    ablation_grid,
    apply_shift,
    balanced_ce,
    bank_load,
    bank_save,
    class_weights_from_counts,
    confusion,
    default_taxonomy,
    dino_loss,
    ema_update,
    generate_member_banks,
    macro_f1,
    make_toy_dataset,
    predict_hierarchical,
    search,
    total_loss,
    train_toy,
)
from conftest import bank_from_arrays, crossed_label_bank, run_cli, toy_views, unit_rows


@pytest.mark.gate
def test_criterion_1_retrieval_matches_brute_force_oracle(tax):
    """200 randomized retrievals reproduce the full-sort oracle exactly."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for case in range(200):
        n = int(rng.integers(10, 501))
        dim = int(rng.integers(2, 17))
        k = int(rng.integers(1, 10))
        vectors = unit_rows(rng, n, dim)
        if case % 2 == 0:
            # duplicate a block so exact similarity ties are exercised
            dup = int(rng.integers(1, min(n, 6)))
            vectors[n - dup:] = vectors[:dup]
        bank = bank_from_arrays(tax, vectors, list(rng.integers(0, 13, n)))
        q = unit_rows(rng, 1, dim)[0].astype(np.float64)

        indices, similarities = search(bank, q[None], k)
        sims = {
            i: math.fsum(float(a) * float(b) for a, b in zip(bank.vectors[i], q))
            for i in range(n)
        }
        oracle = sorted(sims, key=lambda i: (-sims[i], i))[:k]
        assert indices[0].tolist() == oracle, f"case {case} diverged"
        np.testing.assert_allclose(
            similarities[0], [sims[i] for i in oracle], atol=1e-9
        )
    assert time.perf_counter() - start < 10.0


def test_criterion_2_hierarchical_consistency_fuzz(tax):
    """10,000 fuzzed predictions all satisfy the ancestor identities."""
    rng = np.random.default_rng(202)
    checked = 0
    fallbacks = 0
    for round_idx in range(100):
        if round_idx % 2 == 0:
            n = int(rng.integers(30, 120))
            bank = bank_from_arrays(
                tax, unit_rows(rng, n, 6), list(rng.integers(0, 13, n))
            )
        else:
            bank = crossed_label_bank(tax, rng, n_near=int(rng.integers(3, 10)))
        queries = unit_rows(rng, 100, 6)
        for q in queries:
            k = int(rng.integers(1, 14))
            pred = predict_hierarchical(bank, q, k, tax)
            assert tax.paths[pred.y3, 0] == pred.y1
            assert tax.paths[pred.y3, 1] == pred.y2
            checked += 1
            fallbacks += any(pred.fallback_used)
    assert checked == 10_000
    assert fallbacks > 0


def test_criterion_3_macro_f1_recount_oracle():
    """Scores match an exact rational recount on 100 fuzzed datasets."""
    def recount(truth, preds, n_classes):
        total = Fraction(0)
        for c in range(n_classes):
            tp = sum(1 for t, p in zip(truth, preds) if t == c and p == c)
            fp = sum(1 for t, p in zip(truth, preds) if t != c and p == c)
            fn = sum(1 for t, p in zip(truth, preds) if t == c and p != c)
            denom = 2 * tp + fp + fn
            total += Fraction(2 * tp, denom) if denom else Fraction(0)
        return float(total / n_classes)

    rng = np.random.default_rng(303)
    for _ in range(100):
        c = int(rng.integers(1, 16))
        n = int(rng.integers(1, 400))
        truth = list(rng.integers(0, c, n))
        preds = [int(t) if rng.random() < 0.5 else int(rng.integers(0, c)) for t in truth]
        grid = confusion(truth, preds, c)
        assert abs(macro_f1(grid) - recount(truth, preds, c)) <= 1e-12

    hand = np.array([[3, 1], [2, 4]])
    assert abs(macro_f1(hand) - 23 / 33) <= 1e-12


def test_criterion_4_gradients_match_finite_differences():
    """Analytic gradients of all three losses pass the h=1e-5 oracle."""
    def numeric_grad(f, x, h=1e-5):
        g = np.zeros_like(x)
        for i in range(x.size):
            up, dn = x.copy(), x.copy()
            up.flat[i] += h
            dn.flat[i] -= h
            g.flat[i] = (f(up) - f(dn)) / (2.0 * h)
        return g

    def rel_err(analytic, numeric):
        return float(
            np.linalg.norm(analytic - numeric)
            / max(np.linalg.norm(numeric), 1e-12)
        )

    rng = np.random.default_rng(404)
    start = time.perf_counter()
    worst = {"dino": 0.0, "balanced_ce": 0.0, "total": 0.0}
    for _ in range(50):
        d_in = int(rng.integers(2, 7))
        k = int(rng.integers(2, 6))
        c = int(rng.integers(2, 6))
        b = int(rng.integers(2, 7))
        model = ToyModel(rng.standard_normal((d_in, k)), rng.standard_normal((d_in, c)))
        ema = EmaState(
            ToyModel(rng.standard_normal((d_in, k)), rng.standard_normal((d_in, c))), 0.99
        )
        cfg = LossConfig(
            lambda_dino=float(rng.uniform(0.2, 2.0)),
            lambda_sup=float(rng.uniform(0.2, 2.0)),
            tau_teacher=float(rng.uniform(0.05, 1.0)),
            tau_student=float(rng.uniform(0.1, 1.0)),
        )
        batch = toy_views(rng, b, d_in, c)
        weights = class_weights_from_counts(rng.integers(1, 9, c))

        _, g = dino_loss(model, ema, batch, cfg)
        numeric = numeric_grad(
            lambda p: dino_loss(ToyModel(p.reshape(model.proj.shape), model.clf),
                                ema, batch, cfg)[0],
            model.proj.ravel().copy(),
        )
        worst["dino"] = max(worst["dino"], rel_err(g.proj.ravel(), numeric))

        _, g = balanced_ce(model, batch, weights)
        numeric = numeric_grad(
            lambda p: balanced_ce(ToyModel(model.proj, p.reshape(model.clf.shape)),
                                  batch, weights)[0],
            model.clf.ravel().copy(),
        )
        worst["balanced_ce"] = max(worst["balanced_ce"], rel_err(g.clf.ravel(), numeric))

        _, g = total_loss(model, ema, batch, weights, cfg)
        split = model.proj.size
        numeric = numeric_grad(
            lambda p: total_loss(
                ToyModel(p[:split].reshape(model.proj.shape),
                         p[split:].reshape(model.clf.shape)),
                ema, batch, weights, cfg,
            )[0],
            np.concatenate([model.proj.ravel(), model.clf.ravel()]),
        )
        analytic = np.concatenate([g.proj.ravel(), g.clf.ravel()])
        worst["total"] = max(worst["total"], rel_err(analytic, numeric))

    assert max(worst.values()) < 1e-4, worst
    assert time.perf_counter() - start < 30.0


def test_criterion_5_ema_contracts_geometrically():
    """After 100 steps toward a constant student the gap is m^100 exactly."""
    rng = np.random.default_rng(505)
    student = ToyModel(rng.standard_normal((5, 4)), rng.standard_normal((5, 3)))
    for m in (0.9, 0.99, 0.999):
        state = EmaState(
            ToyModel(rng.standard_normal((5, 4)), rng.standard_normal((5, 3))), m
        )
        gap0 = math.sqrt(
            np.sum((state.teacher.proj - student.proj) ** 2)
            + np.sum((state.teacher.clf - student.clf) ** 2)
        )
        for _ in range(100):
            state = ema_update(state, student)
        gap = math.sqrt(
            np.sum((state.teacher.proj - student.proj) ** 2)
            + np.sum((state.teacher.clf - student.clf) ** 2)
        )
        assert abs(gap - (m ** 100) * gap0) <= 1e-9


def test_criterion_6_hierarchy_and_ensemble_trends(tax):
    """Across 10 seeds, hierarchy wins at every ensemble size and bigger
    ensembles beat single members, on the stock long-tailed dataset under
    the stock moderate shift."""
    start = time.perf_counter()
    size_wins = np.zeros(7, dtype=int)
    ensemble_wins_flat = 0
    ensemble_wins_hier = 0
    for seed in range(10):
        cfg = SynthConfig(seed=seed)
        banks, base_queries = generate_member_banks(cfg, 7, tax)
        queries = []
        for j in range(3):
            queries.extend(apply_shift(base_queries, MODERATE_SHIFT, seed=1000 * (j + 1) + seed))
        truth = [tax.index_of(3, rec["label"]) for rec in queries]
        vectors = [np.asarray(rec["vector"], dtype=np.float64) for rec in queries]
        rows = ablation_grid(banks, vectors, truth, 35, tax)
        for i, row in enumerate(rows):
            size_wins[i] += row.with_hierarchy_mf1 >= row.without_hierarchy_mf1
        ensemble_wins_flat += rows[-1].without_hierarchy_mf1 >= rows[0].without_hierarchy_mf1
        ensemble_wins_hier += rows[-1].with_hierarchy_mf1 >= rows[0].with_hierarchy_mf1
    elapsed = time.perf_counter() - start

    assert size_wins.min() >= 8, f"hierarchy wins per size: {size_wins.tolist()}"
    assert ensemble_wins_flat >= 8, f"flat 7-vs-1 wins: {ensemble_wins_flat}"
    assert ensemble_wins_hier >= 8, f"hierarchical 7-vs-1 wins: {ensemble_wins_hier}"
    assert elapsed < 120.0


@pytest.mark.gate
def test_criterion_7_bank_round_trip_bit_exact(tax):
    """100 fuzzed banks survive save/load with identical bytes."""
    rng = np.random.default_rng(707)
    for case in range(100):
        n = int(rng.integers(0, 301)) if case != 0 else 1000
        dim = int(rng.integers(2, 257)) if case != 1 else 256
        vectors = (
            unit_rows(rng, n, dim) if n else np.zeros((0, dim), dtype=np.float32)
        )
        if n and case % 3 == 0:
            vectors[0, 0] = np.float32(-0.0)
            vectors[0, 1 % dim] = np.float32(1e-45)
        bank = bank_from_arrays(
            tax, vectors, list(rng.integers(0, 13, n)),
            ids=[f"e{case}-{i}-β" for i in range(n)],
        )
        buf = io.BytesIO()
        bank_save(bank, buf)
        buf.seek(0)
        loaded = bank_load(buf, tax)
        assert loaded.ids == bank.ids
        assert loaded.dim == bank.dim
        assert np.array_equal(loaded.labels, bank.labels)
        assert loaded.vectors.tobytes() == bank.vectors.tobytes()


@pytest.mark.gate
def test_criterion_8_commands_are_deterministic(tmp_path):
    """classify, ensemble, ablate, traintoy, and synth give byte-identical
    outputs across two fresh-process runs with identical seeds."""
    config = (
        "dim = 8\n"
        "per_leaf_counts = 12, 10, 8, 20, 30, 12, 8, 6, 10, 24, 6, 5, 9\n"
        "lineage_separation = 3.0\nleaf_separation = 1.4\n"
        "noise_sigma = 0.7\nseed = 5\n"
    )
    plans = [
        ("synth", ["synth", "--config", "synth.cfg", "--out", "bank.hbnk",
                   "--queries", "q.jsonl"]),
        ("synth2", ["synth", "--config", "synth2.cfg", "--out", "bank2.hbnk",
                    "--queries", "q2.jsonl"]),
        ("classify", ["classify", "--bank", "bank.hbnk", "--queries", "q.jsonl",
                      "--out", "preds.jsonl", "--k", "5"]),
        ("ensemble", ["ensemble", "--banks", "bank.hbnk,bank2.hbnk",
                      "--queries", "q.jsonl", "--out", "ens.jsonl", "--k", "5"]),
        ("ablate", ["ablate", "--banks", "3", "--config", "synth.cfg", "--k", "5",
                    "--rot", "0.3", "--noise", "0.1", "--out", "grid.csv"]),
        ("traintoy", ["traintoy", "--epochs", "12", "--per-class", "16",
                      "--out", "trace.csv"]),
    ]

    def run_all(workdir: Path):
        workdir.mkdir()
        (workdir / "synth.cfg").write_text(config, encoding="utf-8")
        (workdir / "synth2.cfg").write_text(config.replace("seed = 5", "seed = 6"),
                                            encoding="utf-8")
        for name, args in plans:
            proc = run_cli(args, workdir)
            assert proc.returncode == 0, f"{name}: {proc.stderr}"

    run_all(tmp_path / "a")
    run_all(tmp_path / "b")

    produced = sorted(
        p.name for p in (tmp_path / "a").iterdir() if not p.name.endswith(".cfg")
    )
    assert produced, "no outputs were produced"
    for name in produced:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), (
            f"{name} differs between identical runs"
        )


def test_criterion_9_toy_training_reaches_target_and_keeps_best():
    """The separable toy problem trains past 0.95 MF1 and the returned
    checkpoint reproduces the best traced score."""
    train, eval_views = make_toy_dataset(3, 8, 40, 4.0, 0.5, seed=0)
    model, trace = train_toy(
        train, eval_views, epochs=60, lr=0.1, cfg=LossConfig(),
        proj_dim=6, n_classes=3, seed=0,
    )
    preds = np.argmax(eval_views.x_student @ model.clf, axis=1)
    checkpoint_mf1 = macro_f1(confusion(eval_views.labels, preds, 3))
    assert checkpoint_mf1 >= 0.95
    assert checkpoint_mf1 == max(row.eval_mf1 for row in trace)
