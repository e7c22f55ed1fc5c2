"""Losses, gradients, EMA updates, and the toy training loop."""
from __future__ import annotations

import math

import numpy as np
import pytest

from hierknn import (
    EmaState,
    LossConfig,
    ToyModel,
    TrainingError,
    Views,
    balanced_ce,
    class_weights_from_counts,
    confusion,
    dino_loss,
    ema_update,
    finite_diff_grad,
    macro_f1,
    make_toy_dataset,
    softmax_temp,
    total_loss,
    train_toy,
)
from conftest import toy_views


def numeric_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Independent central-difference gradient, one coordinate at a time."""
    g = np.zeros_like(x, dtype=np.float64)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up.flat[i] += h
        dn.flat[i] -= h
        g.flat[i] = (f(up) - f(dn)) / (2.0 * h)
    return g


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(numeric)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / scale


def random_case(rng, with_labels: bool = True):
    d_in = int(rng.integers(2, 7))
    k = int(rng.integers(2, 6))
    c = int(rng.integers(2, 6))
    b = int(rng.integers(2, 7))
    model = ToyModel(rng.standard_normal((d_in, k)), rng.standard_normal((d_in, c)))
    teacher = ToyModel(rng.standard_normal((d_in, k)), rng.standard_normal((d_in, c)))
    cfg = LossConfig(
        lambda_dino=float(rng.uniform(0.2, 2.0)),
        lambda_sup=float(rng.uniform(0.2, 2.0)),
        tau_teacher=float(rng.uniform(0.05, 1.0)),
        tau_student=float(rng.uniform(0.1, 1.0)),
    )
    batch = toy_views(rng, b, d_in, c if with_labels else None)
    weights = class_weights_from_counts(rng.integers(1, 9, c))
    return model, EmaState(teacher, 0.99), batch, weights, cfg


def eval_mf1_of(model: ToyModel, views: Views) -> float:
    preds = np.argmax(views.x_student @ model.clf, axis=1)
    return macro_f1(confusion(views.labels, preds, model.n_classes))


class TestSoftmax:
    def test_uniform_logits_give_uniform_probs(self):
        for tau in (0.05, 1.0, 7.0):
            p = softmax_temp([2.5, 2.5, 2.5, 2.5], tau)
            np.testing.assert_allclose(p, 0.25, atol=1e-12)

    def test_small_temperature_sharpens_to_argmax(self):
        p = softmax_temp([1.0, 0.0], 0.01)
        assert p[0] >= 1.0 - 1e-10

    def test_hand_values_at_unit_temperature(self):
        p = softmax_temp([1.0, 2.0, 3.0], 1.0)
        np.testing.assert_allclose(p, [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = softmax_temp(rng.standard_normal(int(rng.integers(2, 9))) * 50,
                             float(rng.uniform(0.02, 5.0)))
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p >= 0)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            softmax_temp([1.0, 2.0], 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            softmax_temp([1.0, float("inf")], 1.0)


class TestDinoLoss:
    def test_matching_point_masses_cost_nothing(self):
        """Identical, sharply peaked teacher and student give loss near 0."""
        w = np.zeros((2, 3))
        w[0, 0] = 100.0
        model = ToyModel(w, np.zeros((2, 2)))
        ema = EmaState(model.copy(), 0.9)
        batch = Views([[1.0, 0.0]], [[1.0, 0.0]], [-1])
        cfg = LossConfig(tau_teacher=0.1, tau_student=0.1)
        loss, _ = dino_loss(model, ema, batch, cfg)
        assert 0.0 <= loss < 1e-8

    def test_uniform_teacher_floors_at_log_k(self):
        """Against a uniform teacher the loss is at least log K."""
        rng = np.random.default_rng(1)
        k = 5
        teacher = ToyModel(np.zeros((4, k)), np.zeros((4, 2)))
        cfg = LossConfig()
        batch = toy_views(rng, 6, 4)
        student = ToyModel(rng.standard_normal((4, k)), np.zeros((4, 2)))
        loss, _ = dino_loss(student, EmaState(teacher, 0.9), batch, cfg)
        assert loss >= math.log(k) - 1e-12
        flat_student = ToyModel(np.zeros((4, k)), np.zeros((4, 2)))
        loss_flat, _ = dino_loss(flat_student, EmaState(teacher, 0.9), batch, cfg)
        assert loss_flat == pytest.approx(math.log(k), abs=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            model, ema, batch, _, cfg = random_case(rng)
            loss, _ = dino_loss(model, ema, batch, cfg)
            assert loss >= 0.0

    def test_gradient_matches_finite_differences(self):
        """Analytic projection-head gradient vs the central-difference oracle."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            model, ema, batch, _, cfg = random_case(rng)
            _, grads = dino_loss(model, ema, batch, cfg)
            assert np.all(grads.clf == 0.0)

            def f(flat, model=model, ema=ema, batch=batch, cfg=cfg):
                trial = ToyModel(flat.reshape(model.proj.shape), model.clf)
                return dino_loss(trial, ema, batch, cfg)[0]

            numeric = numeric_grad(f, model.proj.ravel().copy())
            assert rel_err(grads.proj.ravel(), numeric) < 1e-4


class TestBalancedCE:
    def test_huge_margin_costs_nothing(self):
        clf = np.zeros((2, 2))
        clf[0, 0] = 200.0
        model = ToyModel(np.zeros((2, 3)), clf)
        batch = Views([[1.0, 0.0]], [[1.0, 0.0]], [0])
        loss, _ = balanced_ce(model, batch, class_weights_from_counts([4, 4]))
        assert 0.0 <= loss < 1e-12

    def test_two_class_coin_flip_costs_ln2(self):
        """Zero logits on two classes under unit weight cost exactly ln 2."""
        model = ToyModel(np.zeros((3, 2)), np.zeros((3, 2)))
        batch = Views(np.ones((1, 3)), np.ones((1, 3)), [0])
        loss, _ = balanced_ce(model, batch, class_weights_from_counts([5, 5]))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_unlabeled_sample_rejected(self):
        model = ToyModel(np.zeros((2, 2)), np.zeros((2, 2)))
        batch = Views(np.ones((1, 2)), np.ones((1, 2)), [-1])
        with pytest.raises(ValueError, match="unlabeled"):
            balanced_ce(model, batch, class_weights_from_counts([1, 1]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            model, _, batch, weights, _ = random_case(rng)
            _, grads = balanced_ce(model, batch, weights)
            assert np.all(grads.proj == 0.0)

            def f(flat, model=model, batch=batch, weights=weights):
                trial = ToyModel(model.proj, flat.reshape(model.clf.shape))
                return balanced_ce(trial, batch, weights)[0]

            numeric = numeric_grad(f, model.clf.ravel().copy())
            assert rel_err(grads.clf.ravel(), numeric) < 1e-4


class TestTotalLoss:
    def test_zero_distillation_weight_reduces_to_supervised(self):
        rng = np.random.default_rng(5)
        model, ema, batch, weights, _ = random_case(rng)
        cfg = LossConfig(lambda_dino=0.0, lambda_sup=1.0)
        total, g_total = total_loss(model, ema, batch, weights, cfg)
        ce, g_ce = balanced_ce(model, batch, weights)
        assert total == ce
        np.testing.assert_array_equal(g_total.clf, g_ce.clf)
        np.testing.assert_array_equal(g_total.proj, 0.0)

    def test_zero_supervised_weight_reduces_to_distillation(self):
        rng = np.random.default_rng(6)
        model, ema, batch, weights, _ = random_case(rng)
        cfg = LossConfig(lambda_dino=1.0, lambda_sup=0.0)
        total, g_total = total_loss(model, ema, batch, weights, cfg)
        dino, g_dino = dino_loss(model, ema, batch, cfg)
        assert total == dino
        np.testing.assert_array_equal(g_total.proj, g_dino.proj)

    def test_unit_weights_sum_the_parts(self):
        rng = np.random.default_rng(7)
        model, ema, batch, weights, _ = random_case(rng)
        cfg = LossConfig(lambda_dino=1.0, lambda_sup=1.0)
        total, _ = total_loss(model, ema, batch, weights, cfg)
        dino, _ = dino_loss(model, ema, batch, cfg)
        ce, _ = balanced_ce(model, batch, weights)
        assert total == pytest.approx(dino + ce, abs=1e-12)

    def test_weight_scaling_is_linear(self):
        rng = np.random.default_rng(8)
        model, ema, batch, weights, cfg = random_case(rng)
        scaled = LossConfig(3.0 * cfg.lambda_dino, 3.0 * cfg.lambda_sup,
                            cfg.tau_teacher, cfg.tau_student)
        base, g_base = total_loss(model, ema, batch, weights, cfg)
        up, g_up = total_loss(model, ema, batch, weights, scaled)
        assert up == pytest.approx(3.0 * base, rel=1e-12)
        np.testing.assert_allclose(g_up.proj, 3.0 * g_base.proj, rtol=1e-12)
        np.testing.assert_allclose(g_up.clf, 3.0 * g_base.clf, rtol=1e-12)

    def test_positive_supervised_weight_needs_labels(self):
        rng = np.random.default_rng(9)
        model, ema, batch, weights, cfg = random_case(rng, with_labels=False)
        with pytest.raises(ValueError, match="no labels"):
            total_loss(model, ema, batch, weights, cfg)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(8):
            model, ema, batch, weights, cfg = random_case(rng)
            _, grads = total_loss(model, ema, batch, weights, cfg)
            shapes = (model.proj.shape, model.clf.shape)
            split = model.proj.size

            def f(flat, model=model, ema=ema, batch=batch, weights=weights,
                  cfg=cfg, shapes=shapes, split=split):
                trial = ToyModel(flat[:split].reshape(shapes[0]),
                                 flat[split:].reshape(shapes[1]))
                return total_loss(trial, ema, batch, weights, cfg)[0]

            flat = np.concatenate([model.proj.ravel(), model.clf.ravel()])
            numeric = numeric_grad(f, flat)
            analytic = np.concatenate([grads.proj.ravel(), grads.clf.ravel()])
            assert rel_err(analytic, numeric) < 1e-4


class TestEma:
    def test_momentum_one_is_a_fixed_point(self):
        rng = np.random.default_rng(11)
        teacher = ToyModel(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
        student = ToyModel(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
        out = ema_update(EmaState(teacher, 1.0), student)
        np.testing.assert_array_equal(out.teacher.proj, teacher.proj)
        np.testing.assert_array_equal(out.teacher.clf, teacher.clf)

    def test_momentum_zero_copies_the_student(self):
        rng = np.random.default_rng(12)
        teacher = ToyModel(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
        student = ToyModel(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
        out = ema_update(EmaState(teacher, 0.0), student)
        np.testing.assert_array_equal(out.teacher.proj, student.proj)
        np.testing.assert_array_equal(out.teacher.clf, student.clf)

    def test_single_step_contracts_by_momentum(self):
        """One update shrinks the teacher-student gap by exactly m."""
        rng = np.random.default_rng(13)
        for m in (0.3, 0.9, 0.999):
            teacher = ToyModel(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
            student = ToyModel(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
            before = np.linalg.norm(teacher.proj - student.proj)
            after = np.linalg.norm(
                ema_update(EmaState(teacher, m), student).teacher.proj - student.proj
            )
            assert after == pytest.approx(m * before, rel=1e-12)

    def test_bad_momentum_rejected(self):
        model = ToyModel(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="momentum"):
            EmaState(model, 1.5)

    def test_shape_mismatch_rejected(self):
        a = ToyModel(np.zeros((2, 2)), np.zeros((2, 2)))
        b = ToyModel(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="shapes differ"):
            ema_update(EmaState(a, 0.9), b)


class TestClassWeights:
    def test_equal_counts_give_unit_weights(self):
        w = class_weights_from_counts([7, 7, 7])
        np.testing.assert_allclose(w, 1.0, atol=1e-12)

    def test_inverse_frequency_hand_case(self):
        w = class_weights_from_counts([1, 3])
        np.testing.assert_allclose(w, [1.5, 0.5], atol=1e-12)

    def test_mean_is_normalized_to_one(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            counts = rng.integers(1, 500, int(rng.integers(2, 14)))
            assert abs(class_weights_from_counts(counts).mean() - 1.0) <= 1e-9

    def test_zero_count_rejected(self):
        with pytest.raises(TrainingError, match="zero training samples"):
            class_weights_from_counts([4, 0, 2])


class TestTrainToy:
    def run(self, seed=0, epochs=40, lr=0.1, **dataset_kwargs):
        params = dict(n_classes=3, dim=8, per_class=30, separation=4.0,
                      view_sigma=0.5, seed=seed)
        params.update(dataset_kwargs)
        train, eval_views = make_toy_dataset(**params)
        model, trace = train_toy(
            train, eval_views, epochs=epochs, lr=lr, cfg=LossConfig(),
            proj_dim=6, n_classes=params["n_classes"], seed=seed,
        )
        return model, trace, eval_views

    def test_separable_classes_are_learned(self):
        """Well-separated clusters reach high eval macro F1."""
        model, trace, eval_views = self.run()
        assert eval_mf1_of(model, eval_views) >= 0.95

    def test_best_checkpoint_matches_trace_maximum(self):
        model, trace, eval_views = self.run(seed=1)
        assert eval_mf1_of(model, eval_views) == max(r.eval_mf1 for r in trace)

    def test_zero_learning_rate_changes_nothing(self):
        model, trace, eval_views = self.run(seed=2, epochs=10, lr=0.0)
        assert len({r.eval_mf1 for r in trace}) == 1
        assert len({r.total for r in trace}) == 1

    def test_same_seed_same_trace(self):
        _, trace_a, _ = self.run(seed=3, epochs=15)
        _, trace_b, _ = self.run(seed=3, epochs=15)
        assert trace_a == trace_b

    def test_trace_row_per_epoch(self):
        _, trace, _ = self.run(seed=4, epochs=12)
        assert [r.epoch for r in trace] == list(range(1, 13))

    def test_empty_training_set_rejected(self):
        _, eval_views = make_toy_dataset(3, 8, 12, 4.0, 0.5, 0)
        empty = Views(np.empty((0, 8)), np.empty((0, 8)), [])
        with pytest.raises(TrainingError, match="empty training set"):
            train_toy(empty, eval_views, epochs=1, lr=0.1, cfg=LossConfig(),
                      proj_dim=4, n_classes=3, seed=0)


class TestToyDataset:
    def test_split_sizes_and_labels(self):
        train, eval_views = make_toy_dataset(3, 8, 40, 4.0, 0.5, 0)
        assert len(train) + len(eval_views) == 3 * 40
        assert all(label != -1 for label in eval_views.labels.tolist())
        assert set(eval_views.labels.tolist()) == {0, 1, 2}

    def test_dim_must_cover_classes(self):
        with pytest.raises(ValueError, match="dim"):
            make_toy_dataset(5, 3, 10, 4.0, 0.5, 0)

    @pytest.mark.gate
    @pytest.mark.parametrize("n_classes, dim, per_class, seed",
                             [(3, 8, 40, 0), (5, 12, 9, 3), (1, 3, 5, 7), (2, 2, 1, 1)])
    def test_columns_match_per_sample_draws(self, n_classes, dim, per_class, seed):
        """Bit for bit, the columns are what drawing one sample at a time gives:
        per class, per sample, base noise, then teacher and student view noise;
        the first quarter of each class (at least one sample) is held out."""
        separation, view_sigma = 2.5, 0.7
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((dim, n_classes)))
        means = separation * basis.T
        n_eval = max(1, int(per_class * 0.25))
        rows = {False: ([], [], []), True: ([], [], [])}  # keyed by "held out"
        for c in range(n_classes):
            for j in range(per_class):
                base = means[c] + rng.standard_normal(dim)
                xt = base + view_sigma * rng.standard_normal(dim)
                xs = base + view_sigma * rng.standard_normal(dim)
                for column, value in zip(rows[j < n_eval], (xt, xs, c)):
                    column.append(value)

        splits = make_toy_dataset(n_classes, dim, per_class, separation, view_sigma, seed)
        for views, (xt, xs, labels) in zip(splits, (rows[False], rows[True])):
            for got, want in ((views.x_teacher, xt), (views.x_student, xs)):
                assert got.dtype == np.float64 and got.shape == (len(want), dim)
                assert got.tobytes() == np.array(want).reshape(-1, dim).tobytes()
            assert views.labels.tolist() == labels


class TestViews:
    def test_len_is_the_sample_count(self):
        assert len(Views(np.zeros((5, 3)), np.zeros((5, 3)), np.full(5, -1))) == 5

    def test_views_must_share_dims(self):
        with pytest.raises(ValueError, match="views must share dims"):
            Views(np.zeros((4, 3)), np.zeros((4, 2)), np.zeros(4))

    def test_one_label_per_row(self):
        with pytest.raises(ValueError, match="one label per row"):
            Views(np.zeros((4, 3)), np.zeros((4, 3)), [0, 1])

    def test_labeled_rows_are_taken_for_the_supervised_term(self):
        """A batch with unlabeled rows gives the supervised term of its labeled rows."""
        rng = np.random.default_rng(15)
        model, ema, batch, weights, _ = random_case(rng)
        labels = batch.labels.copy()
        labels[::2] = -1
        mixed = Views(batch.x_teacher, batch.x_student, labels)
        cfg = LossConfig(lambda_dino=0.0, lambda_sup=1.0)
        total, g_total = total_loss(model, ema, mixed, weights, cfg)
        ce, g_ce = balanced_ce(model, mixed[labels != -1], weights)
        assert total == ce
        np.testing.assert_array_equal(g_total.clf, g_ce.clf)


class TestFiniteDiffGrad:
    def test_any_layout_gives_the_gradient(self):
        """A transposed or strided input gets the gradient of its values, and is left as it was."""
        a = np.arange(12.0).reshape(3, 4) - 5.0
        for x in (a, a.T, a[:, ::2]):
            before = x.copy()
            grad = finite_diff_grad(lambda v: float((v * v).sum()), x)
            assert grad.shape == x.shape
            np.testing.assert_allclose(grad, 2.0 * x, rtol=1e-7, atol=1e-7)
            np.testing.assert_array_equal(x, before)
