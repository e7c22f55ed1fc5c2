"""Desk-scale training heads: distillation and supervised losses, verified gradients.

Two linear heads operate directly on synthetic embedding vectors (there is
no backbone here): a projection head feeding the teacher-student
distillation term, and a classifier head feeding a class-balanced
cross-entropy. The teacher is an exponential moving average of the student.
All arithmetic is float64, and every analytic gradient in this module is
checked against central finite differences in the test suite.

Optimization is plain full-batch gradient descent on purpose: the point of
this module is numerically verifiable losses and gradients, not training
throughput.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import TrainingError, require_finite
from .metrics import confusion, macro_f1

DEFAULT_TAU_TEACHER = 0.04
DEFAULT_TAU_STUDENT = 0.1
DEFAULT_MOMENTUM = 0.999
_EVAL_FRACTION = 0.25  # share of each class that make_toy_dataset holds out for eval
_FD_STEP = 1e-5  # central-difference step of finite_diff_grad and grad_check_report


@dataclass
class ToyModel:
    """Two linear heads over d_in inputs: projection (K outputs) and classifier (C outputs)."""

    proj: np.ndarray  # (d_in, proj_dim)
    clf: np.ndarray  # (d_in, n_classes)

    def __post_init__(self):
        self.proj = np.asarray(self.proj, dtype=np.float64)
        self.clf = np.asarray(self.clf, dtype=np.float64)
        if self.proj.ndim != 2 or self.clf.ndim != 2:
            raise ValueError("head weights must be 2-D matrices")
        if self.proj.shape[0] != self.clf.shape[0]:
            raise ValueError(
                f"heads disagree on input dim ({self.proj.shape[0]} vs {self.clf.shape[0]})"
            )
        if not (np.all(np.isfinite(self.proj)) and np.all(np.isfinite(self.clf))):
            raise ValueError("non-finite parameters")

    @property
    def n_classes(self) -> int:
        return self.clf.shape[1]

    def copy(self) -> "ToyModel":
        return ToyModel(self.proj.copy(), self.clf.copy())

    @classmethod
    def init_random(cls, d_in: int, proj_dim: int, n_classes: int, rng: np.random.Generator,
                    scale: float = 0.1) -> "ToyModel":
        return cls(scale * rng.standard_normal((d_in, proj_dim)),
                   scale * rng.standard_normal((d_in, n_classes)))


@dataclass
class EmaState:
    """Teacher parameters tracked as an exponential moving average of the student."""

    teacher: ToyModel
    momentum: float

    def __post_init__(self):
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError(f"momentum must be in [0, 1], got {self.momentum}")


def ema_update(ema: EmaState, student: ToyModel) -> EmaState:
    """teacher <- m * teacher + (1 - m) * student, element-wise."""
    t = ema.teacher
    if t.proj.shape != student.proj.shape or t.clf.shape != student.clf.shape:
        raise ValueError("teacher and student shapes differ")
    m = ema.momentum
    return EmaState(ToyModel(m * t.proj + (1.0 - m) * student.proj,
                             m * t.clf + (1.0 - m) * student.clf), m)


@dataclass(frozen=True)
class LossConfig:
    lambda_dino: float = 1.0
    lambda_sup: float = 1.0
    tau_teacher: float = DEFAULT_TAU_TEACHER
    tau_student: float = DEFAULT_TAU_STUDENT

    def __post_init__(self):
        require_finite(**vars(self))
        if self.lambda_dino < 0 or self.lambda_sup < 0:
            raise ValueError("loss weights must be >= 0")
        if self.lambda_dino == 0 and self.lambda_sup == 0:
            raise ValueError("at least one loss weight must be positive")
        if self.tau_teacher <= 0 or self.tau_student <= 0:
            raise ValueError("temperatures must be positive")


def class_weights_from_counts(counts) -> np.ndarray:
    """Inverse-frequency weights, mean-normalized; zero counts are an error."""
    arr = np.asarray(counts)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("counts must be a nonempty 1-D array")
    if np.any(arr < 1):
        bad = int(np.argmin(arr))
        raise TrainingError(f"class {bad} has zero training samples")
    w = 1.0 / arr.astype(np.float64)
    return w / w.mean()


@dataclass(frozen=True)
class Views:
    """n samples, each seen twice, as columns: (n, d) float64 teacher and student
    views, and (n,) int64 labels, -1 marking an unlabeled sample."""

    x_teacher: np.ndarray
    x_student: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        xt = np.ascontiguousarray(self.x_teacher, dtype=np.float64)
        xs = np.ascontiguousarray(self.x_student, dtype=np.float64)
        if xt.shape != xs.shape:
            raise ValueError("views must share dims")
        labels = np.asarray(self.labels, dtype=np.int64)
        if xt.ndim != 2 or labels.shape != xt.shape[:1]:
            raise ValueError("views must be (n, d) arrays with one label per row")
        for name, value in (("x_teacher", xt), ("x_student", xs), ("labels", labels)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, rows) -> "Views":
        return Views(self.x_teacher[rows], self.x_student[rows], self.labels[rows])


@dataclass
class Gradients:
    """Gradient of a scalar loss w.r.t. the student's two heads."""

    proj: np.ndarray
    clf: np.ndarray


def softmax_temp(logits, tau: float) -> np.ndarray:
    """Temperature-scaled softmax along the last axis, max-subtracted for stability."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    z = z / tau
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(scaled: np.ndarray) -> np.ndarray:
    z = scaled - scaled.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def dino_loss(model: ToyModel, ema: EmaState, batch: Views,
              cfg: LossConfig) -> tuple[float, Gradients]:
    """Teacher-student distillation term with its analytic student gradient.

    Teacher probabilities come from the EMA teacher's projection head on the
    teacher views (no gradient flows there); student probabilities from the
    student head on the student views. The loss is the batch-mean
    cross-entropy between the two distributions.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    xt, xs, b = batch.x_teacher, batch.x_student, len(batch)
    if xt.shape[1] != model.proj.shape[0]:
        raise ValueError(f"batch dim {xt.shape[1]} != model dim {model.proj.shape[0]}")
    p_teacher = softmax_temp(xt @ ema.teacher.proj, cfg.tau_teacher)
    log_p_student = _log_softmax((xs @ model.proj) / cfg.tau_student)
    loss = float(-(p_teacher * log_p_student).sum() / b)

    d_logits = (np.exp(log_p_student) - p_teacher) / (b * cfg.tau_student)
    return loss, Gradients(xs.T @ d_logits, np.zeros_like(model.clf))


def balanced_ce(model: ToyModel, batch: Views, weights: np.ndarray) -> tuple[float, Gradients]:
    """Class-weighted cross-entropy of the classifier head on student views."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    labels = batch.labels
    if np.any(labels == -1):
        raise ValueError("unlabeled sample in a supervised batch")
    if labels.max() >= model.n_classes or labels.min() < 0:
        raise ValueError("label out of range for the classifier head")
    if np.shape(weights) != (model.n_classes,):
        raise ValueError("weight vector length != class count")

    xs, b = batch.x_student, len(batch)
    w = np.asarray(weights, dtype=np.float64)[labels]  # (b,)
    log_p = _log_softmax(xs @ model.clf)
    loss = float(-(w * log_p[np.arange(b), labels]).sum() / b)

    d_logits = np.exp(log_p) * w[:, None]
    d_logits[np.arange(b), labels] -= w
    d_logits /= b
    return loss, Gradients(np.zeros_like(model.proj), xs.T @ d_logits)


def total_loss(model: ToyModel, ema: EmaState, batch: Views, weights: np.ndarray,
               cfg: LossConfig) -> tuple[float, Gradients]:
    """Weighted sum of the distillation and supervised terms.

    The distillation term sees the whole batch; the supervised term sees
    only the labeled samples (and errors if a positive weight finds none).
    """
    return _loss_terms(model, ema, batch, weights, cfg)[2:]


def _loss_terms(model, ema, batch, weights, cfg) -> tuple[float, float, float, Gradients]:
    """Distillation and supervised losses (0.0 if unweighted), then what total_loss returns."""
    l_dino = l_sup = loss = 0.0
    grads = Gradients(np.zeros_like(model.proj), np.zeros_like(model.clf))
    if cfg.lambda_dino > 0:
        l_dino, g_dino = dino_loss(model, ema, batch, cfg)
        loss += cfg.lambda_dino * l_dino
        grads.proj += cfg.lambda_dino * g_dino.proj
    if cfg.lambda_sup > 0:
        labeled = batch.labels != -1
        if not labeled.any():
            raise ValueError("supervised weight is positive but the batch has no labels")
        l_sup, g_sup = balanced_ce(model, batch if labeled.all() else batch[labeled], weights)
        loss += cfg.lambda_sup * l_sup
        grads.clf += cfg.lambda_sup * g_sup.clf
    return l_dino, l_sup, loss, grads


@dataclass(frozen=True)
class TraceRow:
    epoch: int
    dino: float
    sup: float
    total: float
    eval_mf1: float


def train_toy(train: Views, eval_views: Views, *, epochs: int, lr: float, cfg: LossConfig,
              proj_dim: int, n_classes: int, seed: int,
              momentum: float = DEFAULT_MOMENTUM) -> tuple[ToyModel, list[TraceRow]]:
    """Full-batch gradient descent with an EMA teacher update per step.

    The supervised loss weighs classes by :func:`class_weights_from_counts`
    of the training labels. Returns the snapshot with the highest eval macro
    F1 (earliest epoch on ties) and the per-epoch trace. Deterministic given
    the seed. A step whose loss is not finite raises :class:`TrainingError`.
    """
    if len(train) == 0:
        raise TrainingError("empty training set")
    if len(eval_views) == 0 or np.any(eval_views.labels == -1):
        raise TrainingError("eval split must be nonempty and fully labeled")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    require_finite(lr=lr)

    labels = train.labels[train.labels != -1]
    weights = np.ones(n_classes)
    if len(labels) and cfg.lambda_sup > 0:
        weights = class_weights_from_counts(np.bincount(labels, minlength=n_classes))

    rng = np.random.default_rng(seed)
    student = ToyModel.init_random(train.x_student.shape[1], proj_dim, n_classes, rng)
    ema = EmaState(student.copy(), momentum)

    trace: list[TraceRow] = []
    best_model, best_mf1 = None, -1.0
    for epoch in range(1, epochs + 1):
        with np.errstate(all="ignore"):  # a step that diverges is reported below instead
            l_dino, l_sup, l_total, grads = _loss_terms(student, ema, train, weights, cfg)
            if not np.isfinite(l_total):
                raise TrainingError(f"training diverged at epoch {epoch} "
                                    f"(loss={l_total!r}, lr={lr})")
            student = ToyModel(student.proj - lr * grads.proj, student.clf - lr * grads.clf)
            ema = ema_update(ema, student)
            preds = np.argmax(eval_views.x_student @ student.clf, axis=1)
        mf1 = macro_f1(confusion(eval_views.labels, preds, n_classes))
        trace.append(TraceRow(epoch, l_dino, l_sup, l_total, mf1))
        if mf1 > best_mf1:
            best_model, best_mf1 = student.copy(), mf1
    return best_model, trace


def finite_diff_grad(f, x: np.ndarray, h: float = _FD_STEP) -> np.ndarray:
    """Central-difference gradient of scalar ``f`` at ``x``, one coordinate at a time.

    ``f`` sees a C-contiguous float64 copy of ``x`` nudged in place, whatever the layout of ``x``.
    """
    x = np.array(x, dtype=np.float64, order="C")
    grad = np.zeros_like(x)
    flat, g = x.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        g[i] = (up - down) / (2.0 * h)
    return grad


def relative_grad_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max absolute discrepancy, normalized by the largest gradient magnitude."""
    scale = max(float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)), 1e-12)
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def _random_case(rng: np.random.Generator):
    d_in = int(rng.integers(3, 9))
    proj_dim = int(rng.integers(2, 7))
    n_classes = int(rng.integers(2, 6))
    b = int(rng.integers(2, 7))
    model = ToyModel.init_random(d_in, proj_dim, n_classes, rng, scale=0.5)
    ema = EmaState(ToyModel.init_random(d_in, proj_dim, n_classes, rng, scale=0.5), 0.99)
    xt, xs = np.empty((b, d_in)), np.empty((b, d_in))
    labels = np.empty(b, dtype=np.int64)
    for i in range(b):  # per sample, teacher view, student view, label: the reports' draw order
        rng.standard_normal(out=xt[i])
        rng.standard_normal(out=xs[i])
        labels[i] = rng.integers(n_classes)
    batch = Views(xt, xs, labels)
    cfg = LossConfig(
        lambda_dino=float(rng.uniform(0.3, 2.0)),
        lambda_sup=float(rng.uniform(0.3, 2.0)),
        tau_teacher=float(rng.uniform(0.04, 0.5)),
        tau_student=float(rng.uniform(0.08, 0.5)),
    )
    weights = class_weights_from_counts(rng.integers(1, 9, size=n_classes))
    return model, ema, batch, cfg, weights


def grad_check_report(seed: int = 0, trials: int = 50) -> dict[str, float]:
    """Worst relative gradient error per loss over random configurations.

    Each trial draws random heads, batch, temperatures, and weights, then
    compares every analytic gradient against central finite differences on
    the corresponding scalar loss.
    """
    rng = np.random.default_rng(seed)
    worst = {"dino": 0.0, "balanced_ce": 0.0, "total": 0.0}
    for _ in range(trials):
        model, ema, batch, cfg, weights = _random_case(rng)
        for name, loss, heads in (  # each head's numeric gradient, the other head held
            ("dino", lambda m: dino_loss(m, ema, batch, cfg), ("proj",)),
            ("balanced_ce", lambda m: balanced_ce(m, batch, weights), ("clf",)),
            ("total", lambda m: total_loss(m, ema, batch, weights, cfg), ("proj", "clf")),
        ):
            grads = loss(model)[1]
            err = max(relative_grad_error(getattr(grads, head), finite_diff_grad(
                lambda x: loss(replace(model, **{head: x}))[0], getattr(model, head)))
                for head in heads)
            worst[name] = max(worst[name], err)
    return worst


def make_toy_dataset(n_classes: int, dim: int, per_class: int, separation: float,
                     view_sigma: float, seed: int) -> tuple[Views, Views]:
    """Gaussian class clusters rendered as two-view samples; split (train, eval).

    Views are independent additive-noise perturbations of the same base
    sample. Class means are mutually orthogonal directions scaled by
    ``separation``, so the classes are linearly separable when the view
    noise is small against it. Both splits are ordered by class.
    """
    if n_classes > dim:
        raise ValueError("need dim >= n_classes for orthogonal class means")
    require_finite(separation=separation, view_sigma=view_sigma)
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, n_classes)))
    means = separation * basis.T  # (n_classes, dim)
    # per sample, in class order: base noise, teacher-view noise, student-view noise
    noise = rng.standard_normal((n_classes, per_class, 3, dim))
    base = means[:, None, :] + noise[:, :, 0]
    xt = base + view_sigma * noise[:, :, 1]
    xs = base + view_sigma * noise[:, :, 2]
    labels = np.repeat(np.arange(n_classes), per_class).reshape(n_classes, per_class)
    n_eval = max(1, int(per_class * _EVAL_FRACTION))
    train, held_out = (
        Views(xt[:, part].reshape(-1, dim), xs[:, part].reshape(-1, dim), labels[:, part].ravel())
        for part in (np.s_[n_eval:], np.s_[:n_eval]))
    return train, held_out
